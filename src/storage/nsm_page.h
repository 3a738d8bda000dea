#ifndef SMARTSSD_STORAGE_NSM_PAGE_H_
#define SMARTSSD_STORAGE_NSM_PAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/schema.h"

namespace smartssd::storage {

// Classic N-ary slotted page (the paper's default SQL Server heap
// layout). Format:
//
//   [0..2)  magic 0x4E53 ("NS")
//   [2..4)  tuple_count (u16)
//   [4..6)  free_start  (u16) — next byte available for tuple data
//   [6..8)  reserved
//   [8..)   tuple records, packed forward
//   ...
//   slot directory growing backward from the page end: slot i is a u16
//   at page_size - 2*(i+1) holding the byte offset of tuple i.
//
// Tuples are fixed-length here (see types.h), but the slot directory is
// kept anyway: it is what the real system scans, and its 2 bytes/tuple
// overhead is part of the NSM-vs-PAX capacity difference.
inline constexpr std::uint16_t kNsmMagic = 0x4E53;

class NsmPageBuilder {
 public:
  NsmPageBuilder(const Schema* schema, std::uint32_t page_size);

  // Appends a serialized tuple; returns false when the page is full.
  bool Append(std::span<const std::byte> tuple);

  std::uint16_t tuple_count() const { return count_; }

  // Max tuples this page can hold.
  std::uint32_t capacity() const;

  // Finalized page image (always exactly page_size bytes).
  std::span<const std::byte> image() const { return buffer_; }

  void Reset();

 private:
  const Schema* schema_;
  std::uint32_t page_size_;
  std::vector<std::byte> buffer_;
  std::uint16_t count_ = 0;
  std::uint16_t free_start_ = 8;
};

class NsmPageReader {
 public:
  // Validates the header and bounds-checks every slot; a zeroed (never
  // written) page reads as empty.
  static Result<NsmPageReader> Open(const Schema* schema,
                                    std::span<const std::byte> page);

  // The gather step of the batch kernel: validates the page exactly as
  // Open() does and, in the same slot-directory walk, fills `out`
  // (resized to the tuple count) with every tuple's record pointer.
  // Each slot is bounds-checked before its pointer is written; on
  // kCorruption `out` must not be used. Returns the tuple count.
  static Result<std::uint16_t> GatherTuplePointers(
      const Schema* schema, std::span<const std::byte> page,
      std::vector<const std::byte*>* out);

  std::uint16_t tuple_count() const { return count_; }

  // Pointer to tuple i's record (fixed schema->tuple_size() bytes).
  const std::byte* tuple(std::uint16_t i) const;

 private:
  NsmPageReader(const Schema* schema, std::span<const std::byte> page,
                std::uint16_t count)
      : schema_(schema), page_(page), count_(count) {}

  const Schema* schema_;
  std::span<const std::byte> page_;
  std::uint16_t count_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_NSM_PAGE_H_
