#ifndef SMARTSSD_FLASH_BACKING_STORE_H_
#define SMARTSSD_FLASH_BACKING_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "flash/geometry.h"

namespace smartssd::flash {

// Holds the actual bytes of every live physical page. Pages are
// allocated lazily: an erased (never-programmed) page has no buffer, and
// a page the FTL invalidates gives its buffer back at once (Release)
// rather than holding dead bytes until its block is erased. The
// simulator is execution-driven — queries run over these real bytes —
// so the store is the ground truth for data content, while the timing
// model is the ground truth for when those bytes become visible.
//
// The store only tracks bytes, not NAND state: a released page has no
// buffer, exactly like an erased one. The no-reprogram-before-erase rule
// for it is enforced by FlashArray's per-block write pointer, which has
// already moved past every programmed page of the block.
class BackingStore {
 public:
  explicit BackingStore(const Geometry& geometry)
      : geometry_(geometry),
        pages_(static_cast<std::size_t>(geometry.total_pages())) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(BackingStore);

  std::uint32_t page_size() const { return geometry_.page_size_bytes; }

  // Whether the page currently holds bytes (programmed and not released).
  bool IsProgrammed(std::uint64_t page_index) const {
    return pages_[page_index] != nullptr;
  }

  // Copies `data` into the page. `data` may be shorter than a page; the
  // remainder is zero-filled (matching a partially used final page). The
  // buffer is allocated uninitialized: only that tail is ever zeroed.
  // These are I/O paths reachable from injected faults and firmware bugs,
  // so violations surface as Status instead of aborting the process.
  Status Program(std::uint64_t page_index, std::span<const std::byte> data) {
    if (data.size() > page_size()) {
      return InvalidArgumentError("backing store: data larger than a page");
    }
    auto& slot = pages_[page_index];
    if (slot != nullptr) {
      // NAND rule: a programmed page must be erased before reprogramming.
      return FailedPreconditionError(
          "backing store: program over a programmed page");
    }
    slot = std::make_unique_for_overwrite<std::byte[]>(page_size());
    std::copy(data.begin(), data.end(), slot.get());
    std::fill(slot.get() + data.size(), slot.get() + page_size(),
              std::byte{0});
    allocated_bytes_ += page_size();
    return Status::OK();
  }

  // Copies the page contents into `out` (must be >= page_size). An erased
  // page reads as zeros.
  Status Read(std::uint64_t page_index, std::span<std::byte> out) const {
    if (out.size() < page_size()) {
      return InvalidArgumentError(
          "backing store: output buffer smaller than a page");
    }
    const auto& slot = pages_[page_index];
    if (slot == nullptr) {
      std::fill(out.begin(), out.begin() + page_size(), std::byte{0});
      return Status::OK();
    }
    std::copy(slot.get(), slot.get() + page_size(), out.begin());
    return Status::OK();
  }

  // Zero-copy view of a programmed page, or empty span for an erased or
  // released one. Valid until the page is released (the FTL invalidates
  // it: overwrite, TRIM or GC relocation) or its block is erased —
  // whichever comes first. A caller that issues writes while holding a
  // view must copy the bytes first.
  std::span<const std::byte> View(std::uint64_t page_index) const {
    const auto& slot = pages_[page_index];
    if (slot == nullptr) return {};
    return {slot.get(), page_size()};
  }

  // Frees a dead page's bytes; it then reads as zeros until reprogrammed
  // after its block's erase.
  void Release(std::uint64_t page_index) {
    auto& slot = pages_[page_index];
    if (slot != nullptr) {
      allocated_bytes_ -= page_size();
      slot.reset();
    }
  }

  // Drops the contents of every page in [first_page, first_page + count).
  void EraseRange(std::uint64_t first_page, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) Release(first_page + i);
  }

  std::uint64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  Geometry geometry_;
  std::vector<std::unique_ptr<std::byte[]>> pages_;
  std::uint64_t allocated_bytes_ = 0;
};

}  // namespace smartssd::flash

#endif  // SMARTSSD_FLASH_BACKING_STORE_H_
