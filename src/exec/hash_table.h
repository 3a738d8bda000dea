#ifndef SMARTSSD_EXEC_HASH_TABLE_H_
#define SMARTSSD_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace smartssd::exec {

// Open-addressing hash table for the paper's "simple hash join": built
// once over the (small) inner table, probed per outer tuple. Keys are
// 64-bit integers (the joins are FK -> unique PK equi-joins); each entry
// carries a fixed-width payload of the inner columns the query needs.
//
// Build-then-probe contract: Probe() returns pointers into the payload
// pool, which an Insert() past the reserved capacity would reallocate
// and dangle. The first Probe therefore seals the table; a later Insert
// is rejected with kFailedPrecondition instead of silently invalidating
// payloads the caller may still hold.
//
// Direct slots for dense keys: while every key inserted so far lies in
// a window of fewer than slots_.size() consecutive values (TPC-H
// primary keys are 1..N), the slot of key k is k mod slots_.size(),
// which is collision-free over such a window, so an insert is one slot
// write and a probe is one range check and one slot test. The first
// insert that widens the window past the slot count rehashes the table
// in place into the general layout — the key mixer plus linear
// probing — for good. Either way the slot array has the same size (the
// same growth rule), and payloads never move: memory_bytes(),
// EstimateBytes() and the payload-pointer contract do not depend on the
// layout.
//
// The footprint is what the pushdown planner checks against device DRAM:
// slot array + payload pool.
class JoinHashTable {
 public:
  // `payload_width` bytes per entry; `expected_entries` sizes the table
  // (it grows if exceeded, doubling).
  JoinHashTable(std::uint32_t payload_width,
                std::uint64_t expected_entries);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(JoinHashTable);
  // Moves transfer the payload pool wholesale, so pointers handed out by
  // Probe() before the move stay valid for the life of the destination;
  // the seal travels with them. The moved-from table is reset to a valid
  // empty, unsealed state (a defaulted move used to leave it with an
  // empty slot array, making a later SlotFor() mask with SIZE_MAX).
  // Move-assigning OVER a sealed table would free the payload pool its
  // probers still point into, so that is a checked programming error.
  JoinHashTable(JoinHashTable&& other) noexcept;
  JoinHashTable& operator=(JoinHashTable&& other) noexcept;

  // Inserts key -> payload. Duplicate keys are rejected (inner sides of
  // the paper's joins are primary keys), as is any insert after the
  // first Probe (the table is then sealed).
  Status Insert(std::int64_t key, std::span<const std::byte> payload);

  // Returns the payload for `key`, or nullptr if absent. The pointer
  // stays valid for the life of the table: probing seals it against
  // further inserts.
  const std::byte* Probe(std::int64_t key) const {
    if (!sealed_) sealed_ = true;
    const std::size_t mask = slots_.size() - 1;
    if (direct_) {
      // Unsigned wrap sends keys below the window past its end too.
      if (static_cast<std::uint64_t>(key) -
              static_cast<std::uint64_t>(direct_lo_) >=
          slots_.size()) {
        return nullptr;
      }
      return PayloadOf(slots_[static_cast<std::size_t>(key) & mask]);
    }
    std::size_t i = SlotFor(key);
    for (;;) {
      const Slot& slot = slots_[i];
      if (slot.payload_offset_plus_one == 0) return nullptr;
      if (slot.key == key) return PayloadOf(slot);
      i = (i + 1) & mask;
    }
  }

  bool sealed() const { return sealed_; }
  // True while the keys fit the direct-slot window (see above).
  bool direct() const { return direct_; }

  std::uint64_t entries() const { return entries_; }
  std::uint32_t payload_width() const { return payload_width_; }
  std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + payloads_.size();
  }

  // Conservative size estimate for `entries` rows, used by the planner
  // before the table exists.
  static std::uint64_t EstimateBytes(std::uint64_t entries,
                                     std::uint32_t payload_width);

  // The key mixer, exposed so the hybrid join can derive partition ids
  // from bits SlotFor() does not consume (SlotFor masks the low bits).
  static std::uint64_t HashKey(std::int64_t key) {
    // Fibonacci-style mix; adequate for integer keys.
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    std::uint64_t payload_offset_plus_one = 0;  // 0 = empty
  };

  // Zero-width payloads still need a non-null "present" marker.
  static constexpr std::byte kEmptyPayload{};

  const std::byte* PayloadOf(const Slot& slot) const {
    if (slot.payload_offset_plus_one == 0) return nullptr;
    if (payload_width_ == 0) return &kEmptyPayload;
    return payloads_.data() + (slot.payload_offset_plus_one - 1);
  }

  std::size_t SlotFor(std::int64_t key) const {
    return static_cast<std::size_t>(HashKey(key) & (slots_.size() - 1));
  }
  // Doubles the slot array, re-placing every entry by the current
  // layout.
  void Grow();
  // Switches to the hashed layout in place, for good.
  void LeaveDirect();

  std::uint32_t payload_width_;
  // Set by the (const) read path on first Probe; checked by Insert.
  mutable bool sealed_ = false;
  // Direct layout: every key lies in [direct_lo_, direct_hi_], a window
  // narrower than the slot array, and key k sits at slot k mod size.
  bool direct_ = true;
  std::int64_t direct_lo_ = 0;
  std::int64_t direct_hi_ = 0;
  std::uint64_t entries_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::byte> payloads_;
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_HASH_TABLE_H_
