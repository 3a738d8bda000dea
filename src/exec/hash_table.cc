#include "exec/hash_table.h"

#include <algorithm>
#include <bit>

namespace smartssd::exec {

namespace {

std::uint64_t NextPow2(std::uint64_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

}  // namespace

JoinHashTable::JoinHashTable(std::uint32_t payload_width,
                             std::uint64_t expected_entries)
    : payload_width_(payload_width) {
  // Target load factor ~0.7.
  const std::uint64_t slots =
      NextPow2(expected_entries + expected_entries / 2 + 8);
  slots_.resize(static_cast<std::size_t>(slots));
  payloads_.reserve(static_cast<std::size_t>(expected_entries) *
                    payload_width);
}

JoinHashTable::JoinHashTable(JoinHashTable&& other) noexcept
    : payload_width_(other.payload_width_),
      sealed_(other.sealed_),
      direct_(other.direct_),
      direct_lo_(other.direct_lo_),
      direct_hi_(other.direct_hi_),
      entries_(other.entries_),
      slots_(std::move(other.slots_)),
      payloads_(std::move(other.payloads_)) {
  // Leave the source a valid empty table: unsealed, with a real (if
  // minimal) slot array so the power-of-two slot mask stays defined.
  other.sealed_ = false;
  other.direct_ = true;
  other.direct_lo_ = 0;
  other.direct_hi_ = 0;
  other.entries_ = 0;
  other.slots_.assign(1, Slot{});
  other.payloads_.clear();
}

JoinHashTable& JoinHashTable::operator=(JoinHashTable&& other) noexcept {
  if (this == &other) return *this;
  // Overwriting a sealed table frees the payload pool its probers still
  // point into — the caller broke the build-then-probe contract.
  SMARTSSD_CHECK(!sealed_);
  payload_width_ = other.payload_width_;
  sealed_ = other.sealed_;
  direct_ = other.direct_;
  direct_lo_ = other.direct_lo_;
  direct_hi_ = other.direct_hi_;
  entries_ = other.entries_;
  slots_ = std::move(other.slots_);
  payloads_ = std::move(other.payloads_);
  other.sealed_ = false;
  other.direct_ = true;
  other.direct_lo_ = 0;
  other.direct_hi_ = 0;
  other.entries_ = 0;
  other.slots_.assign(1, Slot{});
  other.payloads_.clear();
  return *this;
}

Status JoinHashTable::Insert(std::int64_t key,
                             std::span<const std::byte> payload) {
  if (sealed_) {
    return FailedPreconditionError(
        "hash insert after probe: payload pointers would dangle");
  }
  if (payload.size() != payload_width_) {
    return InvalidArgumentError("hash insert: wrong payload width");
  }
  if ((entries_ + entries_ / 2) >= slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = 0;
  if (direct_) {
    const std::int64_t lo = entries_ == 0 ? key : std::min(direct_lo_, key);
    const std::int64_t hi = entries_ == 0 ? key : std::max(direct_hi_, key);
    // hi - lo + 1 <= size, as hi - lo < size: in unsigned arithmetic the
    // span of INT64_MIN..INT64_MAX is 2^64 - 1, and + 1 would wrap.
    if (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) <
        slots_.size()) {
      i = static_cast<std::size_t>(key) & mask;
      // Over a window narrower than the array, an occupied slot holds
      // this very key.
      if (slots_[i].payload_offset_plus_one != 0) {
        return AlreadyExistsError("hash insert: duplicate join key");
      }
      direct_lo_ = lo;
      direct_hi_ = hi;
    } else {
      LeaveDirect();
    }
  }
  if (!direct_) {
    i = SlotFor(key);
    for (;;) {
      const Slot& slot = slots_[i];
      if (slot.payload_offset_plus_one == 0) break;
      if (slot.key == key) {
        return AlreadyExistsError("hash insert: duplicate join key");
      }
      i = (i + 1) & mask;
    }
  }
  Slot& slot = slots_[i];
  slot.key = key;
  slot.payload_offset_plus_one = payloads_.size() + 1;
  payloads_.insert(payloads_.end(), payload.begin(), payload.end());
  ++entries_;
  return Status::OK();
}

void JoinHashTable::LeaveDirect() {
  // The entries sit at window positions [direct_lo_, direct_hi_]: lift
  // them out, then re-place them by hash into the same slot array.
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t span = static_cast<std::uint64_t>(direct_hi_) -
                             static_cast<std::uint64_t>(direct_lo_);
  std::vector<Slot> lifted;
  lifted.reserve(static_cast<std::size_t>(entries_));
  for (std::uint64_t d = 0; d <= span; ++d) {
    Slot& slot = slots_[static_cast<std::size_t>(
                            static_cast<std::uint64_t>(direct_lo_) + d) &
                        mask];
    if (slot.payload_offset_plus_one == 0) continue;
    lifted.push_back(slot);
    slot = Slot{};
  }
  direct_ = false;
  for (const Slot& slot : lifted) {
    std::size_t i = SlotFor(slot.key);
    while (slots_[i].payload_offset_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void JoinHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.payload_offset_plus_one == 0) continue;
    if (direct_) {
      // Still collision-free: the window is narrower than the old size.
      slots_[static_cast<std::size_t>(slot.key) & mask] = slot;
      continue;
    }
    std::size_t i = SlotFor(slot.key);
    while (slots_[i].payload_offset_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::uint64_t JoinHashTable::EstimateBytes(std::uint64_t entries,
                                           std::uint32_t payload_width) {
  const std::uint64_t slots = NextPow2(entries + entries / 2 + 8);
  return slots * sizeof(Slot) + entries * payload_width;
}

}  // namespace smartssd::exec
