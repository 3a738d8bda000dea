#ifndef SMARTSSD_EXEC_GROUP_TABLE_H_
#define SMARTSSD_EXEC_GROUP_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace smartssd::exec {

// Flat open-addressing hash table for GROUP BY state. Keys are the raw
// serialized group-column bytes (fixed width per query), so a lookup is
// hash + memcmp with no allocation — replacing the former
// std::map<std::string, ...> whose every probe materialized a
// std::string key and chased tree nodes.
//
// Groups are kept in insertion order in two flat pools (keys_, states_)
// and only sorted at Finish time. Equal-width keys sort by memcmp
// exactly as std::string keys sorted in the map, so output order is
// unchanged.
class GroupTable {
 public:
  GroupTable() = default;
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(GroupTable);

  // Must be called once before use. `key_width` > 0.
  void Init(std::uint32_t key_width, std::uint32_t num_states);

  // Returns the index of the group for `key` (key_width bytes),
  // creating it with a copy of `init_states` (num_states values) if it
  // is new.
  std::uint32_t FindOrInsert(const std::byte* key,
                             const std::int64_t* init_states);

  std::int64_t* states(std::uint32_t group) {
    return states_.data() +
           static_cast<std::size_t>(group) * num_states_;
  }
  const std::byte* key(std::uint32_t group) const {
    return keys_.data() + static_cast<std::size_t>(group) * key_width_;
  }

  std::uint32_t key_width() const { return key_width_; }

  // Fills `out` with all group indices in ascending key-byte order.
  void SortedGroups(std::vector<std::uint32_t>* out) const;

 private:
  void Grow();
  std::uint64_t Hash(const std::byte* key) const;

  std::uint32_t key_width_ = 0;
  std::uint32_t num_states_ = 0;
  std::uint32_t count_ = 0;
  std::vector<std::byte> keys_;
  std::vector<std::int64_t> states_;
  std::vector<std::uint32_t> slots_;  // group index + 1; 0 = empty
};

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_GROUP_TABLE_H_
