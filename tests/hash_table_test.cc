#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "exec/hash_table.h"

namespace smartssd::exec {
namespace {

std::vector<std::byte> Payload(std::int64_t v) {
  std::vector<std::byte> payload(8);
  std::memcpy(payload.data(), &v, 8);
  return payload;
}

TEST(JoinHashTableTest, InsertAndProbe) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  ASSERT_TRUE(table.Insert(2, Payload(200)).ok());
  const std::byte* hit = table.Probe(1);
  ASSERT_NE(hit, nullptr);
  std::int64_t v;
  std::memcpy(&v, hit, 8);
  EXPECT_EQ(v, 100);
  EXPECT_EQ(table.Probe(3), nullptr);
  EXPECT_EQ(table.entries(), 2u);
}

TEST(JoinHashTableTest, DuplicateKeyRejected) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  auto status = table.Insert(1, Payload(999));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  // Original payload intact.
  std::int64_t v;
  std::memcpy(&v, table.Probe(1), 8);
  EXPECT_EQ(v, 100);
}

TEST(JoinHashTableTest, WrongPayloadWidthRejected) {
  JoinHashTable table(4, 16);
  EXPECT_FALSE(table.Insert(1, Payload(9)).ok());  // 8 bytes into 4-wide
}

TEST(JoinHashTableTest, ZeroWidthPayload) {
  JoinHashTable table(0, 4);
  ASSERT_TRUE(table.Insert(5, {}).ok());
  // A hit returns a (possibly empty) non-null sentinel... probe semantics:
  // key 5 present.
  EXPECT_NE(table.Probe(5), nullptr);
  EXPECT_EQ(table.Probe(6), nullptr);
}

TEST(JoinHashTableTest, GrowsBeyondExpectedEntries) {
  JoinHashTable table(8, 4);  // deliberately undersized
  for (std::int64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 2)).ok()) << k;
  }
  EXPECT_EQ(table.entries(), 10000u);
  for (std::int64_t k = 0; k < 10000; ++k) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr) << k;
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, k * 2);
  }
}

TEST(JoinHashTableTest, NegativeAndExtremeKeys) {
  JoinHashTable table(8, 8);
  const std::int64_t keys[] = {-1, 0, std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t k : keys) {
    ASSERT_TRUE(table.Insert(k, Payload(k ^ 7)).ok());
  }
  for (const std::int64_t k : keys) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr);
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, k ^ 7);
  }
}

TEST(JoinHashTableTest, RandomizedAgainstReference) {
  Random rng(77);
  JoinHashTable table(8, 64);
  std::unordered_map<std::int64_t, std::int64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t key =
        static_cast<std::int64_t>(rng.Uniform(2000));
    const std::int64_t value = static_cast<std::int64_t>(rng.NextUint64());
    const bool inserted = table.Insert(key, Payload(value)).ok();
    const bool expected_new = reference.emplace(key, value).second;
    EXPECT_EQ(inserted, expected_new);
  }
  EXPECT_EQ(table.entries(), reference.size());
  for (const auto& [key, value] : reference) {
    const std::byte* hit = table.Probe(key);
    ASSERT_NE(hit, nullptr);
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, value);
  }
}

TEST(JoinHashTableTest, InsertAfterProbeIsRejected) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  EXPECT_FALSE(table.sealed());
  ASSERT_NE(table.Probe(1), nullptr);
  EXPECT_TRUE(table.sealed());
  // Inserting now could grow `payloads_` and dangle the pointer a
  // caller is still holding from Probe(); the table must refuse.
  auto status = table.Insert(2, Payload(200));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(table.entries(), 1u);
  // A missed probe seals too — the caller has still observed layout.
  JoinHashTable miss_table(8, 16);
  EXPECT_EQ(miss_table.Probe(42), nullptr);
  EXPECT_EQ(miss_table.Insert(1, Payload(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(JoinHashTableTest, PayloadPointersStableOnceSealed) {
  // Grow far past the reserve so `payloads_` reallocates during build;
  // pointers handed out after sealing must all stay valid and correct.
  JoinHashTable table(8, 2);  // deliberately undersized reserve
  constexpr std::int64_t kEntries = 4096;
  for (std::int64_t k = 0; k < kEntries; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 3)).ok()) << k;
  }
  std::vector<const std::byte*> hits;
  hits.reserve(kEntries);
  for (std::int64_t k = 0; k < kEntries; ++k) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr) << k;
    hits.push_back(hit);
  }
  // Any further insert is refused, so the pointers cannot be moved.
  EXPECT_FALSE(table.Insert(kEntries, Payload(0)).ok());
  for (std::int64_t k = 0; k < kEntries; ++k) {
    std::int64_t v;
    std::memcpy(&v, hits[static_cast<std::size_t>(k)], 8);
    EXPECT_EQ(v, k * 3) << k;
  }
}

TEST(JoinHashTableTest, MovedFromTableIsEmptyAndReusable) {
  // Regression: the defaulted move operations left the moved-from table
  // with an empty slot vector, so its next Probe() hashed modulo zero.
  // The custom moves must reset the source to a valid empty table.
  JoinHashTable a(8, 16);
  ASSERT_TRUE(a.Insert(1, Payload(100)).ok());
  ASSERT_TRUE(a.Insert(2, Payload(200)).ok());

  JoinHashTable b(std::move(a));
  std::int64_t v;
  std::memcpy(&v, b.Probe(1), 8);
  EXPECT_EQ(v, 100);
  std::memcpy(&v, b.Probe(2), 8);
  EXPECT_EQ(v, 200);

  // The source is empty but fully operational: probes miss (no crash),
  // and it accepts fresh inserts.
  EXPECT_EQ(a.entries(), 0u);
  EXPECT_EQ(a.Probe(1), nullptr);
  JoinHashTable c(8, 16);
  ASSERT_TRUE(c.Insert(7, Payload(700)).ok());
  JoinHashTable d(8, 16);
  d = std::move(c);
  std::memcpy(&v, d.Probe(7), 8);
  EXPECT_EQ(v, 700);
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.Probe(7), nullptr);
}

// --- Direct slots for dense keys -----------------------------------

// Slot-array size, recovered from the footprint (8-byte payloads).
std::uint64_t SlotCount(const JoinHashTable& table) {
  return (table.memory_bytes() - table.entries() * 8) / 16;
}

std::int64_t ProbeValue(const JoinHashTable& table, std::int64_t key) {
  const std::byte* hit = table.Probe(key);
  EXPECT_NE(hit, nullptr) << key;
  if (hit == nullptr) return 0;
  std::int64_t v;
  std::memcpy(&v, hit, 8);
  return v;
}

TEST(JoinHashTableTest, DenseKeysUseDirectSlots) {
  JoinHashTable table(8, 1000);
  for (std::int64_t k = 1; k <= 1000; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 5)).ok());
  }
  EXPECT_TRUE(table.direct());
  for (std::int64_t k = 1; k <= 1000; ++k) {
    EXPECT_EQ(ProbeValue(table, k), k * 5);
  }
  // Misses below, just past and far above the key range, and keys
  // that wrap onto occupied slots.
  const std::int64_t slots = static_cast<std::int64_t>(SlotCount(table));
  for (const std::int64_t miss :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1001},
        std::int64_t{1} + slots, std::int64_t{500} - slots,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(table.Probe(miss), nullptr) << miss;
  }
  EXPECT_EQ(table.Insert(7, Payload(0)).code(),
            StatusCode::kFailedPrecondition);  // sealed by the probes
}

TEST(JoinHashTableTest, SpanJustUnderAndJustOverTheSlotCount) {
  // 16 expected entries -> 32 slots. Keys 0..15 plus one outlier.
  for (const std::int64_t outlier : {31, 32}) {
    JoinHashTable table(8, 16);
    const std::uint64_t slots = SlotCount(table);
    ASSERT_EQ(slots, 32u);
    for (std::int64_t k = 0; k < 15; ++k) {
      ASSERT_TRUE(table.Insert(k, Payload(k + 100)).ok());
    }
    ASSERT_TRUE(table.Insert(outlier, Payload(outlier + 100)).ok());
    // Span 31 (= size - 1) still fits the window; 32 does not.
    EXPECT_EQ(table.direct(), outlier == 31) << outlier;
    EXPECT_EQ(SlotCount(table), slots);  // same footprint either way
    EXPECT_EQ(table.Insert(outlier, Payload(0)).code(),
              StatusCode::kAlreadyExists);
    for (std::int64_t k = 0; k < 15; ++k) {
      EXPECT_EQ(ProbeValue(table, k), k + 100);
    }
    EXPECT_EQ(ProbeValue(table, outlier), outlier + 100);
    EXPECT_EQ(table.Probe(15), nullptr);
    EXPECT_EQ(table.Probe(-1), nullptr);
    EXPECT_EQ(table.Probe(outlier + 1), nullptr);
  }
}

TEST(JoinHashTableTest, DirectSlotsSurviveGrowth) {
  JoinHashTable table(8, 4);  // 16 slots, grows to 2048
  for (std::int64_t k = 1000; k > 0; --k) {  // descending: lo keeps moving
    ASSERT_TRUE(table.Insert(k, Payload(-k)).ok());
  }
  EXPECT_TRUE(table.direct());
  for (std::int64_t k = 1; k <= 1000; ++k) EXPECT_EQ(ProbeValue(table, k), -k);
  EXPECT_EQ(table.Probe(0), nullptr);
  EXPECT_EQ(table.Probe(1001), nullptr);
}

TEST(JoinHashTableTest, NegativeAndExtremeDenseWindows) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Window {
    std::int64_t lo;
    std::int64_t hi;
  };
  for (const Window w : {Window{-5, 5}, Window{kMin, kMin + 9},
                         Window{kMax - 9, kMax}}) {
    JoinHashTable table(8, 16);
    for (std::int64_t k = w.lo;; ++k) {
      ASSERT_TRUE(table.Insert(k, Payload(k ^ 3)).ok());
      if (k == w.hi) break;
    }
    EXPECT_TRUE(table.direct()) << w.lo;
    for (std::int64_t k = w.lo;; ++k) {
      EXPECT_EQ(ProbeValue(table, k), k ^ 3);
      if (k == w.hi) break;
    }
    // Misses on both sides, with wrap-around at the int64 extremes.
    EXPECT_EQ(table.Probe(w.lo == kMin ? kMax : w.lo - 1), nullptr);
    EXPECT_EQ(table.Probe(w.hi == kMax ? kMin : w.hi + 1), nullptr);
    EXPECT_EQ(table.Probe(w.lo == kMin ? kMax - 5 : kMin), nullptr);
  }
  // INT64_MIN and INT64_MAX together span 2^64 - 1: no overflow, and
  // the table leaves the direct layout.
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(kMin, Payload(1)).ok());
  EXPECT_TRUE(table.direct());
  ASSERT_TRUE(table.Insert(kMax, Payload(2)).ok());
  EXPECT_FALSE(table.direct());
  EXPECT_EQ(ProbeValue(table, kMin), 1);
  EXPECT_EQ(ProbeValue(table, kMax), 2);
  EXPECT_EQ(table.Probe(0), nullptr);
}

TEST(JoinHashTableTest, ZeroWidthPayloadInBothLayouts) {
  for (const std::int64_t stride : {1, 1000003}) {
    JoinHashTable table(0, 8);
    for (std::int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(table.Insert(i * stride, {}).ok());
    }
    EXPECT_EQ(table.direct(), stride == 1);
    for (std::int64_t i = 0; i < 8; ++i) {
      EXPECT_NE(table.Probe(i * stride), nullptr);
    }
    EXPECT_EQ(table.Probe(8 * stride), nullptr);
    EXPECT_EQ(table.Probe(-stride), nullptr);
  }
}

TEST(JoinHashTableTest, PayloadPointersStableAcrossRelayoutAndMove) {
  // Pointers taken from a direct table stay valid after it is moved;
  // a table that left the direct layout mid-build hands out the same
  // payload bytes it was given.
  JoinHashTable table(8, 64);
  for (std::int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 11)).ok());
  }
  ASSERT_TRUE(table.direct());
  std::vector<const std::byte*> hits;
  for (std::int64_t k = 0; k < 40; ++k) hits.push_back(table.Probe(k));
  JoinHashTable moved(std::move(table));
  EXPECT_TRUE(moved.direct());
  EXPECT_TRUE(moved.sealed());
  for (std::int64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(moved.Probe(k), hits[static_cast<std::size_t>(k)]);
    std::int64_t v;
    std::memcpy(&v, hits[static_cast<std::size_t>(k)], 8);
    EXPECT_EQ(v, k * 11);
  }
  EXPECT_EQ(moved.Insert(41, Payload(0)).code(),
            StatusCode::kFailedPrecondition);

  JoinHashTable mixed(8, 64);
  for (std::int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(mixed.Insert(k, Payload(k * 11)).ok());
  }
  ASSERT_TRUE(mixed.Insert(1 << 20, Payload(-1)).ok());  // leaves direct
  EXPECT_FALSE(mixed.direct());
  for (std::int64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(ProbeValue(mixed, k), k * 11);
  }
  EXPECT_EQ(ProbeValue(mixed, 1 << 20), -1);
}

TEST(JoinHashTableTest, RandomizedAgainstReferenceInBothLayouts) {
  // Dense-range keys (the table stays direct) and wide-range keys (it
  // rehashes early), each against std::unordered_map, hits and misses.
  for (const std::uint64_t range : {600u, 1u << 30}) {
    Random rng(91 + range);
    JoinHashTable table(8, 512);  // 1024 slots: wider than 600
    std::unordered_map<std::int64_t, std::int64_t> reference;
    for (int i = 0; i < 700; ++i) {
      const std::int64_t key =
          static_cast<std::int64_t>(rng.Uniform(range)) - 300;
      const std::int64_t value = static_cast<std::int64_t>(rng.NextUint64());
      const bool inserted = table.Insert(key, Payload(value)).ok();
      EXPECT_EQ(inserted, reference.emplace(key, value).second);
    }
    EXPECT_EQ(table.direct(), range == 600u);
    EXPECT_EQ(table.entries(), reference.size());
    for (std::int64_t key = -400; key < 400; ++key) {
      const auto it = reference.find(key);
      const std::byte* hit = table.Probe(key);
      if (it == reference.end()) {
        EXPECT_EQ(hit, nullptr) << key;
        continue;
      }
      ASSERT_NE(hit, nullptr) << key;
      std::int64_t v;
      std::memcpy(&v, hit, 8);
      EXPECT_EQ(v, it->second);
    }
    for (const auto& [key, value] : reference) {
      EXPECT_EQ(ProbeValue(table, key), value);
    }
  }
}

TEST(JoinHashTableTest, MemoryEstimateCoversActualUsage) {
  const std::uint64_t entries = 5000;
  const std::uint64_t estimate = JoinHashTable::EstimateBytes(entries, 8);
  JoinHashTable table(8, entries);
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(entries); ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k)).ok());
  }
  EXPECT_LE(table.memory_bytes(), estimate + estimate / 4);
  EXPECT_GE(estimate, table.memory_bytes() / 2);
}

}  // namespace
}  // namespace smartssd::exec
