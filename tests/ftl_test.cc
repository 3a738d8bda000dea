#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "sim/fault_injector.h"

namespace smartssd::ftl {
namespace {

flash::Geometry TinyGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 8;
  g.pages_per_block = 4;
  g.page_size_bytes = 256;
  return g;
}

std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return data;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : array_(TinyGeometry(), flash::Timings{}),
        ftl_(&array_, FtlConfig{}) {}

  // Which physical pages currently hold bytes in the backing store.
  std::vector<bool> HeldPages() const {
    std::vector<bool> held(array_.geometry().total_pages());
    for (std::uint64_t p = 0; p < held.size(); ++p) {
      held[p] = array_.store().IsProgrammed(p);
    }
    return held;
  }

  // The one page held in `before` but not in `after`.
  static std::uint64_t ReleasedPage(const std::vector<bool>& before,
                                    const std::vector<bool>& after) {
    std::uint64_t released = before.size();
    for (std::uint64_t p = 0; p < before.size(); ++p) {
      if (before[p] && !after[p]) {
        EXPECT_EQ(released, before.size()) << "more than one page released";
        released = p;
      }
    }
    return released;
  }

  // Bytes the store holds for live data: one page per mapped LPN, with
  // nothing left behind by dead pages awaiting an erase.
  std::uint64_t LiveBytes() const {
    std::uint64_t mapped = 0;
    for (std::uint64_t lpn = 0; lpn < ftl_.logical_pages(); ++lpn) {
      if (ftl_.IsMapped(lpn)) ++mapped;
    }
    return mapped * array_.geometry().page_size_bytes;
  }

  // Programming a released page before its block's erase must still be
  // refused: the block's write pointer has moved past it.
  void ExpectReprogramRefused(std::uint64_t ppn) {
    const flash::Geometry& g = array_.geometry();
    const flash::PageAddress addr = flash::AddressFromPageIndex(g, ppn);
    const std::uint32_t erases =
        array_.block_state(flash::BlockIndex(g, addr)).erase_count;
    const auto result = array_.ProgramPage(addr, Pattern(256, 77), 0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status().ToString();
    EXPECT_EQ(array_.block_state(flash::BlockIndex(g, addr)).erase_count,
              erases);
  }

  flash::FlashArray array_;
  Ftl ftl_;
};

TEST_F(FtlTest, LogicalCapacityReflectsOverProvisioning) {
  // 128 physical pages, 12.5% OP -> 112 logical.
  EXPECT_EQ(ftl_.logical_pages(), 112u);
}

TEST_F(FtlTest, WriteThenReadRoundTrip) {
  const auto data = Pattern(256, 1);
  ASSERT_TRUE(ftl_.Write(5, data, 0).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl_.Read(5, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 256), 0);
  EXPECT_TRUE(ftl_.IsMapped(5));
}

TEST_F(FtlTest, UnmappedReadsAsZeroWithoutFlashOp) {
  std::vector<std::byte> out(256, std::byte{0xAB});
  const std::uint64_t reads_before = array_.reads();
  ASSERT_TRUE(ftl_.Read(7, out, 0).ok());
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(array_.reads(), reads_before);
  EXPECT_EQ(ftl_.stats().unmapped_reads, 1u);
}

TEST_F(FtlTest, OverwriteRemapsAndInvalidates) {
  const auto v1 = Pattern(256, 1);
  const auto v2 = Pattern(256, 2);
  ASSERT_TRUE(ftl_.Write(3, v1, 0).ok());
  ASSERT_TRUE(ftl_.Write(3, v2, 0).ok());
  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl_.Read(3, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), v2.data(), 256), 0);
  EXPECT_EQ(ftl_.stats().host_writes, 2u);
}

TEST_F(FtlTest, TrimUnmaps) {
  ASSERT_TRUE(ftl_.Write(3, Pattern(256, 1), 0).ok());
  ASSERT_TRUE(ftl_.Trim(3).ok());
  EXPECT_FALSE(ftl_.IsMapped(3));
  std::vector<std::byte> out(256, std::byte{1});
  ASSERT_TRUE(ftl_.Read(3, out, 0).ok());
  EXPECT_EQ(out[0], std::byte{0});
}

TEST_F(FtlTest, OutOfRangeOperationsRejected) {
  const std::uint64_t beyond = ftl_.logical_pages();
  EXPECT_FALSE(ftl_.Write(beyond, Pattern(256, 1), 0).ok());
  std::vector<std::byte> out(256);
  EXPECT_FALSE(ftl_.Read(beyond, out, 0).ok());
  EXPECT_FALSE(ftl_.Trim(beyond).ok());
}

TEST_F(FtlTest, OversizedWriteRejected) {
  EXPECT_FALSE(ftl_.Write(0, Pattern(257, 1), 0).ok());
}

TEST_F(FtlTest, StripesAcrossChannels) {
  // Sequential writes land on alternating channels, so sequential reads
  // can stream from all channels at once.
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(ftl_.Write(lpn, Pattern(256, lpn), 0).ok());
  }
  array_.ResetTiming();
  SimTime parallel_done = 0;
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    auto r = ftl_.ReadTiming(lpn, 0);
    ASSERT_TRUE(r.ok());
    parallel_done = std::max(parallel_done, r.value());
  }
  // 8 reads over 4 chips: roughly 2 serial tR, not 8.
  const flash::Timings t;
  EXPECT_LT(parallel_done, 4 * t.read_page);
}

TEST_F(FtlTest, ViewMatchesRead) {
  const auto data = Pattern(256, 7);
  ASSERT_TRUE(ftl_.Write(1, data, 0).ok());
  const auto view = ftl_.View(1);
  ASSERT_EQ(view.size(), 256u);
  EXPECT_EQ(std::memcmp(view.data(), data.data(), 256), 0);
  EXPECT_TRUE(ftl_.View(99).empty());
}

TEST_F(FtlTest, FillToLogicalCapacityAndRewrite) {
  // Fill every logical page, then overwrite everything once: GC must
  // reclaim invalidated pages without data loss.
  const std::uint64_t n = ftl_.logical_pages();
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
      const auto data =
          Pattern(256, static_cast<std::uint8_t>(lpn + round * 13));
      ASSERT_TRUE(ftl_.Write(lpn, data, 0).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  for (std::uint64_t lpn = 0; lpn < n; ++lpn) {
    std::vector<std::byte> out(256);
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    const auto expected = Pattern(256, static_cast<std::uint8_t>(lpn + 13));
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), 256), 0)
        << "lpn " << lpn;
  }
  EXPECT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GT(ftl_.stats().block_erases, 0u);
  EXPECT_GE(ftl_.stats().write_amplification(), 1.0);
}

TEST_F(FtlTest, HotOverwriteWorkloadKeepsWriteAmplificationSane) {
  // Repeatedly overwrite a small hot set; GC victims are mostly
  // invalid, so write amplification stays modest.
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      ASSERT_TRUE(
          ftl_.Write(lpn, Pattern(256, static_cast<std::uint8_t>(round)), 0)
              .ok());
    }
  }
  EXPECT_LT(ftl_.stats().write_amplification(), 2.0);
  EXPECT_GT(ftl_.max_erase_count(), 0u);
}

TEST_F(FtlTest, WearSpreadsAcrossBlocks) {
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn) {
      ASSERT_TRUE(
          ftl_.Write(lpn, Pattern(256, static_cast<std::uint8_t>(lpn)), 0)
              .ok());
    }
  }
  // Striped allocation plus greedy GC: no single block absorbs all
  // erases.
  const flash::Geometry g = TinyGeometry();
  const std::uint32_t max_erases = ftl_.max_erase_count();
  std::uint64_t total_erases = 0;
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    total_erases += array_.block_state(b).erase_count;
  }
  EXPECT_GT(total_erases, 0u);
  EXPECT_LE(max_erases, total_erases);  // sanity
  EXPECT_LT(max_erases * 2, total_erases + max_erases);
}

TEST_F(FtlTest, GcPreservesAllLiveData) {
  // Property: after heavy churn, every live LPN still returns its last
  // written pattern.
  std::vector<std::uint8_t> latest(32, 0);
  smartssd::Random rng(99);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t lpn = rng.Uniform(32);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Uniform(250));
    ASSERT_TRUE(ftl_.Write(lpn, Pattern(256, tag), 0).ok());
    latest[lpn] = tag;
  }
  for (std::uint64_t lpn = 0; lpn < 32; ++lpn) {
    std::vector<std::byte> out(256);
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    const auto expected = Pattern(256, latest[lpn]);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), 256), 0)
        << "lpn " << lpn;
  }
}

TEST_F(FtlTest, OverwriteReleasesTheOldPage) {
  const std::uint64_t page = array_.geometry().page_size_bytes;
  ASSERT_TRUE(ftl_.Write(3, Pattern(256, 1), 0).ok());
  const std::vector<bool> before = HeldPages();
  const std::uint64_t bytes_before = array_.store().allocated_bytes();
  ASSERT_EQ(bytes_before, page);

  const auto v2 = Pattern(256, 2);
  ASSERT_TRUE(ftl_.Write(3, v2, 0).ok());
  // The new copy costs a page and the dead one gives its page back at
  // once, without waiting for its block to be erased.
  EXPECT_EQ(array_.store().allocated_bytes(), bytes_before + page - page);
  EXPECT_EQ(array_.store().allocated_bytes(), LiveBytes());
  const std::uint64_t old_ppn = ReleasedPage(before, HeldPages());
  ASSERT_LT(old_ppn, before.size());
  EXPECT_TRUE(array_.store().View(old_ppn).empty());
  ExpectReprogramRefused(old_ppn);

  std::vector<std::byte> out(256);
  ASSERT_TRUE(ftl_.Read(3, out, 0).ok());
  EXPECT_EQ(std::memcmp(out.data(), v2.data(), 256), 0);
}

TEST_F(FtlTest, TrimReleasesThePage) {
  const std::uint64_t page = array_.geometry().page_size_bytes;
  ASSERT_TRUE(ftl_.Write(3, Pattern(256, 1), 0).ok());
  ASSERT_TRUE(ftl_.Write(4, Pattern(256, 2), 0).ok());
  const std::vector<bool> before = HeldPages();
  const std::uint64_t bytes_before = array_.store().allocated_bytes();

  ASSERT_TRUE(ftl_.Trim(3).ok());
  EXPECT_EQ(array_.store().allocated_bytes(), bytes_before - page);
  EXPECT_EQ(array_.store().allocated_bytes(), LiveBytes());
  const std::uint64_t old_ppn = ReleasedPage(before, HeldPages());
  ASSERT_LT(old_ppn, before.size());
  std::vector<std::byte> raw(256, std::byte{0xAB});
  ASSERT_TRUE(array_.store().Read(old_ppn, raw).ok());
  for (const std::byte b : raw) EXPECT_EQ(b, std::byte{0});
  ExpectReprogramRefused(old_ppn);
}

TEST_F(FtlTest, GcRelocationReleasesTheSourcePage) {
  const std::uint64_t page = array_.geometry().page_size_bytes;
  // Cold data everywhere, then churn on a few hot LPNs: GC victims then
  // hold live cold pages and relocate them. A fault armed on the second
  // flash read of each write stops a collection right after its first
  // relocation, before the victim block is erased — the window in which
  // only the invalidation can have released the source page.
  std::vector<std::vector<std::byte>> latest(ftl_.logical_pages());
  for (std::uint64_t lpn = 0; lpn < ftl_.logical_pages(); ++lpn) {
    latest[lpn] = Pattern(256, static_cast<std::uint8_t>(lpn));
    ASSERT_TRUE(ftl_.Write(lpn, latest[lpn], 0).ok());
  }
  sim::FaultInjector injector;
  array_.set_fault_injector(&injector);
  smartssd::Random rng(5);
  bool stopped_mid_gc = false;
  for (int i = 0; i < 2000 && !stopped_mid_gc; ++i) {
    sim::FaultSchedule schedule;
    schedule.faults.push_back(sim::FaultSpec{
        .kind = sim::FaultKind::kUncorrectableRead,
        .trigger = {.unit = sim::TriggerUnit::kPagesRead, .at = 2},
        .count = 1});
    injector.Load(schedule);
    const std::vector<bool> before = HeldPages();
    const std::uint64_t bytes_before = array_.store().allocated_bytes();
    const std::uint64_t relocations_before = ftl_.stats().gc_relocations;
    const std::uint64_t lpn = rng.Uniform(8);
    const auto data = Pattern(256, static_cast<std::uint8_t>(200 + i % 50));
    if (ftl_.Write(lpn, data, 0).ok()) {
      latest[lpn] = data;
      EXPECT_EQ(array_.store().allocated_bytes(), LiveBytes());
      continue;
    }
    stopped_mid_gc = true;
    // The aborted collection relocated exactly one page: its copy cost
    // a page and its source gave one back, block still unerased.
    ASSERT_EQ(ftl_.stats().gc_relocations, relocations_before + 1);
    EXPECT_EQ(array_.store().allocated_bytes(), bytes_before + page - page);
    EXPECT_EQ(array_.store().allocated_bytes(), LiveBytes());
    const std::uint64_t source = ReleasedPage(before, HeldPages());
    ASSERT_LT(source, before.size());
    EXPECT_TRUE(array_.store().View(source).empty());
    ExpectReprogramRefused(source);
  }
  ASSERT_TRUE(stopped_mid_gc) << "churn never stopped a GC mid-relocation";

  // Every LPN, the relocated one included, reads back byte-identical.
  injector.Clear();
  std::vector<std::byte> out(256);
  for (std::uint64_t lpn = 0; lpn < ftl_.logical_pages(); ++lpn) {
    ASSERT_TRUE(ftl_.Read(lpn, out, 0).ok());
    EXPECT_EQ(std::memcmp(out.data(), latest[lpn].data(), 256), 0)
        << "lpn " << lpn;
  }
}

}  // namespace
}  // namespace smartssd::ftl
