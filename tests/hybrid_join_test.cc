// Property sweep for the memory-constrained hybrid hash join: shrinking
// the resident-build grant from fully-resident down to
// every-partition-spills must leave result bytes AND end-of-query
// operation totals identical to the unconstrained join, on both page
// layouts; the batch kernel must reproduce the scalar reference exactly
// at every grant; and a heavily skewed probe distribution must engage
// the heavy-hitter pin so the hot key stops paying the spill path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include <map>
#include <string>
#include <utility>

#include "common/random.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/hybrid_join.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"
#include "tpch/tpch_gen.h"

namespace smartssd::engine {
namespace {

// ~29 KiB estimated build table (600 rows), so a 2 KiB grant cannot hold
// even one of the four partitions and a 16 KiB grant holds some but not
// all — the sweep crosses fully-resident, partial-spill, and
// everything-spills regimes.
constexpr std::uint64_t kSRows = 4'000;
constexpr std::uint64_t kRRows = 600;
constexpr int kCols = 64;  // JoinQuerySpec projects combined index 64

namespace ex = ::smartssd::expr;

// The grant sweep: fully resident, partial spill, mostly spilled, and
// every partition spilled.
constexpr std::uint64_t kBudgets[] = {std::uint64_t{1} << 20,
                                      std::uint64_t{16} * 1024,
                                      std::uint64_t{6} * 1024,
                                      std::uint64_t{2} * 1024};

std::unique_ptr<Database> MakeDb(
    std::uint64_t budget_bytes, storage::PageLayout layout,
    exec::KernelMode kernel = exec::KernelMode::kVectorized) {
  DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
  options.join_spill.budget_bytes = budget_bytes;
  options.kernel = kernel;
  auto db = std::make_unique<Database>(options);
  SMARTSSD_CHECK(
      tpch::LoadSyntheticS(*db, "S", kCols, kSRows, kRRows, layout).ok());
  SMARTSSD_CHECK(tpch::LoadSyntheticR(*db, "R", kCols, kRRows, layout).ok());
  db->ResetForColdRun();
  return db;
}

TEST(HybridJoinPropertyTest, GrantSweepIsInvisibleToResultsAndCounts) {
  const exec::QuerySpec spec = tpch::JoinQuerySpec("S", "R", 0.5);
  for (const storage::PageLayout layout :
       {storage::PageLayout::kNsm, storage::PageLayout::kPax}) {
    SCOPED_TRACE(layout == storage::PageLayout::kNsm ? "nsm" : "pax");

    // Ground truth: the host path, then the unconstrained device build
    // (budget 0 resolves to "fits device DRAM, stay whole").
    auto ref_db = MakeDb(0, layout);
    QueryExecutor ref_exec(ref_db.get());
    auto host = ref_exec.Execute(spec, ExecutionTarget::kHost, 0);
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    ref_db->ResetForColdRun();
    auto whole = ref_exec.Execute(spec, ExecutionTarget::kSmartSsd, 0);
    ASSERT_TRUE(whole.ok());
    ASSERT_EQ(whole->rows, host->rows);
    ASSERT_EQ(whole->stats.join_spill.partitions_spilled, 0u);

    for (const std::uint64_t budget : kBudgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      auto db = MakeDb(budget, layout);
      QueryExecutor executor(db.get());
      auto got = executor.Execute(spec, ExecutionTarget::kSmartSsd, 0);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      // Byte-identical output and identical operation totals: spilling
      // is charged as I/O and cycles, never as logical work.
      EXPECT_EQ(got->rows, host->rows);
      EXPECT_EQ(got->agg_values, host->agg_values);
      EXPECT_EQ(got->stats.counts.tuples, whole->stats.counts.tuples);
      EXPECT_EQ(got->stats.counts.probes, whole->stats.counts.probes);
      EXPECT_EQ(got->stats.counts.hash_inserts,
                whole->stats.counts.hash_inserts);
      EXPECT_EQ(got->stats.counts.eval.column_reads,
                whole->stats.counts.eval.column_reads);
      EXPECT_EQ(got->stats.output_bytes, whole->stats.output_bytes);

      const exec::HybridJoinStats& js = got->stats.join_spill;
      if (budget >= (std::uint64_t{1} << 20)) {
        // The whole table fits the grant: no spill machinery at all.
        EXPECT_EQ(js.partitions_spilled, 0u);
        EXPECT_EQ(js.spill_pages_written, 0u);
      } else {
        EXPECT_GT(js.partitions_spilled, 0u);
        EXPECT_GE(js.passes, 2u);
        // Every written page is read back at least once (resolve);
        // hot-key promotion may re-scan build files on top of that.
        EXPECT_GE(js.spill_pages_read, js.spill_pages_written);
      }
      if (budget == std::uint64_t{2} * 1024) {
        // Below one partition's footprint: every partition spills and
        // every build row takes the flash round-trip.
        EXPECT_EQ(js.partitions_spilled, db->options().join_spill.fanout);
        EXPECT_EQ(js.build_rows_spilled, kRRows);
      }
      // The spill extents were trimmed back at session close.
      EXPECT_EQ(db->ssd()->spill_pages_held(), 0u);
    }
  }
}

// Every output shape of the join pipeline over S x R, in both pipeline
// orders. Probe-first predicates read the payload, so deferred tuples
// still owe them at resolve time; top-N orders by the FK, whose many
// ties make the output depend on scan-order replay.
std::vector<exec::QuerySpec> KernelAxisSpecs() {
  std::vector<exec::QuerySpec> specs;
  for (const exec::PipelineOrder order :
       {exec::PipelineOrder::kFilterFirst, exec::PipelineOrder::kProbeFirst}) {
    const bool probe_first = order == exec::PipelineOrder::kProbeFirst;
    auto base = [&](const std::string& shape) {
      exec::QuerySpec spec = tpch::JoinQuerySpec("S", "R", 0.5);
      spec.name = shape + (probe_first ? "-probe-first" : "-filter-first");
      spec.order = order;
      spec.join->inner_payload_cols = {1, 2};  // combined columns 64, 65
      if (probe_first) {
        std::vector<ex::ExprPtr> conjuncts;
        conjuncts.push_back(
            ex::Lt(ex::Col(2), ex::Lit(tpch::SelectivityThreshold(0.5))));
        conjuncts.push_back(ex::Lt(ex::Col(64), ex::Col(3)));
        spec.predicate = ex::And(std::move(conjuncts));
      }
      spec.projection.clear();
      return spec;
    };
    exec::QuerySpec agg = base("agg");
    agg.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(64), "s"});
    agg.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "n"});
    agg.aggregates.push_back({exec::AggSpec::Fn::kMin, ex::Col(65), "lo"});
    agg.aggregates.push_back({exec::AggSpec::Fn::kMax, ex::Col(0), "hi"});
    specs.push_back(std::move(agg));

    exec::QuerySpec grouped = base("groupby");
    grouped.group_by = {1};
    grouped.aggregates.push_back(
        {exec::AggSpec::Fn::kSum, ex::Add(ex::Col(64), ex::Col(65)), "s"});
    grouped.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "n"});
    specs.push_back(std::move(grouped));

    exec::QuerySpec projection = base("projection");
    projection.projection = {0, 64, 3, 65};
    specs.push_back(std::move(projection));

    exec::QuerySpec top_n = base("topn");
    top_n.projection = {0, 1, 65};
    top_n.top_n = exec::TopNSpec{.order_col = 1, .limit = 50};
    specs.push_back(std::move(top_n));
  }
  return specs;
}

TEST(HybridJoinPropertyTest, BatchKernelMatchesScalarAtEveryGrant) {
  const std::vector<exec::QuerySpec> specs = KernelAxisSpecs();
  for (const storage::PageLayout layout :
       {storage::PageLayout::kNsm, storage::PageLayout::kPax}) {
    SCOPED_TRACE(layout == storage::PageLayout::kNsm ? "nsm" : "pax");
    for (const std::uint64_t budget : kBudgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      // Twin databases differing only in the kernel run the same query
      // sequence, so their flash (spill extents, GC) evolves in step and
      // even virtual end times must agree.
      auto scalar_db = MakeDb(budget, layout, exec::KernelMode::kScalar);
      auto vector_db = MakeDb(budget, layout, exec::KernelMode::kVectorized);
      QueryExecutor scalar_exec(scalar_db.get());
      QueryExecutor vector_exec(vector_db.get());
      for (const exec::QuerySpec& spec : specs) {
        SCOPED_TRACE(spec.name);
        scalar_db->ResetForColdRun();
        vector_db->ResetForColdRun();
        auto scalar = scalar_exec.Execute(spec, ExecutionTarget::kSmartSsd, 0);
        auto vector = vector_exec.Execute(spec, ExecutionTarget::kSmartSsd, 0);
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        ASSERT_TRUE(vector.ok()) << vector.status().ToString();
        ASSERT_EQ(scalar->stats.target, ExecutionTarget::kSmartSsd);
        ASSERT_EQ(vector->stats.target, ExecutionTarget::kSmartSsd);
        EXPECT_EQ(scalar->stats.kernel, exec::KernelMode::kScalar);
        EXPECT_EQ(vector->stats.kernel, exec::KernelMode::kVectorized);

        EXPECT_EQ(vector->rows, scalar->rows);
        EXPECT_EQ(vector->agg_values, scalar->agg_values);
        EXPECT_TRUE(vector->stats.counts == scalar->stats.counts);
        EXPECT_TRUE(vector->stats.join_spill == scalar->stats.join_spill);
        EXPECT_EQ(vector->stats.end, scalar->stats.end);
        EXPECT_EQ(vector->stats.embedded_cycles,
                  scalar->stats.embedded_cycles);
        // Below the full-table grant the batch kernel really ran the
        // spilling join, not just the resident probe.
        if (budget < (std::uint64_t{1} << 20)) {
          EXPECT_GT(vector->stats.join_spill.probe_rows_spilled, 0u);
        }
      }
      EXPECT_EQ(vector_db->ssd()->spill_pages_held(), 0u);
    }
  }
}

// The pre-flat-array sketch, kept as the reference the flat one must
// match decision for decision: std::map iterates keys in ascending
// order and the scan keeps the first strict minimum, so the victim is
// the lowest count with ties going to the smallest key.
class MapSketch {
 public:
  explicit MapSketch(std::size_t capacity) : capacity_(capacity) {}
  std::uint64_t Bump(std::int64_t key) {
    auto it = counts_.find(key);
    if (it != counts_.end()) return ++it->second;
    if (counts_.size() < capacity_) {
      counts_.emplace(key, 1);
      return 1;
    }
    auto min_it = counts_.begin();
    for (auto i = counts_.begin(); i != counts_.end(); ++i) {
      if (i->second < min_it->second) min_it = i;
    }
    const std::uint64_t count = min_it->second + 1;
    counts_.erase(min_it);
    counts_.emplace(key, count);
    return count;
  }
  bool Tracks(std::int64_t key) const { return counts_.count(key) > 0; }

 private:
  std::size_t capacity_;
  std::map<std::int64_t, std::uint64_t> counts_;
};

TEST(SpaceSavingSketchTest, EvictsLowestCountThenSmallestKey) {
  exec::SpaceSavingSketch sketch(3);
  EXPECT_EQ(sketch.Bump(5), 1u);
  EXPECT_EQ(sketch.Bump(5), 2u);
  EXPECT_EQ(sketch.Bump(5), 3u);
  EXPECT_EQ(sketch.Bump(9), 1u);
  EXPECT_EQ(sketch.Bump(2), 1u);
  // Full: {5:3, 9:1, 2:1}. Keys 9 and 2 tie on the lowest count; the
  // smaller key goes, and the newcomer inherits its count plus one.
  EXPECT_EQ(sketch.Bump(7), 2u);
  EXPECT_FALSE(sketch.Tracks(2));
  EXPECT_TRUE(sketch.Tracks(9));
  // {5:3, 9:1, 7:2}: 9 alone holds the lowest count.
  EXPECT_EQ(sketch.Bump(-4), 2u);
  EXPECT_FALSE(sketch.Tracks(9));
  // {5:3, 7:2, -4:2}: a tie again, and the negative key is smaller.
  EXPECT_EQ(sketch.Bump(1), 3u);
  EXPECT_FALSE(sketch.Tracks(-4));
  EXPECT_TRUE(sketch.Tracks(7));
  EXPECT_TRUE(sketch.Tracks(5));
  // Capacity 0 still keeps one counter.
  exec::SpaceSavingSketch tiny(0);
  EXPECT_EQ(tiny.Bump(3), 1u);
  EXPECT_EQ(tiny.Bump(4), 2u);
  EXPECT_FALSE(tiny.Tracks(3));
}

TEST(SpaceSavingSketchTest, MatchesOrderedMapReferenceOnSkewedStream) {
  for (const std::uint32_t capacity : {1u, 2u, 8u, 16u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    exec::SpaceSavingSketch sketch(capacity);
    MapSketch reference(capacity);
    Random rng(capacity * 7919 + 1);
    for (int i = 0; i < 20'000; ++i) {
      // Half the stream on a few hot keys, the rest spread wide (with
      // negative keys), so evictions and count ties are frequent.
      const std::int64_t key =
          rng.Uniform(2) == 0
              ? static_cast<std::int64_t>(rng.Uniform(4))
              : static_cast<std::int64_t>(rng.Uniform(200)) - 100;
      ASSERT_EQ(sketch.Bump(key), reference.Bump(key)) << "step " << i;
    }
    for (std::int64_t key = -100; key < 100; ++key) {
      EXPECT_EQ(sketch.Tracks(key), reference.Tracks(key)) << key;
    }
  }
}

TEST(HybridJoinPropertyTest, SkewedProbesPinTheHeavyHitter) {
  for (const exec::KernelMode kernel :
       {exec::KernelMode::kScalar, exec::KernelMode::kVectorized}) {
    SCOPED_TRACE(kernel == exec::KernelMode::kScalar ? "scalar"
                                                     : "vectorized");
    DatabaseOptions options = DatabaseOptions::PaperSmartSsd();
    options.join_spill.budget_bytes = 2 * 1024;  // everything spills
    options.kernel = kernel;
    Database db(options);
    SMARTSSD_CHECK(tpch::LoadSyntheticR(db, "R", kCols, kRRows,
                                        storage::PageLayout::kNsm)
                       .ok());
    // S with a hot foreign key: every even row references R.Col_1 == 1,
    // so one key carries half of all probes.
    auto rng = std::make_shared<Random>(917);
    SMARTSSD_CHECK(
        db.LoadTable("S_skew", tpch::SyntheticSchema(kCols),
                     storage::PageLayout::kNsm, kSRows,
                     [rng](std::uint64_t row, storage::TupleWriter& w) {
                       w.SetInt32(0, static_cast<std::int32_t>(row + 1));
                       w.SetInt32(1, row % 2 == 0
                                         ? 1
                                         : static_cast<std::int32_t>(
                                               rng->Uniform(kRRows) + 1));
                       w.SetInt32(2, static_cast<std::int32_t>(rng->Uniform(
                                         tpch::kSelectivityDomain)));
                       for (int c = 3; c < kCols; ++c) {
                         w.SetInt32(c, static_cast<std::int32_t>(
                                           rng->Uniform(1 << 30)));
                       }
                     })
            .ok());
    db.ResetForColdRun();

    const exec::QuerySpec spec = tpch::JoinQuerySpec("S_skew", "R", 1.0);
    QueryExecutor executor(&db);
    auto host = executor.Execute(spec, ExecutionTarget::kHost, 0);
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    db.ResetForColdRun();
    auto smart = executor.Execute(spec, ExecutionTarget::kSmartSsd, 0);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    EXPECT_EQ(smart->stats.kernel, kernel);

    EXPECT_EQ(smart->rows, host->rows);
    const exec::HybridJoinStats& js = smart->stats.join_spill;
    EXPECT_GT(js.partitions_spilled, 0u);
    // The sketch crossed its threshold on the hot key, pinned its build
    // row resident, and served the bulk of the skewed probes from the
    // pin instead of deferring them to the spill files. The exact
    // figures pin the sketch's victim order: any change to which key
    // it evicts moves them.
    EXPECT_EQ(js.hot_keys_pinned, 8u);
    EXPECT_EQ(js.hot_hits, 1'997u);
    EXPECT_EQ(js.probe_rows_spilled, 2'003u);
    EXPECT_LT(js.probe_rows_spilled, kSRows * 3 / 4);
    EXPECT_EQ(db.ssd()->spill_pages_held(), 0u);
  }
}

}  // namespace
}  // namespace smartssd::engine
