// scan_mix: one Smart SSD under adaptive placement, fed an open loop of
// seeded Poisson arrivals at a fixed rate below its knee; traced runs
// also climb a ladder of rates for slo_qps_v. The mix is
// TPC-H Q6 (selective scan-aggregate), Q1 (group-by, most rows
// qualify), Q14 (lineitem x part, build side over the device join
// budget so the hybrid join spills) and an l_orderkey range scan the
// zone map prunes. lineitem is loaded as PAX and as NSM and the buffer
// pool is far smaller than either, so scans read flash: wall time lands
// in the expr/exec kernels, virtual time on the read path and on
// placement.

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "bench_core.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "queries.h"
#include "replay.h"
#include "tally.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

namespace engine = smartssd::engine;
namespace exec = smartssd::exec;
namespace tpch = smartssd::tpch;
namespace storage = smartssd::storage;
namespace check = smartssd::check;

namespace {

constexpr double kScaleFactor = 0.0025;  // 15k lineitem rows, 500 parts
// The host polls pushdown sessions this often. The default 500 us
// quantizes a 2.7 ms query's latency in 19% steps; 50 us keeps the
// latency figures resolved to 2%.
constexpr SimDuration kPollInterval = 50 * smartssd::kMicrosecond;
// lineitem's cardinality varies by up to this share with the seed, so
// latencies that are one query's solo time still differ between seeds.
constexpr int kSizeJitterPermille = 10;
constexpr std::uint64_t kPoolPages = 32;  // tables are ~250 pages each
// Q14's resident build side needs a little over 28 KiB of device DRAM at
// this scale, so this budget makes the hybrid join spill one of its four
// partitions through the FTL on the device path.
constexpr std::uint64_t kJoinBudgetBytes = 28 * 1024;

// The measured phase: kMeasuredArrivals arrivals offered at
// kMeasuredRate (queries per virtual second). The rate is an assumption
// of the benchmark, as no published workload fixes it; it is a rung of
// the slo_qps_v ladder below the knee (about 30 queries/s, where the
// device saturates and the backlog grows), because past the knee a
// phase's wall time depends on whether its seed tips the queue over.
// 4 x kTailSamples arrivals leave 40 samples beyond the p99, so the
// tail varies little between seeds.
constexpr double kMeasuredRate = 20;
constexpr std::size_t kMeasuredArrivals = 4 * kTailSamples;
// Each slo_qps_v rung offers kTailSamples arrivals, which leaves ten
// samples beyond the p99.
constexpr std::size_t kArrivalsPerRung = kTailSamples;
// The traced window: the phase's first 400 arrivals, about 0.35 s of
// wall time and 70 MB of Chrome JSON.
constexpr std::size_t kWindowArrivals = 400;

// The slo_qps_v ladder (traced runs only): fixed steps of 5 queries/s
// up to more than three times the knee, so the figure can move either
// way. It stops at the first rung that fails.
constexpr std::array<double, 20> kSloLadder = {
    5,  10, 15, 20, 25, 30, 35, 40, 45, 50,
    55, 60, 65, 70, 75, 80, 85, 90, 95, 100};

// Latency limit of the slo_qps_v ladder: a fixed multiple of the solo
// Q6 pushdown latency on this database (virtual seconds, cold run, SF
// 0.0025 without jitter). The multiple is the smallest whole one that
// is at least twice the slowest query of the mix run solo (Q14, 0.0647
// virtual s: its spilling join runs on the device), so queueing may at
// most double the slowest query's unloaded latency. Both stay fixed
// when the model changes.
constexpr double kSoloQ6PushdownS = 0.00244;
constexpr int kSloMultiple = 54;  // ceil(2 x 0.0647 / 0.00244)
constexpr double kSloLimitS = kSloMultiple * kSoloQ6PushdownS;  // 0.132 s
// "No growing backlog": the rung's completion rate keeps up with its
// offered rate (Arrivals makes every seed offer exactly that rate).
constexpr double kBacklogTolerance = 0.9;

enum QueryKind { kQ6 = 0, kQ1, kQ14, kRange, kNumKinds };
constexpr const char* kKindName[kNumKinds] = {"q6", "q1", "q14", "range"};
// Seeded literal sets per query kind. Q14's spill volume depends on its
// literals; 64 sets average it out, so memory and latency figures vary
// little between seeds.
constexpr int kVariants = 64;

// One deck of arrivals holds every (query, layout) pair once: equal
// weight per query, as each stream of the TPC-H throughput test runs
// every query once, and equal weight per layout. The seed only
// permutes the order within a deck, so every seed runs the same mix.
struct Slot {
  QueryKind kind;
  bool pax;
};
constexpr std::array<Slot, 2 * kNumKinds> kDeck = {{
    {kQ6, true},
    {kQ6, false},
    {kQ1, true},
    {kQ1, false},
    {kQ14, true},
    {kQ14, false},
    {kRange, true},
    {kRange, false},
}};

// Seed streams.
enum Stream : std::uint64_t {
  kStreamGap = 1,
  kStreamDeck = 2,
  kStreamVariant = 3,
  kStreamSize = 4,
  kStreamLiteral = 10,  // + kind
};

const char* Table(bool pax) { return pax ? "lineitem_pax" : "lineitem_nsm"; }

// qgen-style substitution parameters of one (kind, variant).
struct Literals {
  int year = 1994;
  int discount = 6;
  int quantity = 24;
  int delta_days = 90;
  int month = 9;
  std::int64_t key_lo = 1;
  std::int64_t key_hi = 1;
};

Literals DrawLiterals(std::uint64_t seed, QueryKind kind, int variant,
                      std::int64_t orders) {
  Random rng =
      Draw(seed, kStreamLiteral + static_cast<std::uint64_t>(kind), variant);
  Literals l;
  l.year = static_cast<int>(rng.UniformInt(1993, 1997));
  l.discount = static_cast<int>(rng.UniformInt(2, 9));
  l.quantity = static_cast<int>(rng.UniformInt(24, 25));
  l.delta_days = static_cast<int>(rng.UniformInt(60, 120));
  l.month = static_cast<int>(rng.UniformInt(1, 12));
  const std::int64_t width = orders / 50;  // 2% of the orders
  l.key_lo = rng.UniformInt(1, orders - width);
  l.key_hi = l.key_lo + width;
  return l;
}

exec::QuerySpec MakeSpec(QueryKind kind, const Literals& l,
                         const std::string& lineitem) {
  switch (kind) {
    case kQ6:
      return Q6(lineitem, l.year, l.discount, l.quantity);
    case kQ1:
      return Q1(lineitem, l.delta_days);
    case kQ14:
      return Q14(lineitem, l.year, l.month);
    case kRange:
    case kNumKinds:
      break;
  }
  return OrderKeyRange(lineitem, l.key_lo, l.key_hi);
}

engine::DatabaseOptions Options(smartssd::exec::KernelMode kernel) {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = kPoolPages;
  options.join_spill.budget_bytes = kJoinBudgetBytes;
  options.placement = engine::PlacementPolicyKind::kAdaptive;
  options.polling.min_poll_interval = kPollInterval;
  options.polling.max_poll_interval = kPollInterval;
  options.kernel = kernel;
  return options;
}

class ScanMix : public Workload {
 public:
  explicit ScanMix(std::uint64_t seed)
      : seed_(seed),
        lineitem_sf_(kScaleFactor *
                     (1 + static_cast<double>(
                              Draw(seed, kStreamSize, 0)
                                  .UniformInt(-kSizeJitterPermille,
                                              kSizeJitterPermille)) /
                              1000)) {
    const auto orders =
        static_cast<std::int64_t>(tpch::LineitemRows(lineitem_sf_) / 4);
    for (int k = 0; k < kNumKinds; ++k) {
      for (int v = 0; v < kVariants; ++v) {
        literals_[k][v] =
            DrawLiterals(seed, static_cast<QueryKind>(k), v, orders);
      }
    }
  }

  void BuildReference() override {
    engine::Database twin(Options(exec::KernelMode::kScalar));
    Unwrap(tpch::LoadLineitem(twin, Table(false), lineitem_sf_,
                              storage::PageLayout::kNsm),
           "reference load lineitem");
    Unwrap(tpch::LoadPart(twin, "part", kScaleFactor,
                          storage::PageLayout::kPax),
           "reference load part");
    engine::QueryExecutor executor(&twin);
    for (int k = 0; k < kNumKinds; ++k) {
      for (int v = 0; v < kVariants; ++v) {
        const exec::QuerySpec spec =
            MakeSpec(static_cast<QueryKind>(k), literals_[k][v], Table(false));
        twin.ResetForColdRun();
        reference_[k][v] = check::FromQuery(
            "reference",
            Unwrap(executor.Execute(spec, engine::ExecutionTarget::kHost),
                   "reference query"));
      }
    }
  }

  void Setup(SpanRecorder* spans) override {
    ScopedWall setup(spans, "setup");
    {
      ScopedWall init(spans, "wall.ssd.device_init");
      db_.emplace(Options(exec::KernelMode::kVectorized));
    }
    {
      ScopedWall load(spans, "wall.storage.load");
      Unwrap(tpch::LoadLineitem(*db_, Table(true), lineitem_sf_,
                                storage::PageLayout::kPax),
             "load lineitem pax");
      Unwrap(tpch::LoadLineitem(*db_, Table(false), lineitem_sf_,
                                storage::PageLayout::kNsm),
             "load lineitem nsm");
      Unwrap(tpch::LoadPart(*db_, "part", kScaleFactor,
                            storage::PageLayout::kPax),
             "load part");
    }
    {
      ScopedWall zonemap(spans, "wall.storage.zonemap_build");
      Check(db_->BuildZoneMap(Table(true)), "zone map pax");
      Check(db_->BuildZoneMap(Table(false)), "zone map nsm");
    }
  }

  // The measured phase, or its first kWindowArrivals for the traced
  // window.
  Outcome Measure(SpanRecorder* spans, bool window,
                  smartssd::obs::Tracer* tracer) override {
    engine::Database& db = *db_;
    db.metrics().ResetAll();
    if (tracer != nullptr) db.AttachTracer(tracer);

    Outcome outcome;
    outcome.arrival_digest = kDigestSeed;
    Tally tally =
        RunRung(kMeasuredRate, window ? kWindowArrivals : kMeasuredArrivals,
                spans, &outcome.arrival_digest);
    tally.AddRegistry(db.metrics());
    if (tracer != nullptr) db.AttachTracer(nullptr);

    tally.Finish(&outcome);
    outcome.metrics["write_amp"] =
        db.ssd()->ftl().stats().write_amplification();
    return outcome;
  }

  // The highest kSloLadder rate whose rung completes without errors,
  // keeps its p99 within kSloLimitS and shows no growing backlog. The
  // climb stops at the first rung that fails: a higher rate only adds
  // to the backlog. Each rung runs on a fresh set-up, because spilled
  // join pages stay in the simulated flash (about 130 MB per 1000
  // arrivals).
  double SloQps(SpanRecorder* spans) override {
    double slo_qps = 0;
    std::uint64_t digest = kDigestSeed;
    for (const double rate : kSloLadder) {
      Teardown(spans);
      Setup(spans);
      const Tally rung = RunRung(rate, kArrivalsPerRung, spans, &digest);
      const double p99 = PercentileSeconds(rung.latencies, kTailQuantile);
      const double span_s =
          smartssd::ToSeconds(rung.last_end - rung.first_arrival);
      const bool keeps_up =
          span_s > 0 && static_cast<double>(rung.latencies.size()) / span_s >=
                            kBacklogTolerance * rate;
      if (rung.failed > 0 || p99 > kSloLimitS || !keeps_up) break;
      slo_qps = rate;
    }
    return slo_qps;
  }

  ReplayResult Replay() override {
    engine::Database& db = *db_;
    const exec::QuerySpec q6 =
        MakeSpec(kQ6, literals_[kQ6][0], Table(true));
    const exec::QuerySpec q1 =
        MakeSpec(kQ1, literals_[kQ1][0], Table(true));
    ReplayResult r;
    r.kernel_ns_per_page = ReplayKernelNsPerPage(db, q6);
    r.read_ns_per_page = ReplayReadNsPerPage(db, Table(true));
    r.write_ns_per_page = ReplayWriteNsPerPage(db.options().ssd);
    r.merge_ns_per_partial =
        ReplayMergeNsPerPartial({&db, &db, &db, &db}, q1);
    r.executor_ms_per_query = ReplayExecutorMsPerQuery(
        db, q6, engine::ExecutionTarget::kSmartSsd);
    return r;
  }

  std::string MetricsJson() const override { return db_->metrics().ToJson(); }

  void Teardown(SpanRecorder* spans) override {
    ScopedWall teardown(spans, "wall.engine.teardown");
    db_.reset();
  }

 private:
  // One rung: a cold reset, then `arrivals` open-loop arrivals at
  // `rate`, each result checked against its reference. Returns what it
  // observed and folds the arrival trace into `digest`.
  Tally RunRung(double rate, std::size_t arrivals, SpanRecorder* spans,
                std::uint64_t* digest) {
    engine::Database& db = *db_;
    {
      ScopedWall reset(spans, "wall.engine.reset");
      db.ResetForColdRun();
    }
    const engine::StageBreakdown before = db.StageSnapshot();
    engine::WorkloadScheduler sched(&db);
    std::vector<std::pair<QueryKind, int>> submitted;  // by id - 1
    const std::vector<SimTime> due = Arrivals(arrivals, rate);
    for (std::size_t i = 0; i < arrivals; ++i) {
      const Slot slot = DeckSlot(i);
      const int variant = static_cast<int>(
          Draw(seed_, kStreamVariant, i).Uniform(kVariants));
      engine::WorkloadQueryConfig config;
      config.client = kKindName[slot.kind];
      config.spec = MakeSpec(slot.kind, literals_[slot.kind][variant],
                             Table(slot.pax));
      const std::uint64_t id = sched.Submit(std::move(config), due[i]);
      if (id != submitted.size() + 1) Fail("unexpected query id order");
      submitted.emplace_back(slot.kind, variant);
      *digest = Digest(Digest(*digest, due[i]),
                       static_cast<std::uint64_t>(
                           (slot.kind * 2 + slot.pax) * kVariants + variant));
    }
    std::vector<engine::CompletedQuery> records;
    {
      ScopedWall run(spans, "wall.engine.run");
      records = Unwrap(sched.Run(), "scan_mix scheduler");
    }
    Tally rung;
    rung.AddStage(db.StageSnapshot() - before);
    rung.attempted += records.size();
    for (const engine::CompletedQuery& r : records) {
      if (!r.result.ok()) {
        ++rung.failed;
        continue;
      }
      const auto [kind, variant] = submitted[r.id - 1];
      ExpectSame(reference_[kind][variant],
                 check::FromQuery("scan_mix", r.result.value()),
                 std::string("scan_mix ") + kKindName[kind]);
      rung.AddQuery(r.arrival, r.admitted, r.end);
      rung.AddStats(r.result.value().stats);
    }
    return rung;
  }

  // Poisson arrivals conditioned on their count: `n` seeded exponential
  // gaps rescaled so the n-th arrival lands at n / rate. Every seed then
  // offers exactly the rung's rate; only the arrival pattern differs.
  std::vector<SimTime> Arrivals(std::size_t n, double rate) const {
    std::vector<double> unit(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Random gap = Draw(seed_, kStreamGap, i);
      t += UnitExponential(gap);
      unit[i] = t;
    }
    std::vector<SimTime> at(n);
    const double scale = static_cast<double>(n) / rate / t * 1e9;
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<SimTime>(unit[i] * scale);
    }
    return at;
  }

  Slot DeckSlot(std::size_t i) const {
    const std::size_t deck = i / kDeck.size();
    std::array<std::size_t, kDeck.size()> order;
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    Random rng = Draw(seed_, kStreamDeck, deck);
    for (std::size_t j = order.size() - 1; j > 0; --j) {
      std::swap(order[j], order[rng.Uniform(j + 1)]);
    }
    return kDeck[order[i % kDeck.size()]];
  }

  std::uint64_t seed_;
  double lineitem_sf_;
  Literals literals_[kNumKinds][kVariants];
  check::ExecutionOutput reference_[kNumKinds][kVariants];
  std::optional<engine::Database> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanMix(std::uint64_t seed) {
  return std::make_unique<ScanMix>(seed);
}

}  // namespace perfbench
