// fleet_scatter: a uniform 4-device Fleet with lineitem partitioned and
// part replicated. Four closed-loop clients run Q6 and Q14
// scatter-gather through the FleetCoordinator with hedging on and the
// strict result policy. One device carries a seeded low-rate schedule of
// GET stalls and device resets, and every device sees a low raw bit
// error rate, so ECC retries, host fallback, hedges and breaker-open
// re-dispatch all occur. It is the only workload that uses the
// coordinator and partial merge, the one whose partitions fit their
// buffer pools, and the one where the slowest partition sets each
// query's latency; per-device FTL construction dominates its set-up.

#include <map>
#include <optional>

#include "bench_core.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "queries.h"
#include "replay.h"
#include "tally.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

namespace engine = smartssd::engine;
namespace exec = smartssd::exec;
namespace tpch = smartssd::tpch;
namespace storage = smartssd::storage;
namespace sim = smartssd::sim;
namespace check = smartssd::check;

namespace {

constexpr double kScaleFactor = 0.005;  // ~123 lineitem pages per device
constexpr int kDevices = 4;
constexpr std::uint64_t kPoolPages = 256;  // holds a partition and part
// 20 x 4 x 25 = 2000 queries. The seeded faults slow about 4% of them
// (75-85 queries lie beyond the fault-free p99), so the p99 lands among
// the faulted queries and prices hedging, fallback and re-dispatch.
constexpr int kEpochs = 20;
constexpr int kClients = 4;
constexpr int kQueriesPerClient = 25;
constexpr int kWindowEpochs = kEpochs / 4;  // the traced window
constexpr SimDuration kMaxThink = 500 * smartssd::kMicrosecond;
// Raw bit errors: about 0.1% of page reads exceed the ECC strength once
// and recover on the first re-sense.
constexpr double kRawBitErrorRate = 3.8e-4;
// The faulted device's schedule, spread over the pages it reads in a
// run (about 250,000): single GET stalls, and bursts of resets that
// open its breaker. That is one fault per ~4,000 page reads.
constexpr int kGetStalls = 60;
constexpr int kResetBursts = 6;
constexpr std::uint32_t kResetsPerBurst = 3;  // the breaker's threshold
constexpr std::uint64_t kFaultSpanPages = 230'000;
// An open breaker re-probes the device after this much virtual time.
constexpr SimDuration kBreakerCooldown = 50 * smartssd::kMillisecond;

enum QueryKind { kQ6 = 0, kQ14, kNumKinds };
// Seeded literal sets per query kind; 16 average out how much work one
// set's literals select, so the latency figures vary little between
// seeds.
constexpr int kVariants = 16;

enum Stream : std::uint64_t {
  kStreamLiteral = 1,
  kStreamVariant = 2,
  kStreamThink = 3,
  kStreamFault = 4,
  kStreamDevice = 5,
  kStreamFleetSeed = 6,
};

exec::QuerySpec MakeSpec(QueryKind kind, std::uint64_t seed, int variant) {
  Random rng = Draw(seed, kStreamLiteral + static_cast<std::uint64_t>(kind),
                    static_cast<std::uint64_t>(variant));
  const int year = static_cast<int>(rng.UniformInt(1993, 1997));
  if (kind == kQ14) {
    return Q14("lineitem", year, static_cast<int>(rng.UniformInt(1, 12)));
  }
  const int discount = static_cast<int>(rng.UniformInt(2, 9));
  return Q6("lineitem", year, discount,
            static_cast<int>(rng.UniformInt(24, 25)));
}

engine::DatabaseOptions Options(std::uint64_t seed, exec::KernelMode kernel) {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = kPoolPages;
  options.ssd.reliability.raw_bit_error_rate = kRawBitErrorRate;
  options.ssd.reliability.seed = SplitMix(seed ^ kStreamFault);
  options.breaker.cooldown = kBreakerCooldown;
  options.kernel = kernel;
  return options;
}

sim::FaultSchedule FaultsFor(std::uint64_t seed) {
  sim::FaultSchedule schedule;
  for (int j = 0; j < kGetStalls + kResetBursts; ++j) {
    const bool stall = j < kGetStalls;
    schedule.faults.push_back(sim::FaultSpec{
        .kind = stall ? sim::FaultKind::kGetStall
                      : sim::FaultKind::kDeviceReset,
        .trigger = {.unit = sim::TriggerUnit::kPagesRead,
                    .at = Draw(seed, kStreamFault,
                               static_cast<std::uint64_t>(j))
                              .Uniform(kFaultSpanPages)},
        .count = stall ? 1u : kResetsPerBurst});
  }
  return schedule;
}

class FleetScatter : public Workload {
 public:
  explicit FleetScatter(std::uint64_t seed) : seed_(seed) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int v = 0; v < kVariants; ++v) {
        specs_[k][v] = MakeSpec(static_cast<QueryKind>(k), seed, v);
      }
    }
    faulted_device_ =
        static_cast<int>(Draw(seed, kStreamDevice, 0).Uniform(kDevices));
  }

  // The single-device reference every merged fleet result must equal.
  void BuildReference() override {
    engine::Database single(Options(seed_, exec::KernelMode::kScalar));
    Unwrap(tpch::LoadLineitem(single, "lineitem", kScaleFactor,
                              storage::PageLayout::kPax),
           "reference load lineitem");
    Unwrap(tpch::LoadPart(single, "part", kScaleFactor,
                          storage::PageLayout::kPax),
           "reference load part");
    engine::QueryExecutor executor(&single);
    for (int k = 0; k < kNumKinds; ++k) {
      for (int v = 0; v < kVariants; ++v) {
        single.ResetForColdRun();
        reference_[k][v] = check::FromQuery(
            "single-device",
            Unwrap(executor.Execute(specs_[k][v],
                                    engine::ExecutionTarget::kHost),
                   "reference query"));
      }
    }
  }

  void Setup(SpanRecorder* spans) override {
    ScopedWall setup(spans, "setup");
    {
      ScopedWall init(spans, "wall.ssd.device_init");
      fleet_.emplace(kDevices, Options(seed_, exec::KernelMode::kVectorized),
                     SplitMix(seed_ ^ kStreamFleetSeed));
    }
    {
      ScopedWall load(spans, "wall.storage.load");
      Check(tpch::LoadLineitemFleet(*fleet_, "lineitem", kScaleFactor,
                                    storage::PageLayout::kPax),
            "load lineitem");
      for (int d = 0; d < kDevices; ++d) {
        Unwrap(tpch::LoadPart(fleet_->device(d), "part", kScaleFactor,
                              storage::PageLayout::kPax),
               "load part");
      }
    }
    ScopedWall zonemap(spans, "wall.storage.zonemap_build");
    Check(fleet_->BuildZoneMaps("lineitem"), "zone maps");
  }

  Outcome Measure(SpanRecorder* spans, bool window,
                  smartssd::obs::Tracer* tracer) override {
    engine::Fleet& fleet = *fleet_;
    fleet.ResetForColdRun();
    fleet.LoadFaultSchedule(faulted_device_, FaultsFor(seed_));
    std::vector<engine::StageBreakdown> before;
    for (int d = 0; d < kDevices; ++d) {
      fleet.device(d).metrics().ResetAll();
      before.push_back(fleet.device(d).StageSnapshot());
    }
    if (tracer != nullptr) fleet.AttachTracer(tracer);

    Outcome outcome;
    outcome.arrival_digest = kDigestSeed;
    Tally tally;
    std::vector<SimDuration> subquery_latencies;
    std::uint64_t hedges = 0, hedge_wins = 0, redispatches = 0,
                  fallbacks = 0;
    SimTime start = 0;
    const int epochs = window ? kWindowEpochs : kEpochs;
    for (int e = 0; e < epochs; ++e) {
      engine::FleetCoordinator coordinator(&fleet);
      std::map<std::string, const check::ExecutionOutput*> expected;
      for (int c = 0; c < kClients; ++c) {
        const auto index = static_cast<std::uint64_t>(e * kClients + c);
        const int kind = c % kNumKinds;
        const auto variant = static_cast<int>(
            Draw(seed_, kStreamVariant, index).Uniform(kVariants));
        const auto think = static_cast<SimDuration>(
            Draw(seed_, kStreamThink, index)
                .Uniform(static_cast<std::uint64_t>(kMaxThink)));
        engine::FleetQueryConfig config;
        config.client = "client-" + std::to_string(c);
        config.spec = &specs_[kind][variant];
        expected[config.client] = &reference_[kind][variant];
        coordinator.AddClosedLoopClient(config, kQueriesPerClient, think,
                                        start);
        outcome.arrival_digest =
            Digest(Digest(outcome.arrival_digest, think),
                   static_cast<std::uint64_t>(kind * kVariants + variant));
      }
      std::vector<engine::CompletedFleetQuery> records;
      {
        ScopedWall run(spans, "wall.engine.run");
        records = Unwrap(coordinator.Run(), "fleet coordinator");
      }
      start = coordinator.now();
      hedges += coordinator.hedges_launched();
      hedge_wins += coordinator.hedge_wins();
      redispatches += coordinator.redispatches();
      fallbacks += coordinator.subquery_fallbacks();

      tally.attempted += records.size();
      for (const engine::CompletedFleetQuery& r : records) {
        if (!r.result.ok()) {
          ++tally.failed;
          continue;
        }
        ExpectSame(*expected.at(r.client),
                   check::FromFleet("fleet", r.result.value()),
                   "fleet_scatter " + r.query_name);
        tally.AddQuery(r.arrival, r.admitted, r.end);
        for (const engine::QueryStats& s : r.result.value().partition_stats) {
          tally.AddStats(s);
        }
        for (const engine::FleetSubqueryRecord& s : r.subqueries) {
          subquery_latencies.push_back(s.end - s.start);
        }
      }
    }
    for (int d = 0; d < kDevices; ++d) {
      tally.AddStage(fleet.device(d).StageSnapshot() -
                     before[static_cast<std::size_t>(d)]);
      tally.AddRegistry(fleet.device(d).metrics());
    }
    if (tracer != nullptr) fleet.AttachTracer(nullptr);
    // A stalled GET slows its session into a hedge, and the hedge's host
    // result replaces the session's stats, so the re-issued GETs are
    // counted where they fire.
    const std::uint64_t get_stalls =
        fleet.device(faulted_device_).ssd()->fault_injector().fired(
            sim::FaultKind::kGetStall);
    fleet.ClearFaults();

    tally.Finish(&outcome);
    auto& m = outcome.metrics;
    m["smart.get_retries"] = static_cast<double>(get_stalls);
    m["engine.fallbacks"] = static_cast<double>(fallbacks);
    m["engine.fleet_hedges"] = static_cast<double>(hedges);
    m["engine.fleet_hedge_win_ratio"] =
        hedges > 0 ? static_cast<double>(hedge_wins) / hedges : 0;
    m["engine.fleet_redispatches"] = static_cast<double>(redispatches);
    m["engine.fleet_subquery_p99_vs"] =
        PercentileSeconds(subquery_latencies, kTailQuantile);
    return outcome;
  }

  ReplayResult Replay() override {
    engine::Fleet& fleet = *fleet_;
    const exec::QuerySpec& q6 = specs_[kQ6][0];
    engine::Database& db0 = fleet.device(0);
    ReplayResult r;
    r.kernel_ns_per_page = ReplayKernelNsPerPage(db0, q6);
    r.read_ns_per_page = ReplayReadNsPerPage(db0, "lineitem");
    r.write_ns_per_page = ReplayWriteNsPerPage(db0.options().ssd);
    std::vector<engine::Database*> partitions;
    for (int d = 0; d < kDevices; ++d) partitions.push_back(&fleet.device(d));
    r.merge_ns_per_partial = ReplayMergeNsPerPartial(partitions, q6);
    r.executor_ms_per_query =
        ReplayExecutorMsPerQuery(db0, q6, engine::ExecutionTarget::kSmartSsd);
    return r;
  }

  std::string MetricsJson() const override {
    std::string json = "{\"fleet\": " + fleet_->metrics().ToJson();
    for (int d = 0; d < kDevices; ++d) {
      json += ", \"device" + std::to_string(d) +
              "\": " + fleet_->device(d).metrics().ToJson();
    }
    return json + "}";
  }

  void Teardown(SpanRecorder* spans) override {
    ScopedWall teardown(spans, "wall.engine.teardown");
    fleet_.reset();
  }

 private:
  std::uint64_t seed_;
  int faulted_device_ = 0;
  exec::QuerySpec specs_[kNumKinds][kVariants];
  check::ExecutionOutput reference_[kNumKinds][kVariants];
  std::optional<engine::Fleet> fleet_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetScatter(std::uint64_t seed) {
  return std::make_unique<FleetScatter>(seed);
}

}  // namespace perfbench
