// ingest_scan: a small GC-prone Smart SSD (the ingest_workload bench's
// geometry, with a larger buffer-pool working set) where two closed-loop
// scan clients run beside a closed-loop ingest client that updates and
// appends. Reads and writes share the flash and FTL layers, so a
// read-path gain that costs GC pauses or write amplification shows
// here, while the kernels do little work.
//
// The run is split into epochs; each epoch's batches leave their pages
// dirty and Database::FlushAll runs at the end of every epoch (the flush
// cadence, identical on both sides of any comparison). Updates touch a
// column the scans never read and appended rows fail the scan
// predicate, so every scan must equal the quiet-device truth.

#include <optional>

#include "bench_core.h"
#include "engine/executor.h"
#include "engine/workload.h"
#include "expr/expression.h"
#include "replay.h"
#include "tally.h"
#include "tpch/synthetic.h"

namespace perfbench {

namespace engine = smartssd::engine;
namespace exec = smartssd::exec;
namespace ex = smartssd::expr;
namespace storage = smartssd::storage;
namespace check = smartssd::check;

namespace {

constexpr std::uint64_t kBaseRows = 30'000;  // ~250 NSM pages of 2 KiB
constexpr int kEpochs = 20;
constexpr int kScanClients = 2;
constexpr int kScansPerClient = 25;  // 20 x 2 x 25 = 1000 scans
constexpr int kBatchesPerEpoch = 50;  // 1000 ingest batches
constexpr std::uint64_t kAppendRows = 10;  // per batch
constexpr std::uint64_t kReservePages = 100;  // room for every append
constexpr std::int64_t kUpdateWidth = 1200;  // keys per update (~10 pages)
constexpr SimDuration kMaxThink = 500 * smartssd::kMicrosecond;
// The traced window: the first quarter of the epochs.
constexpr int kWindowEpochs = kEpochs / 4;

enum Stream : std::uint64_t {
  kStreamScanKey = 1,
  kStreamUpdate = 2,
  kStreamThink = 3,
};

// Col_1 = row (key), Col_2 = row % 97, Col_3 = (row * 7) % 1000,
// Col_4 = 5: pure in the row index, so appended rows are generated the
// same way as loaded ones.
void FillRow(std::uint64_t row, storage::TupleWriter& writer) {
  writer.SetInt32(0, static_cast<std::int32_t>(row));
  writer.SetInt32(1, static_cast<std::int32_t>(row % 97));
  writer.SetInt32(2, static_cast<std::int32_t>((row * 7) % 1000));
  writer.SetInt32(3, 5);
}

engine::DatabaseOptions Options(exec::KernelMode kernel) {
  engine::DatabaseOptions options = engine::DatabaseOptions::PaperSmartSsd();
  options.buffer_pool_pages = 96;
  options.ssd.geometry.channels = 2;
  options.ssd.geometry.chips_per_channel = 2;
  options.ssd.geometry.blocks_per_chip = 12;
  options.ssd.geometry.pages_per_block = 16;
  options.ssd.geometry.page_size_bytes = 2048;
  options.ssd.dram.capacity_bytes = 64 * smartssd::kMiB;
  options.ssd.ftl.over_provisioning = 0.25;
  options.ssd.ftl.gc_low_watermark_blocks = 2;
  options.ssd.ftl.gc_policy = smartssd::ftl::GcPolicyKind::kGreedy;
  options.kernel = kernel;
  return options;
}

// SUM(Col_3) WHERE Col_1 < key_limit; key_limit <= kBaseRows keeps the
// appended rows out, so ingest never changes the answer.
exec::QuerySpec ScanSpec(std::int64_t key_limit) {
  exec::QuerySpec spec;
  spec.name = "invariant_scan";
  spec.table = "T";
  spec.predicate = ex::Lt(ex::Col(0), ex::Lit(key_limit));
  spec.aggregates.push_back({exec::AggSpec::Fn::kSum, ex::Col(2), "s"});
  return spec;
}

// The seeded inputs of one epoch.
struct EpochPlan {
  std::int64_t scan_key_limit = 0;
  std::int64_t update_lo = 0;
  std::int32_t update_value = 0;
  SimDuration scan_think[kScanClients] = {};
  SimDuration ingest_think = 0;
};

EpochPlan PlanEpoch(std::uint64_t seed, int epoch) {
  EpochPlan plan;
  const auto e = static_cast<std::uint64_t>(epoch);
  plan.scan_key_limit = Draw(seed, kStreamScanKey, e)
                            .UniformInt(kBaseRows * 9 / 10, kBaseRows);
  Random update = Draw(seed, kStreamUpdate, e);
  plan.update_lo = update.UniformInt(
      0, static_cast<std::int64_t>(kBaseRows) - kUpdateWidth);
  plan.update_value = static_cast<std::int32_t>(update.UniformInt(6, 99));
  for (int c = 0; c <= kScanClients; ++c) {
    const auto think = static_cast<SimDuration>(
        Draw(seed, kStreamThink, e * 8 + static_cast<std::uint64_t>(c))
            .Uniform(static_cast<std::uint64_t>(kMaxThink)));
    if (c < kScanClients) {
      plan.scan_think[c] = think;
    } else {
      plan.ingest_think = think;
    }
  }
  return plan;
}

class IngestScan : public Workload {
 public:
  explicit IngestScan(std::uint64_t seed) {
    for (int e = 0; e < kEpochs; ++e) plans_[e] = PlanEpoch(seed, e);
  }

  void BuildReference() override {
    engine::Database twin(Options(exec::KernelMode::kScalar));
    Load(twin);
    Check(twin.BuildZoneMap("T"), "reference zone map");
    engine::QueryExecutor executor(&twin);
    for (int e = 0; e < kEpochs; ++e) {
      twin.ResetForColdRun();
      reference_[e] = check::FromQuery(
          "quiet",
          Unwrap(executor.Execute(ScanSpec(plans_[e].scan_key_limit),
                                  engine::ExecutionTarget::kHost),
                 "quiet truth"));
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
      Load(*db_);
    }
    ScopedWall zonemap(spans, "wall.storage.zonemap_build");
    Check(db_->BuildZoneMap("T"), "zone map T");
  }

  Outcome Measure(SpanRecorder* spans, bool window,
                  smartssd::obs::Tracer* tracer) override {
    engine::Database& db = *db_;
    db.metrics().ResetAll();
    if (tracer != nullptr) db.AttachTracer(tracer);

    Outcome outcome;
    outcome.arrival_digest = kDigestSeed;
    Tally tally;
    // Oracle of Col_4 over the base rows (appended rows keep 5).
    std::vector<std::int32_t> col4(kBaseRows, 5);
    std::uint64_t appended = 0;
    const engine::StageBreakdown before = db.StageSnapshot();
    SimTime start = 0;
    const int epochs = window ? kWindowEpochs : kEpochs;
    for (int e = 0; e < epochs; ++e) {
      const EpochPlan& plan = plans_[e];
      engine::WorkloadScheduler sched(&db);
      for (int c = 0; c < kScanClients; ++c) {
        engine::WorkloadQueryConfig scan;
        scan.client = "scan-" + std::to_string(c);
        scan.spec = ScanSpec(plan.scan_key_limit);
        scan.target = engine::ExecutionTarget::kHost;
        sched.AddClosedLoopClient(std::move(scan), kScansPerClient,
                                  plan.scan_think[c], start);
        outcome.arrival_digest =
            Digest(outcome.arrival_digest, plan.scan_think[c]);
      }
      const ex::ExprPtr update_pred = ex::And([&] {
        std::vector<ex::ExprPtr> p;
        p.push_back(ex::Ge(ex::Col(0), ex::Lit(plan.update_lo)));
        p.push_back(
            ex::Lt(ex::Col(0), ex::Lit(plan.update_lo + kUpdateWidth)));
        return p;
      }());
      engine::IngestClientConfig ingest;
      ingest.client = "writer";
      ingest.spec.table = "T";
      ingest.spec.with_update = true;
      ingest.spec.update_predicate = update_pred.get();
      const std::int32_t value = plan.update_value;
      ingest.spec.mutate = [value](const ex::RowView&,
                                   storage::TupleWriter& writer) {
        writer.SetInt32(3, value);
      };
      ingest.spec.append_rows = kAppendRows;
      ingest.spec.append_gen = FillRow;
      ingest.spec.flush = false;  // FlushAll at the end of the epoch
      sched.AddIngestClient(std::move(ingest), kBatchesPerEpoch,
                            plan.ingest_think, start);
      outcome.arrival_digest = Digest(
          Digest(outcome.arrival_digest, plan.ingest_think),
          static_cast<std::uint64_t>(plan.update_lo) * 1000 +
              static_cast<std::uint64_t>(plan.scan_key_limit));

      std::vector<engine::CompletedQuery> records;
      {
        ScopedWall run(spans, "wall.engine.run");
        records = Unwrap(sched.Run(), "ingest_scan scheduler");
      }
      {
        ScopedWall flush(spans, "wall.engine.flush");
        start = Unwrap(db.FlushAll(sched.now()), "flush");
      }

      tally.attempted += records.size();
      for (const engine::CompletedQuery& r : records) {
        if (!r.result.ok()) {
          ++tally.failed;
          continue;
        }
        ExpectSame(reference_[e],
                   check::FromQuery("ingest_scan", r.result.value()),
                   "ingest_scan scan");
        tally.AddQuery(r.arrival, r.admitted, r.end);
        tally.AddStats(r.result.value().stats);
      }
      for (const engine::CompletedIngest& b : sched.completed_ingests()) {
        ++tally.attempted;
        if (!b.result.ok()) {
          ++tally.failed;
          continue;
        }
        tally.ingest_latencies.push_back(b.latency());
        appended += b.result.value().rows_appended;
      }
      for (std::int64_t k = plan.update_lo;
           k < plan.update_lo + kUpdateWidth; ++k) {
        col4[static_cast<std::size_t>(k)] = value;
      }
    }
    tally.AddStage(db.StageSnapshot() - before);
    tally.AddRegistry(db.metrics());
    if (tracer != nullptr) db.AttachTracer(nullptr);
    if (tally.failed == 0) CheckFinalState(db, col4, appended, start);

    tally.Finish(&outcome);
    outcome.metrics["write_amp"] =
        db.ssd()->ftl().stats().write_amplification();
    return outcome;
  }

  ReplayResult Replay() override {
    engine::Database& db = *db_;
    const exec::QuerySpec scan = ScanSpec(plans_[0].scan_key_limit);
    ReplayResult r;
    r.kernel_ns_per_page = ReplayKernelNsPerPage(db, scan);
    r.read_ns_per_page = ReplayReadNsPerPage(db, "T");
    r.write_ns_per_page = ReplayWriteNsPerPage(db.options().ssd);
    r.merge_ns_per_partial =
        ReplayMergeNsPerPartial({&db, &db, &db, &db}, scan);
    r.executor_ms_per_query =
        ReplayExecutorMsPerQuery(db, scan, engine::ExecutionTarget::kHost);
    return r;
  }

  std::string MetricsJson() const override { return db_->metrics().ToJson(); }

  void Teardown(SpanRecorder* spans) override {
    ScopedWall teardown(spans, "wall.engine.teardown");
    db_.reset();
  }

 private:
  static void Load(engine::Database& db) {
    Unwrap(db.LoadTable("T", smartssd::tpch::SyntheticSchema(4),
                        storage::PageLayout::kNsm, kBaseRows, FillRow,
                        kReservePages),
           "load T");
  }

  // After the last flush the relation must hold every loaded and appended
  // row as FillRow generated it, except Col_4, which must hold the
  // oracle's values: SUM of every column and COUNT(*) are compared.
  static void CheckFinalState(engine::Database& db,
                              const std::vector<std::int32_t>& col4,
                              std::uint64_t appended, SimTime at) {
    const std::uint64_t rows = kBaseRows + appended;
    std::vector<std::int64_t> want(5, 0);
    for (std::uint64_t row = 0; row < rows; ++row) {
      want[0] += static_cast<std::int64_t>(row);
      want[1] += static_cast<std::int64_t>(row % 97);
      want[2] += static_cast<std::int64_t>((row * 7) % 1000);
      want[3] += row < kBaseRows ? col4[row] : 5;
    }
    want[4] = static_cast<std::int64_t>(rows);
    exec::QuerySpec spec;
    spec.table = "T";
    for (int c = 0; c < 4; ++c) {
      spec.aggregates.push_back(
          {exec::AggSpec::Fn::kSum, ex::Col(c), "sum" + std::to_string(c)});
    }
    spec.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "n"});
    engine::QueryExecutor executor(&db);
    const std::vector<std::int64_t> got =
        Unwrap(executor.Execute(spec, engine::ExecutionTarget::kHost, at),
               "final state")
            .agg_values;
    if (got != want) {
      std::string msg =
          "ingest_scan final relation (SUM Col_1..Col_4, COUNT):";
      for (std::size_t i = 0; i < want.size(); ++i) {
        msg += " " + std::to_string(got[i]) + "/" + std::to_string(want[i]);
      }
      Fail(msg + " (got/oracle)");
    }
  }

  EpochPlan plans_[kEpochs];
  check::ExecutionOutput reference_[kEpochs];
  std::optional<engine::Database> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestScan(std::uint64_t seed) {
  return std::make_unique<IngestScan>(seed);
}

}  // namespace perfbench
