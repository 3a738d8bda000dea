// Extension experiment: an array of Smart SSDs as a parallel DBMS —
// Section 4.3's end-of-spectrum vision ("the host machine could simply
// be the coordinator that stages computation across an array of Smart
// SSDs"). LINEITEM is partitioned across N devices; Q6 is scattered by
// the fault-tolerant FleetCoordinator to every device's embedded engine
// and the 8-byte partials are merged on the host in partition order.
// Because pushdown leaves the host idle and each device owns its data,
// scaling is near-linear until the coordinator's merge work matters (it
// never does for aggregates).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/fleet.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {
constexpr double kScaleFactor = 0.05;
constexpr double kScaleUp = 100.0 / kScaleFactor;
}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("ext_scaleout", argc, argv);
  bench::PrintHeader(
      "Scale-out: Q6 across a fleet of 1..8 Smart SSDs",
      "the Section 4.3 'parallel DBMS of Smart SSDs' discussion");

  // Single regular-SSD host baseline.
  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadLineitem(ssd_db, "lineitem", kScaleFactor,
                                   storage::PageLayout::kNsm),
                "load (SSD)");
  ssd_db.ResetForColdRun();
  engine::QueryExecutor ssd_executor(&ssd_db);
  auto host_run = bench::Unwrap(
      ssd_executor.Execute(tpch::Q6Spec("lineitem"),
                           engine::ExecutionTarget::kHost),
      "host Q6");
  const double host_seconds = host_run.stats.elapsed_seconds();
  std::printf("baseline: 1x SAS SSD, host execution: %.1f s (SF100)\n\n",
              host_seconds * kScaleUp);
  reporter.AddWithCounters(
      "host SAS SSD", host_seconds, NAN, 1.0,
      {{"devices", 0.0},
       {"pages_read", static_cast<double>(host_run.stats.pages_read)},
       {"bytes_over_host_link",
        static_cast<double>(host_run.stats.bytes_over_host_link)}});

  std::printf("%-10s %14s %16s %14s\n", "devices", "Q6 (SF100 s)",
              "vs 1 smart SSD", "vs host SSD");
  bench::PrintRule();
  double one_device_seconds = 0;
  for (const int devices : {1, 2, 4, 8}) {
    engine::Fleet fleet(devices,
                        engine::DatabaseOptions::PaperSmartSsd());
    // Identical rows at every fleet size: the loader materializes the
    // sequential tpch stream once and splits it by global row ranges.
    bench::Check(tpch::LoadLineitemFleet(fleet, "lineitem", kScaleFactor,
                                         storage::PageLayout::kPax),
                 "partitioned load");

    const exec::QuerySpec spec = tpch::Q6Spec("lineitem");
    fleet.ResetForColdRun();
    auto result = bench::Unwrap(
        engine::ExecuteOnFleet(fleet, spec,
                               engine::ExecutionTarget::kSmartSsd),
        "fleet Q6");
    const double seconds = result.elapsed_seconds();
    if (devices == 1) one_device_seconds = seconds;
    std::printf("%-10d %13.1f %15.2fx %13.2fx\n", devices,
                seconds * kScaleUp, one_device_seconds / seconds,
                host_seconds / seconds);
    // measured_ratio is the speedup over the host SSD baseline;
    // vs_one_device is the scaling column.
    std::uint64_t pages_read = 0;
    std::uint64_t host_link_bytes = 0;
    for (const engine::QueryStats& partition : result.partition_stats) {
      pages_read += partition.pages_read;
      host_link_bytes += partition.bytes_over_host_link;
    }
    reporter.AddWithCounters(
        "devices=" + std::to_string(devices), seconds, NAN,
        host_seconds / seconds,
        {{"devices", static_cast<double>(devices)},
         {"vs_one_device", one_device_seconds / seconds},
         {"pages_read", static_cast<double>(pages_read)},
         {"bytes_over_host_link", static_cast<double>(host_link_bytes)},
         {"degraded", result.degraded ? 1.0 : 0.0}});
  }
  bench::PrintRule();
  std::printf(
      "Shape check: near-linear scaling with devices; 8 Smart SSDs beat "
      "the single-SSD host by >10x, realizing the appliance vision.\n");
  reporter.Write();
  return 0;
}
