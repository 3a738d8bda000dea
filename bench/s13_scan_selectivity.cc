// SIGMOD'13 sweep A (the companion paper's Section 4 points to these as
// "additional results for single table scan queries for varying ...
// scan selectivities, with and without aggregation ... in [7]"):
// speedup of in-SSD execution over the SSD for a single-table scan as
// selectivity varies, with and without a terminal aggregate.
//
// Expected shape: with aggregation the result is one tuple, so the
// Smart SSD keeps its advantage at every selectivity; without
// aggregation the qualifying tuples must cross the host link, so the
// advantage decays with selectivity and in-SSD execution approaches (or
// falls below) parity as the query returns most of the table.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

using namespace smartssd;

namespace {

constexpr int kColumns = 32;
constexpr std::uint64_t kRows = 300'000;

engine::QueryStats RunScan(engine::Database& db, double selectivity,
                           bool aggregate, engine::ExecutionTarget target) {
  db.ResetForColdRun();
  engine::QueryExecutor executor(&db);
  auto result = bench::Unwrap(
      executor.Execute(
          tpch::ScanQuerySpec("T", kColumns, selectivity, aggregate),
          target),
      "scan query");
  return result.stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("s13_scan_selectivity", argc, argv);
  bench::PrintHeader(
      "Single-table scan: Smart SSD speedup vs selectivity, with and "
      "without aggregation",
      "the SIGMOD'13 selectivity sweeps referenced in Section 4.2.1");

  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadSyntheticS(ssd_db, "T", kColumns, kRows, 1000,
                                     storage::PageLayout::kNsm),
                "load (SSD)");
  engine::Database smart_db(engine::DatabaseOptions::PaperSmartSsd());
  bench::Unwrap(tpch::LoadSyntheticS(smart_db, "T", kColumns, kRows, 1000,
                                     storage::PageLayout::kPax),
                "load (Smart)");

  std::printf("%-12s %18s %21s\n", "selectivity", "speedup (with agg)",
              "speedup (return rows)");
  bench::PrintRule();
  for (const double sel : {0.0001, 0.001, 0.01, 0.1, 0.25, 0.5, 1.0}) {
    const engine::QueryStats agg_ssd =
        RunScan(ssd_db, sel, true, engine::ExecutionTarget::kHost);
    const engine::QueryStats agg_smart =
        RunScan(smart_db, sel, true, engine::ExecutionTarget::kSmartSsd);
    const engine::QueryStats row_ssd =
        RunScan(ssd_db, sel, false, engine::ExecutionTarget::kHost);
    const engine::QueryStats row_smart =
        RunScan(smart_db, sel, false, engine::ExecutionTarget::kSmartSsd);
    const double agg_speedup =
        agg_ssd.elapsed_seconds() / agg_smart.elapsed_seconds();
    const double row_speedup =
        row_ssd.elapsed_seconds() / row_smart.elapsed_seconds();
    std::printf("%10.2f%% %17.2fx %20.2fx\n", sel * 100, agg_speedup,
                row_speedup);
    // One row per selectivity: the Smart SSD aggregate run's virtual
    // time and speedup, with the other three runs as counters. The
    // paper gives no number for these sweeps.
    char config[32];
    std::snprintf(config, sizeof(config), "sel=%.2f%%", sel * 100);
    reporter.AddWithCounters(
        config, agg_smart.elapsed_seconds(), NAN, agg_speedup,
        {{"agg_ssd_seconds", agg_ssd.elapsed_seconds()},
         {"rows_ssd_seconds", row_ssd.elapsed_seconds()},
         {"rows_smart_seconds", row_smart.elapsed_seconds()},
         {"rows_speedup", row_speedup},
         {"rows_output", static_cast<double>(row_smart.output_rows)},
         {"rows_bytes_over_host_link",
          static_cast<double>(row_smart.bytes_over_host_link)},
         {"agg_embedded_cycles",
          static_cast<double>(agg_smart.embedded_cycles)},
         {"agg_comparisons",
          static_cast<double>(agg_smart.counts.eval.comparisons)}});
  }
  bench::PrintRule();
  std::printf(
      "Shape check: the aggregate column stays high; the row-returning "
      "column decays toward/below 1x as output volume grows.\n");
  reporter.Write();
  return 0;
}
