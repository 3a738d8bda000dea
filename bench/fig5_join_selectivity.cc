// Figure 5: elapsed time for the selection-with-join query on
// Synthetic64_R |x| Synthetic64_S at varying selectivity factors.
// The paper reports the Smart SSD (PAX) up to 2.2x faster than the SSD
// at 1% selectivity, saturating toward parity at 100% because the
// result volume (and per-tuple probe/materialization work) grows with
// selectivity.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "tpch/queries.h"
#include "tpch/synthetic.h"

using namespace smartssd;

namespace {

// Paper: S = 400M rows (~120 GB), R = 1M rows, S = 400 R. Scaled 1/2000.
constexpr std::uint64_t kSRows = 200'000;
constexpr std::uint64_t kRRows = kSRows / 400;
constexpr double kScaleUp = 2000.0;

engine::QueryStats RunJoin(engine::Database& db, const std::string& s_table,
                           const std::string& r_table, double selectivity,
                           engine::ExecutionTarget target) {
  db.ResetForColdRun();
  engine::QueryExecutor executor(&db);
  auto result = bench::Unwrap(
      executor.Execute(tpch::JoinQuerySpec(s_table, r_table, selectivity),
                       target),
      "join query");
  return result.stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("fig5_join_selectivity", argc, argv);
  bench::PrintHeader(
      "Selection+join on Synthetic64 R |x| S vs selectivity factor",
      "Figure 5");

  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadSyntheticS(ssd_db, "S", 64, kSRows, kRRows,
                                     storage::PageLayout::kNsm),
                "load S (SSD)");
  bench::Unwrap(tpch::LoadSyntheticR(ssd_db, "R", 64, kRRows,
                                     storage::PageLayout::kNsm),
                "load R (SSD)");

  engine::Database smart_db(engine::DatabaseOptions::PaperSmartSsd());
  bench::Unwrap(tpch::LoadSyntheticS(smart_db, "S", 64, kSRows, kRRows,
                                     storage::PageLayout::kPax),
                "load S (Smart)");
  bench::Unwrap(tpch::LoadSyntheticR(smart_db, "R", 64, kRRows,
                                     storage::PageLayout::kPax),
                "load R (Smart)");

  std::printf("%-12s %14s %16s %9s %12s\n", "selectivity", "SSD (s, SF100)",
              "Smart PAX (s)", "speedup", "rows match");
  bench::PrintRule();
  for (const double selectivity : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const engine::QueryStats ssd = RunJoin(
        ssd_db, "S", "R", selectivity, engine::ExecutionTarget::kHost);
    const engine::QueryStats smart = RunJoin(
        smart_db, "S", "R", selectivity, engine::ExecutionTarget::kSmartSsd);
    const double ssd_s = ssd.elapsed_seconds();
    const double smart_s = smart.elapsed_seconds();
    std::printf("%11.0f%% %13.1f s %14.1f s %8.2fx %12s\n",
                selectivity * 100, ssd_s * kScaleUp, smart_s * kScaleUp,
                ssd_s / smart_s,
                ssd.output_rows == smart.output_rows ? "yes" : "NO (BUG)");
    // One row per selectivity: the Smart SSD (PAX) run's virtual time
    // at the bench's scale, its speedup over the SSD, and both runs'
    // work counters. The paper's 2.2x is quoted at 1% only.
    char config[32];
    std::snprintf(config, sizeof(config), "sel=%.0f%%", selectivity * 100);
    reporter.AddWithCounters(
        config, smart_s, selectivity == 0.01 ? 2.2 : NAN, ssd_s / smart_s,
        {{"ssd_seconds", ssd_s},
         {"ssd_output_rows", static_cast<double>(ssd.output_rows)},
         {"smart_output_rows", static_cast<double>(smart.output_rows)},
         {"smart_pages_read", static_cast<double>(smart.pages_read)},
         {"smart_probes", static_cast<double>(smart.counts.probes)},
         {"smart_bytes_over_host_link",
          static_cast<double>(smart.bytes_over_host_link)},
         {"smart_embedded_cycles",
          static_cast<double>(smart.embedded_cycles)},
         {"ssd_host_cycles", static_cast<double>(ssd.host_cycles)}});
  }
  bench::PrintRule();
  std::printf(
      "Paper: up to 2.2x at 1%% selectivity; saturating toward ~1x at "
      "100%%.\n");
  reporter.Write();
  return 0;
}
