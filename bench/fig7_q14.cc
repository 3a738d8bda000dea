// Figure 7: elapsed time for TPC-H Query 14 (LINEITEM |x| PART, one
// month of shipdates). The paper reports the Smart SSD with PAX
// improving the response time by 1.3x over the SSD — less than the
// synthetic join's 2.2x because the plan (Figure 6) probes the 20M-entry
// PART hash table for every LINEITEM tuple, making Q14 the most
// CPU-intensive query per page in the evaluation.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace smartssd;

namespace {

constexpr double kScaleFactor = 0.05;
constexpr double kScaleUp = 100.0 / kScaleFactor;

struct Run {
  const char* label;
  double seconds;
  double promo_revenue;
  engine::QueryStats stats;
};

Run RunQ14(engine::Database& db, const std::string& lineitem,
           const std::string& part, engine::ExecutionTarget target,
           const char* label) {
  db.ResetForColdRun();
  engine::QueryExecutor executor(&db);
  auto result = bench::Unwrap(
      executor.Execute(tpch::Q14Spec(lineitem, part), target), label);
  return Run{label, result.stats.elapsed_seconds(),
             tpch::Q14PromoRevenue(result.agg_values), result.stats};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("fig7_q14", argc, argv);
  bench::PrintHeader("TPC-H Q14 elapsed time: SSD vs Smart SSD (NSM/PAX)",
                     "Figure 7");

  engine::Database ssd_db(engine::DatabaseOptions::PaperSsd());
  bench::Unwrap(tpch::LoadLineitem(ssd_db, "lineitem", kScaleFactor,
                                   storage::PageLayout::kNsm),
                "load lineitem (SSD)");
  bench::Unwrap(tpch::LoadPart(ssd_db, "part", kScaleFactor,
                               storage::PageLayout::kNsm),
                "load part (SSD)");

  engine::Database smart_db(engine::DatabaseOptions::PaperSmartSsd());
  for (const auto& [suffix, layout] :
       {std::pair{"nsm", storage::PageLayout::kNsm},
        std::pair{"pax", storage::PageLayout::kPax}}) {
    bench::Unwrap(
        tpch::LoadLineitem(smart_db, std::string("lineitem_") + suffix,
                           kScaleFactor, layout),
        "load lineitem (Smart)");
    bench::Unwrap(tpch::LoadPart(smart_db, std::string("part_") + suffix,
                                 kScaleFactor, layout),
                  "load part (Smart)");
  }

  const Run runs[] = {
      RunQ14(ssd_db, "lineitem", "part", engine::ExecutionTarget::kHost,
             "SAS SSD"),
      RunQ14(smart_db, "lineitem_nsm", "part_nsm",
             engine::ExecutionTarget::kSmartSsd, "Smart SSD (NSM)"),
      RunQ14(smart_db, "lineitem_pax", "part_pax",
             engine::ExecutionTarget::kSmartSsd, "Smart SSD (PAX)"),
  };

  std::printf("%-18s %14s %16s %10s\n", "configuration",
              "elapsed (SF0.05)", "projected SF100", "speedup");
  bench::PrintRule();
  for (const Run& run : runs) {
    std::printf("%-18s %13.4f s %14.1f s %9.2fx\n", run.label, run.seconds,
                run.seconds * kScaleUp, runs[0].seconds / run.seconds);
  }
  bench::PrintRule();
  std::printf("promo_revenue agrees: %s (%.4f%%)\n",
              (runs[0].promo_revenue == runs[1].promo_revenue &&
               runs[1].promo_revenue == runs[2].promo_revenue)
                  ? "yes"
                  : "NO (BUG)",
              runs[0].promo_revenue);
  std::printf(
      "Paper: Smart SSD (PAX) improves Q14 by 1.3x over the SSD; measured "
      "%.2fx\n",
      runs[0].seconds / runs[2].seconds);

  // Ratios are Q14 speedups over the SAS SSD baseline. The paper gives
  // 1.3x for PAX (Figure 7) and no headline number for NSM pages.
  const double paper_ratios[] = {1.0, NAN, 1.3};
  for (std::size_t i = 0; i < 3; ++i) {
    const engine::QueryStats& stats = runs[i].stats;
    reporter.AddWithCounters(
        runs[i].label, runs[i].seconds, paper_ratios[i],
        runs[0].seconds / runs[i].seconds,
        {{"pages_read", static_cast<double>(stats.pages_read)},
         {"bytes_over_host_link",
          static_cast<double>(stats.bytes_over_host_link)},
         {"host_cycles", static_cast<double>(stats.host_cycles)},
         {"embedded_cycles", static_cast<double>(stats.embedded_cycles)},
         {"tuples", static_cast<double>(stats.counts.tuples)},
         {"probes", static_cast<double>(stats.counts.probes)},
         {"promo_revenue_pct", runs[i].promo_revenue}});
  }
  reporter.Write();
  return 0;
}
