#include "tally.h"

#include <algorithm>

namespace perfbench {

namespace engine = smartssd::engine;
using smartssd::ToSeconds;

void Tally::AddQuery(SimTime arrival, SimTime admitted, SimTime end) {
  latencies.push_back(end - arrival);
  queue_waits.push_back(admitted - arrival);
  first_arrival = std::min(first_arrival, arrival);
  last_end = std::max(last_end, end);
}

void Tally::AddStats(const engine::QueryStats& stats) {
  ++units;
  if (stats.split_scan) ++split_queries;
  if (stats.target == engine::ExecutionTarget::kSmartSsd) {
    ++device_queries;
    gets += stats.session.gets_issued;
    get_retries += stats.session.get_retries;
  }
  pages_read += stats.pages_read;
  pages_skipped += stats.pages_skipped;
  spill_pages += stats.join_spill.spill_pages_written;
  if (stats.join_spill.partitions_spilled > 0) {
    join_passes += stats.join_spill.passes;
  }
  host_link_bytes += stats.bytes_over_host_link;
  if (stats.fell_back) ++fallbacks;
}

void Tally::AddStage(const engine::StageBreakdown& d) {
  stage.flash_chip += d.flash_chip;
  stage.flash_channel += d.flash_channel;
  stage.dram_bus += d.dram_bus;
  stage.host_link += d.host_link;
  stage.embedded_cpu += d.embedded_cpu;
  stage.host_cpu += d.host_cpu;
}

void Tally::AddRegistry(const smartssd::obs::MetricsRegistry& r) {
  flash_page_reads += r.CounterValue("flash.page_reads");
  flash_ecc_retries += r.CounterValue("flash.ecc_retries");
  flash_page_read_p99_ns = std::max(
      flash_page_read_p99_ns, r.SnapshotHistogram("flash.page_read_ns").p99);
  gc_runs += r.CounterValue("ftl.gc_runs");
  gc_relocations += r.CounterValue("ftl.gc_relocations");
  gc_pause_p99_ns =
      std::max(gc_pause_p99_ns, r.SnapshotHistogram("ftl.gc_pause_ns").p99);
  pool_hits += r.CounterValue("bufferpool.hits");
  pool_misses += r.CounterValue("bufferpool.misses");
  pool_evictions += r.CounterValue("bufferpool.evictions");
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void Tally::Finish(Outcome* outcome) const {
  auto& m = outcome->metrics;
  const double q = static_cast<double>(latencies.size());
  m["query_p50_vs"] = PercentileSeconds(latencies, 0.50);
  m["query_p99_vs"] = PercentileSeconds(latencies, kTailQuantile);
  m["achieved_qps_v"] =
      last_end > first_arrival
          ? static_cast<double>(latencies.size()) /
                ToSeconds(last_end - first_arrival)
          : 0;
  m["failed_frac"] = Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted));
  m["ingest_p99_vs"] = PercentileSeconds(ingest_latencies, kTailQuantile);
  m["write_amp"] = 0;

  m["flash.page_reads"] = static_cast<double>(flash_page_reads);
  m["flash.ecc_retries"] = static_cast<double>(flash_ecc_retries);
  m["flash.chip_busy_vs"] = ToSeconds(stage.flash_chip);
  m["flash.channel_busy_vs"] = ToSeconds(stage.flash_channel);
  m["flash.page_read_p99_vs"] = flash_page_read_p99_ns / 1e9;
  m["ftl.gc_runs"] = static_cast<double>(gc_runs);
  m["ftl.gc_relocations"] = static_cast<double>(gc_relocations);
  m["ftl.gc_pause_p99_vs"] = gc_pause_p99_ns / 1e9;
  m["ssd.dram_bus_busy_vs"] = ToSeconds(stage.dram_bus);
  m["ssd.host_link_busy_vs"] = ToSeconds(stage.host_link);
  m["ssd.host_link_bytes_per_query"] =
      Ratio(static_cast<double>(host_link_bytes), q);
  m["smart.embedded_cpu_busy_vs"] = ToSeconds(stage.embedded_cpu);
  m["smart.sessions"] = static_cast<double>(device_queries);
  m["smart.gets_per_session"] = Ratio(static_cast<double>(gets),
                                      static_cast<double>(device_queries));
  m["smart.get_retries"] = static_cast<double>(get_retries);
  m["exec.pages_skipped_ratio"] =
      Ratio(static_cast<double>(pages_skipped),
            static_cast<double>(pages_skipped + pages_read));
  m["exec.join_spill_pages"] = static_cast<double>(spill_pages);
  m["exec.join_passes"] = static_cast<double>(join_passes);
  m["engine.host_cpu_busy_vs"] = ToSeconds(stage.host_cpu);
  m["engine.bufferpool_hit_ratio"] =
      Ratio(static_cast<double>(pool_hits),
            static_cast<double>(pool_hits + pool_misses));
  m["engine.bufferpool_evictions"] = static_cast<double>(pool_evictions);
  const double u = static_cast<double>(units);
  m["engine.device_share"] = Ratio(static_cast<double>(device_queries), u);
  m["engine.split_share"] = Ratio(static_cast<double>(split_queries), u);
  m["engine.queue_wait_p99_vs"] =
      PercentileSeconds(queue_waits, kTailQuantile);
  m["engine.fallbacks"] = static_cast<double>(fallbacks);
  m["engine.fleet_hedges"] = 0;
  m["engine.fleet_hedge_win_ratio"] = 0;
  m["engine.fleet_redispatches"] = 0;
  m["engine.fleet_subquery_p99_vs"] = 0;
  outcome->attempted = attempted;
  outcome->failed = failed;
}

void ExpectSame(const smartssd::check::ExecutionOutput& expected,
                const smartssd::check::ExecutionOutput& actual,
                const std::string& what) {
  const smartssd::Status status =
      smartssd::check::CompareOutputs(expected, actual);
  if (!status.ok()) {
    Fail("wrong result for " + what + ": " + status.ToString());
  }
}

}  // namespace perfbench
