// Every metric the benchmark emits, with its unit, better-direction,
// layer, and the end-to-end metric and workload it is expected to move.
// `perfbench --list` prints this table; selftest.py holds
// BENCHMARK.json to it.

#ifndef PERFBENCH_METRICS_TABLE_H_
#define PERFBENCH_METRICS_TABLE_H_

namespace perfbench {

enum class Group { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  Group group;
  const char* layer;     // module the metric belongs to
  const char* moves;     // end-to-end metric it should move
  const char* workload;  // workload where that shows
  const char* definition;
};

inline constexpr MetricDef kMetrics[] = {
    // --- End to end: every workload, untraced run -------------------
    {"setup_s", "s", "lower", Group::kEndToEnd, "-", "-", "all",
     "wall: device/fleet construction, table load and zone-map build, "
     "median over set-ups"},
    {"wall_s", "s", "lower", Group::kEndToEnd, "-", "-", "all",
     "wall: scheduler/coordinator Run calls, cold resets and flushes of "
     "one measured phase, median over rounds"},
    {"peak_rss_mb", "MiB", "lower", Group::kEndToEnd, "-", "-", "all",
     "getrusage max RSS at exit"},
    {"query_p50_vs", "s", "lower", Group::kEndToEnd, "-", "-", "all",
     "virtual: median latency from due arrival time to result"},
    {"query_p99_vs", "s", "lower", Group::kEndToEnd, "-", "-", "all",
     "virtual: p99 latency, >= 1000 samples so ten lie beyond it"},
    {"achieved_qps_v", "1/s", "higher", Group::kEndToEnd, "-", "-", "all",
     "virtual: completed queries / (last end - first arrival)"},

    // --- Workload-specific end-to-end figures (traced run) -----------
    {"slo_qps_v", "1/s", "higher", Group::kPerLayer, "engine", "-",
     "scan_mix",
     "virtual: highest ladder rate meeting the p99 limit with no growing "
     "backlog (0 elsewhere)"},
    {"ingest_p99_vs", "s", "lower", Group::kPerLayer, "engine", "-",
     "ingest_scan", "virtual: p99 ingest batch latency (0 elsewhere)"},
    {"write_amp", "ratio", "lower", Group::kPerLayer, "ftl", "-",
     "ingest_scan",
     "flash pages programmed / user pages written, FTL stats at run end"},
    {"failed_frac", "ratio", "lower", Group::kPerLayer, "engine", "-", "all",
     "queries and ingest batches ending in an error status / attempted"},

    // --- flash ---------------------------------------------------------
    {"flash.page_reads", "count", "lower", Group::kPerLayer, "flash",
     "query_p50_vs", "scan_mix", "flash page reads in the measured phase"},
    {"flash.ecc_retries", "count", "lower", Group::kPerLayer, "flash",
     "query_p99_vs", "fleet_scatter", "threshold-adjusted re-senses"},
    {"flash.chip_busy_vs", "s", "lower", Group::kPerLayer, "flash",
     "slo_qps_v", "scan_mix", "virtual busy time summed over chips"},
    {"flash.channel_busy_vs", "s", "lower", Group::kPerLayer, "flash",
     "slo_qps_v", "scan_mix", "virtual busy time summed over channels"},
    {"flash.page_read_p99_vs", "s", "lower", Group::kPerLayer, "flash",
     "query_p99_vs", "ingest_scan", "p99 of flash.page_read_ns"},
    // --- ftl -----------------------------------------------------------
    {"ftl.gc_runs", "count", "lower", Group::kPerLayer, "ftl",
     "ingest_p99_vs", "ingest_scan", "garbage collections"},
    {"ftl.gc_relocations", "count", "lower", Group::kPerLayer, "ftl",
     "ingest_p99_vs", "ingest_scan", "pages moved by GC"},
    {"ftl.gc_pause_p99_vs", "s", "lower", Group::kPerLayer, "ftl",
     "query_p99_vs", "ingest_scan", "p99 of ftl.gc_pause_ns"},
    // --- ssd -----------------------------------------------------------
    {"ssd.dram_bus_busy_vs", "s", "lower", Group::kPerLayer, "ssd",
     "slo_qps_v", "scan_mix", "virtual DRAM/DMA bus busy time"},
    {"ssd.host_link_busy_vs", "s", "lower", Group::kPerLayer, "ssd",
     "query_p50_vs", "scan_mix", "virtual host-link busy time"},
    {"ssd.host_link_bytes_per_query", "B", "lower", Group::kPerLayer, "ssd",
     "query_p50_vs", "scan_mix", "bytes over the host link per query"},
    // --- smart ---------------------------------------------------------
    {"smart.embedded_cpu_busy_vs", "s", "lower", Group::kPerLayer, "smart",
     "slo_qps_v", "scan_mix", "virtual embedded-core busy time"},
    {"smart.sessions", "count", "lower", Group::kPerLayer, "smart",
     "query_p50_vs", "scan_mix", "queries or subqueries run as sessions"},
    {"smart.gets_per_session", "count", "lower", Group::kPerLayer, "smart",
     "query_p50_vs", "scan_mix", "GET commands per session"},
    {"smart.get_retries", "count", "lower", Group::kPerLayer, "smart",
     "query_p99_vs", "fleet_scatter", "stalled GETs re-issued"},
    // --- exec ----------------------------------------------------------
    {"exec.pages_skipped_ratio", "ratio", "higher", Group::kPerLayer, "exec",
     "query_p50_vs", "scan_mix",
     "zone-map pruned pages / (pruned + read pages)"},
    {"exec.join_spill_pages", "count", "lower", Group::kPerLayer, "exec",
     "query_p99_vs", "scan_mix", "hybrid-join spill pages written"},
    {"exec.join_passes", "count", "lower", Group::kPerLayer, "exec",
     "query_p99_vs", "scan_mix", "passes summed over spilled joins"},
    // --- engine --------------------------------------------------------
    {"engine.host_cpu_busy_vs", "s", "lower", Group::kPerLayer, "engine",
     "query_p50_vs", "scan_mix", "virtual host-core busy time"},
    {"engine.bufferpool_hit_ratio", "ratio", "higher", Group::kPerLayer,
     "engine", "query_p50_vs", "fleet_scatter vs scan_mix",
     "buffer-pool hits / (hits + misses)"},
    {"engine.bufferpool_evictions", "count", "lower", Group::kPerLayer,
     "engine", "query_p50_vs", "fleet_scatter vs scan_mix",
     "buffer-pool evictions"},
    {"engine.device_share", "ratio", "higher", Group::kPerLayer, "engine",
     "slo_qps_v", "scan_mix", "queries (or subqueries) run on the device"},
    {"engine.split_share", "ratio", "higher", Group::kPerLayer, "engine",
     "slo_qps_v", "scan_mix", "queries run as split scans"},
    {"engine.queue_wait_p99_vs", "s", "lower", Group::kPerLayer, "engine",
     "query_p99_vs", "scan_mix", "p99 admission-queue wait"},
    {"engine.fallbacks", "count", "lower", Group::kPerLayer, "engine",
     "query_p99_vs", "fleet_scatter", "device sessions re-run on the host"},
    {"engine.fleet_hedges", "count", "lower", Group::kPerLayer, "engine",
     "query_p99_vs", "fleet_scatter", "hedged subqueries launched"},
    {"engine.fleet_hedge_win_ratio", "ratio", "higher", Group::kPerLayer,
     "engine", "query_p99_vs", "fleet_scatter", "hedge wins / launches"},
    {"engine.fleet_redispatches", "count", "lower", Group::kPerLayer,
     "engine", "query_p99_vs", "fleet_scatter",
     "breaker-open partitions sent straight to the host"},
    {"engine.fleet_subquery_p99_vs", "s", "lower", Group::kPerLayer,
     "engine", "query_p99_vs", "fleet_scatter", "p99 subquery latency"},
    // --- wall clock, spans around public calls -------------------------
    {"wall.ssd.device_init_s", "s", "lower", Group::kPerLayer, "ssd",
     "setup_s", "fleet_scatter", "constructing Database / Fleet"},
    {"wall.storage.load_s", "s", "lower", Group::kPerLayer, "storage",
     "setup_s", "all", "table generation and load"},
    {"wall.storage.zonemap_build_s", "s", "lower", Group::kPerLayer,
     "storage", "setup_s", "scan_mix", "zone-map build"},
    {"wall.engine.run_s", "s", "lower", Group::kPerLayer, "engine", "wall_s",
     "all", "scheduler/coordinator Run (holds the sim event queue)"},
    {"wall.engine.reset_s", "s", "lower", Group::kPerLayer, "engine",
     "wall_s", "scan_mix", "ResetForColdRun"},
    {"wall.engine.flush_s", "s", "lower", Group::kPerLayer, "engine",
     "wall_s", "ingest_scan", "Database::FlushAll"},
    {"wall.engine.teardown_s", "s", "lower", Group::kPerLayer, "engine", "-",
     "all", "destroying Database / Fleet"},
    // --- wall clock, per-layer replay ----------------------------------
    {"wall.exec.kernel_ns_per_page", "ns", "lower", Group::kPerLayer, "exec",
     "wall_s", "scan_mix", "PageProcessor::ProcessPage + Finish"},
    {"wall.ssd.read_ns_per_page", "ns", "lower", Group::kPerLayer, "ssd",
     "wall_s", "scan_mix, ingest_scan", "SsdDevice::ReadPages"},
    {"wall.ssd.write_ns_per_page", "ns", "lower", Group::kPerLayer, "ssd",
     "wall_s", "ingest_scan", "SsdDevice::WritePages on a fresh device"},
    {"wall.engine.merge_ns_per_partial", "ns", "lower", Group::kPerLayer,
     "engine", "wall_s", "fleet_scatter", "MergePartialResults"},
    {"wall.engine.executor_ms_per_query", "ms", "lower", Group::kPerLayer,
     "engine", "wall_s", "scan_mix", "solo cold QueryExecutor::Execute"},
    // --- obs -----------------------------------------------------------
    {"obs.trace_overhead_ratio", "ratio", "lower", Group::kPerLayer, "obs",
     "wall_s", "all",
     "traced / untraced wall time of the same measured window"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_TABLE_H_
