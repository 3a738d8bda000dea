// Accumulates what the measured phase observes from outside the engine
// (completion records, per-query stats, stage snapshots, registry
// instruments) and turns it into the benchmark's named metrics.

#ifndef PERFBENCH_TALLY_H_
#define PERFBENCH_TALLY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_core.h"
#include "check/result_compare.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "obs/metrics.h"

namespace perfbench {

struct Tally {
  std::vector<SimDuration> latencies;        // completed queries
  std::vector<SimDuration> queue_waits;      // completed queries
  std::vector<SimDuration> ingest_latencies;  // completed ingest batches
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SimTime first_arrival = std::numeric_limits<SimTime>::max();
  SimTime last_end = 0;

  // Per-query stats, summed over every completed query (and every
  // partition of a fleet query, each of which is one unit).
  std::uint64_t units = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_retries = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_skipped = 0;
  std::uint64_t spill_pages = 0;
  std::uint64_t join_passes = 0;
  std::uint64_t host_link_bytes = 0;
  std::uint64_t device_queries = 0;  // units run as pushdown sessions
  std::uint64_t split_queries = 0;
  std::uint64_t fallbacks = 0;
  smartssd::engine::StageBreakdown stage;

  // Registry instruments, summed over databases (histogram p99s take the
  // largest per-database value).
  std::uint64_t flash_page_reads = 0;
  std::uint64_t flash_ecc_retries = 0;
  double flash_page_read_p99_ns = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_relocations = 0;
  double gc_pause_p99_ns = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_evictions = 0;

  // One completed query (a fleet query counts once).
  void AddQuery(SimTime arrival, SimTime admitted, SimTime end);
  // One query's own stats (a fleet query passes each partition's).
  void AddStats(const smartssd::engine::QueryStats& stats);
  void AddStage(const smartssd::engine::StageBreakdown& delta);
  // Reads one database's registry after the measured phase (the workload
  // zeroes it with ResetAll before the phase starts).
  void AddRegistry(const smartssd::obs::MetricsRegistry& registry);

  // Fills every metric the workloads share. Workload-specific metrics
  // default to 0 here and are overwritten by the workload that has them.
  void Finish(Outcome* outcome) const;
};

// Fails the run when `actual` differs from the reference output.
void ExpectSame(const smartssd::check::ExecutionOutput& expected,
                const smartssd::check::ExecutionOutput& actual,
                const std::string& what);

// FNV-1a over a sequence of integers: the arrival-trace digest.
inline std::uint64_t Digest(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
inline constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ull;

}  // namespace perfbench

#endif  // PERFBENCH_TALLY_H_
