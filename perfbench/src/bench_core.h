// Shared pieces of the repository benchmark: seeded input draws, the
// tail-percentile rule, wall-clock spans, and the interface each
// workload implements.

#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/trace.h"

namespace perfbench {

using smartssd::Random;
using smartssd::SimDuration;
using smartssd::SimTime;

// --- Seeded inputs ----------------------------------------------------
// Every generated input is a pure function of (seed, stream, index):
// the same seed replays the same arrivals, literals and fault triggers,
// and no draw depends on how many draws came before it.

inline std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline Random Draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) {
  return Random(SplitMix(seed ^ SplitMix(stream ^ SplitMix(index))));
}

// A unit-mean exponential draw: Poisson inter-arrival gaps at rate r
// are UnitExponential / r.
double UnitExponential(Random& rng);

// --- Percentiles ------------------------------------------------------

// The reported tail percentile. A workload must complete at least
// kTailSamples operations so that ten samples lie beyond it.
inline constexpr double kTailQuantile = 0.99;
inline constexpr std::size_t kTailSamples = 1000;

// Nearest-rank percentile of `values` in virtual seconds; 0 if empty.
double PercentileSeconds(std::vector<SimDuration> values, double q);

// Median of wall-clock samples (the mean of the middle two for an even
// count); 0 if empty.
double Median(std::vector<double> values);

// --- Failures ---------------------------------------------------------

// A wrong result or an engine-level error aborts the run: no result
// line is printed and the exit code is non-zero.
[[noreturn]] void Fail(const std::string& what);
void Check(const smartssd::Status& status, const std::string& what);

template <typename T>
T Unwrap(smartssd::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// --- Wall-clock spans -------------------------------------------------

double WallNow();  // steady clock, seconds

// One wall-clock span around a call into the engine's public API.
struct WallSpan {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the recorder's spans, -1 at the root
  int run = 0;      // round of the run the span belongs to
};

// In-memory recorder for the benchmark's own wall-clock spans. Spans
// nest strictly (the benchmark is single-threaded), so the open-span stack
// supplies each span's parent.
class SpanRecorder {
 public:
  int Begin(const std::string& name);
  void End(int id);
  void set_run(int run) { run_ = run; }

  // Sum of the durations of spans named `name` in round `run`.
  double Total(const std::string& name, int run) const;
  std::string ToJson() const;

 private:
  std::vector<WallSpan> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

// RAII span: opens on construction, closes on destruction.
class ScopedWall {
 public:
  ScopedWall(SpanRecorder* spans, const std::string& name)
      : spans_(spans), id_(spans->Begin(name)) {}
  ~ScopedWall() { spans_->End(id_); }
  ScopedWall(const ScopedWall&) = delete;
  ScopedWall& operator=(const ScopedWall&) = delete;

 private:
  SpanRecorder* spans_;
  int id_;
};

// --- Workloads --------------------------------------------------------

// What one measured phase produced. `metrics` holds every virtual-time
// metric and count; for a fixed seed it must be byte-identical across
// rounds, runs and traced/untraced passes.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;  // queries and ingest batches
  std::uint64_t failed = 0;     // ended in an error status
  std::uint64_t arrival_digest = 0;  // hash of the generated arrival trace
};

// Wall-clock per-layer replay results (trace runs only).
struct ReplayResult {
  double kernel_ns_per_page = 0;
  double read_ns_per_page = 0;
  double write_ns_per_page = 0;
  double merge_ns_per_partial = 0;
  double executor_ms_per_query = 0;
};

// One workload. main() calls BuildReference once, then rounds of
// Setup / Measure / Teardown; SloQps and Replay run on a set-up instance
// after the measured phase of a trace run.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Runs every distinct query solo on a quiet twin database (host path,
  // scalar kernel) and keeps the results the measured phase must equal.
  virtual void BuildReference() = 0;
  // Constructs devices, generates and loads tables, builds zone maps.
  virtual void Setup(SpanRecorder* spans) = 0;
  // The measured phase. `window` runs only its first part, 0.3 to 0.5 s
  // of wall time (the traced pass that prices tracing); `tracer`, when
  // set, is attached after load. Checks every result against the
  // reference.
  virtual Outcome Measure(SpanRecorder* spans, bool window,
                          smartssd::obs::Tracer* tracer) = 0;
  // slo_qps_v: the offered-rate ladder, run once in trace runs on a
  // set-up instance (which it may tear down and set up again). 0 for
  // workloads without one.
  virtual double SloQps(SpanRecorder* /*spans*/) { return 0; }
  // Replays the run's tables and query shapes against each layer's
  // public calls and times them.
  virtual ReplayResult Replay() = 0;
  // Registry export of the set-up instance after Measure (written with
  // the trace).
  virtual std::string MetricsJson() const = 0;
  virtual void Teardown(SpanRecorder* spans) = 0;
};

std::unique_ptr<Workload> MakeScanMix(std::uint64_t seed);
std::unique_ptr<Workload> MakeIngestScan(std::uint64_t seed);
std::unique_ptr<Workload> MakeFleetScatter(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
