// The repository benchmark. One single-threaded process runs one
// workload for about --seconds of wall time:
//
//   perfbench --workload <scan_mix|ingest_scan|fleet_scatter>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --list
//
// Each round sets the workload up on fresh devices, runs its measured
// phase and tears it down; rounds repeat until the time is used, and
// wall-clock figures are medians over rounds. Virtual-time figures come
// from the first round, and every later round must reproduce them
// byte for byte. The last line of standard output is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "bench_core.h"
#include "metrics_table.h"
#include "obs/chrome_trace.h"

namespace perfbench {
namespace {

// Set-up/teardown cycles repeat until this much wall time has passed
// (and at least kMinSetups ran); setup_s is their median.
constexpr double kSetupBudgetS = 1.0;
constexpr int kMinSetups = 5;
constexpr int kTraceWindowPairs = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool list = false;
  std::string out = ".bench_out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <scan_mix|"
               "ingest_scan|fleet_scatter> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n       perfbench --list\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args.list = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name, std::uint64_t seed) {
  if (name == "scan_mix") return MakeScanMix(seed);
  if (name == "ingest_scan") return MakeIngestScan(seed);
  if (name == "fleet_scatter") return MakeFleetScatter(seed);
  Usage(("unknown workload '" + name + "'").c_str());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The virtual-time metrics and counts of one outcome, printed exactly:
// the determinism check compares these strings.
std::string Fingerprint(const Outcome& o) {
  std::string s = "{";
  for (const auto& [name, value] : o.metrics) {
    s += "\"" + name + "\":" + Exact(value) + ",";
  }
  s += "\"attempted\":" + std::to_string(o.attempted) +
       ",\"failed\":" + std::to_string(o.failed) +
       ",\"arrival_digest\":" + std::to_string(o.arrival_digest) + "}";
  return s;
}

void ListMetrics() {
  std::printf("%-34s %-6s %-6s %-10s %-8s %-15s %-26s %s\n", "name", "unit",
              "better", "group", "layer", "moves", "workload", "definition");
  for (const MetricDef& m : kMetrics) {
    std::printf("%-34s %-6s %-6s %-10s %-8s %-15s %-26s %s\n", m.name,
                m.unit, m.better,
                m.group == Group::kEndToEnd ? "end_to_end" : "per_layer",
                m.layer, m.moves, m.workload, m.definition);
  }
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) Fail("cannot write " + path.string());
}

struct Rounds {
  std::map<std::string, std::vector<double>> span_s;  // per wall span name
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  Outcome first;
};

// Wall spans of set-up and teardown, and of the measured phase; the
// measured ones add up to wall_s.
constexpr const char* kSetupSpans[] = {
    "wall.ssd.device_init", "wall.storage.load", "wall.storage.zonemap_build",
    "wall.engine.teardown"};
constexpr const char* kMeasuredSpans[] = {
    "wall.engine.run", "wall.engine.reset", "wall.engine.flush"};

double MeasuredWall(const SpanRecorder& spans, int run) {
  double total = 0;
  for (const char* name : kMeasuredSpans) total += spans.Total(name, run);
  return total;
}

// First back-to-back set-up/teardown cycles for kSetupBudgetS, which
// alone give setup_s (set-ups that follow a measured phase start from
// other cache state); then measured rounds until `seconds` have passed,
// at least one.
Rounds RunRounds(Workload& w, SpanRecorder& spans, double seconds) {
  Rounds rounds;
  int run = 0;
  const double setup_deadline = WallNow() + kSetupBudgetS;
  for (; run < kMinSetups || WallNow() < setup_deadline; ++run) {
    spans.set_run(run);
    w.Setup(&spans);
    w.Teardown(&spans);
    rounds.setup_s.push_back(spans.Total("setup", run));
    for (const char* name : kSetupSpans) {
      rounds.span_s[name].push_back(spans.Total(name, run));
    }
  }
  const double deadline = WallNow() + seconds;
  std::vector<double> round_s;
  std::string fingerprint;
  for (;; ++run) {
    const double round_start = WallNow();
    spans.set_run(run);
    w.Setup(&spans);
    const Outcome o = w.Measure(&spans, /*window=*/false, nullptr);
    w.Teardown(&spans);
    if (rounds.wall_s.empty()) {
      rounds.first = o;
      fingerprint = Fingerprint(o);
    } else if (Fingerprint(o) != fingerprint) {
      Fail("virtual-time metrics differ between rounds of one seed:\n" +
           fingerprint + "\n" + Fingerprint(o));
    }
    rounds.wall_s.push_back(MeasuredWall(spans, run));
    for (const char* name : kMeasuredSpans) {
      rounds.span_s[name].push_back(spans.Total(name, run));
    }
    round_s.push_back(WallNow() - round_start);
    if (WallNow() + Median(round_s) > deadline) break;
  }
  return rounds;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list) {
    ListMetrics();
    return 0;
  }
  if (args.workload.empty()) Usage("--workload is required");
  std::unique_ptr<Workload> w = Make(args.workload, args.seed);
  w->BuildReference();

  SpanRecorder spans;
  const Rounds rounds = RunRounds(*w, spans, args.seconds);
  const Outcome& o = rounds.first;

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = Median(rounds.setup_s);
    values["wall_s"] = Median(rounds.wall_s);
    values["peak_rss_mb"] = PeakRssMiB();
    for (const char* name : {"query_p50_vs", "query_p99_vs",
                             "achieved_qps_v"}) {
      values[name] = o.metrics.at(name);
    }
  } else {
    for (const MetricDef& m : kMetrics) {
      if (m.group == Group::kPerLayer && o.metrics.count(m.name) > 0) {
        values[m.name] = o.metrics.at(m.name);
      }
    }
    for (const auto& [name, samples] : rounds.span_s) {
      values[name + "_s"] = Median(samples);
    }

    // The rate ladder and the per-layer replay on a fresh instance
    // (spans of run -1 are not part of any round).
    spans.set_run(-1);
    w->Setup(&spans);
    values["slo_qps_v"] = w->SloQps(&spans);
    const ReplayResult r = w->Replay();
    w->Teardown(&spans);
    values["wall.exec.kernel_ns_per_page"] = r.kernel_ns_per_page;
    values["wall.ssd.read_ns_per_page"] = r.read_ns_per_page;
    values["wall.ssd.write_ns_per_page"] = r.write_ns_per_page;
    values["wall.engine.merge_ns_per_partial"] = r.merge_ns_per_partial;
    values["wall.engine.executor_ms_per_query"] = r.executor_ms_per_query;

    // Tracing overhead: the measured phase's first part, untraced and
    // traced in alternation; both must produce the same virtual figures.
    std::vector<double> plain_s, traced_s;
    smartssd::obs::Tracer tracer;
    std::string window_fingerprint, registry_json;
    for (int pair = 0; pair < kTraceWindowPairs; ++pair) {
      for (const bool traced : {false, true}) {
        const int run = -2 - pair * 2 - (traced ? 1 : 0);
        spans.set_run(run);
        w->Setup(&spans);
        if (traced) tracer.Clear();
        const Outcome wo =
            w->Measure(&spans, /*window=*/true, traced ? &tracer : nullptr);
        (traced ? traced_s : plain_s).push_back(MeasuredWall(spans, run));
        if (traced) registry_json = w->MetricsJson();
        w->Teardown(&spans);
        if (window_fingerprint.empty()) {
          window_fingerprint = Fingerprint(wo);
        } else if (Fingerprint(wo) != window_fingerprint) {
          Fail("tracing changed the virtual-time figures of the window");
        }
      }
    }
    values["obs.trace_overhead_ratio"] = Median(traced_s) / Median(plain_s);

    const std::filesystem::path dir =
        std::filesystem::path(args.out) / args.workload;
    std::filesystem::create_directories(dir);
    Check(smartssd::obs::WriteChromeTrace(
              tracer, (dir / "virtual_trace.json").string()),
          "write virtual trace");
    WriteFile(dir / "wall_spans.json", spans.ToJson());
    WriteFile(dir / "metrics_registry.json", registry_json);
  }

  // Every metric of this run's group must be present, and nothing else.
  const Group group = args.trace ? Group::kPerLayer : Group::kEndToEnd;
  std::set<std::string> expected;
  for (const MetricDef& m : kMetrics) {
    if (m.group == group) expected.insert(m.name);
  }
  for (const auto& [name, value] : values) {
    if (expected.erase(name) == 0) Fail("emitted unlisted metric " + name);
  }
  if (!expected.empty()) Fail("metric not emitted: " + *expected.begin());

  std::printf("workload %s seed %llu: %zu measured rounds, %zu set-ups\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              rounds.wall_s.size(), rounds.setup_s.size());
  std::printf("%-34s %16s %-6s %s\n", "metric", "value", "unit", "better");
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    const auto it = values.find(m.name);
    if (it == values.end()) continue;
    std::printf("%-34s %16.6g %-6s %s\n", m.name, it->second, m.unit,
                m.better);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Exact(it->second) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("virtual %s\n", Fingerprint(o).c_str());
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
