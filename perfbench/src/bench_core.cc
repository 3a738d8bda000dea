#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_core.h"

namespace perfbench {

double UnitExponential(Random& rng) {
  return -std::log1p(-rng.NextDouble());  // NextDouble is in [0, 1)
}

double PercentileSeconds(std::vector<SimDuration> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return smartssd::ToSeconds(values[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  std::exit(1);
}

void Check(const smartssd::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  WallSpan span;
  span.name = name;
  span.start = WallNow();
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (open_.empty() || open_.back() != id) Fail("unbalanced wall span");
  spans_[static_cast<std::size_t>(id)].end = WallNow();
  open_.pop_back();
}

double SpanRecorder::Total(const std::string& name, int run) const {
  double total = 0;
  for (const WallSpan& span : spans_) {
    if (span.run == run && span.name == name) total += span.end - span.start;
  }
  return total;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "[";
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const WallSpan& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"run\":%d}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start - origin,
                  s.end - origin, s.parent, s.run);
    out += line;
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
