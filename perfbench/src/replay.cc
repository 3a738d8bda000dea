#include "replay.h"

#include <algorithm>
#include <span>
#include <vector>

#include "bench_core.h"
#include "engine/partial_merge.h"
#include "exec/page_processor.h"
#include "ssd/ssd_device.h"

namespace perfbench {

namespace engine = smartssd::engine;
namespace exec = smartssd::exec;

namespace {

constexpr int kReps = 5;
constexpr std::uint32_t kCommandPages = 32;

const smartssd::storage::TableInfo& Table(engine::Database& db,
                                          const std::string& name) {
  return *Unwrap(db.catalog().GetTable(name), "replay table " + name);
}

}  // namespace

double ReplayKernelNsPerPage(engine::Database& db,
                             const exec::QuerySpec& spec) {
  const auto& info = Table(db, spec.table);
  const std::uint32_t page_size = db.device().page_size();
  std::vector<std::byte> pages(info.page_count * page_size);
  Check(db.device()
            .ReadPages(info.first_lpn,
                       static_cast<std::uint32_t>(info.page_count), pages, 0)
            .status(),
        "replay kernel read");
  const exec::BoundQuery bound =
      Unwrap(exec::Bind(spec, db.catalog()), "replay bind");
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    exec::PageProcessor processor(&bound, nullptr, db.options().kernel);
    exec::OpCounts counts;
    std::vector<std::byte> out;
    const double t0 = WallNow();
    for (std::uint64_t p = 0; p < info.page_count; ++p) {
      Check(processor.ProcessPage(
                std::span<const std::byte>(pages).subspan(p * page_size,
                                                          page_size),
                p, &counts, &out),
            "replay kernel page");
    }
    Check(processor.Finish(&counts, &out), "replay kernel finish");
    samples.push_back((WallNow() - t0) * 1e9 /
                      static_cast<double>(info.page_count));
  }
  return Median(samples);
}

double ReplayReadNsPerPage(engine::Database& db, const std::string& table) {
  const auto& info = Table(db, table);
  smartssd::ssd::SsdDevice* ssd = db.ssd();
  if (ssd == nullptr) Fail("replay read needs an SSD-backed database");
  std::vector<std::byte> buffer(kCommandPages * ssd->page_size());
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = WallNow();
    for (std::uint64_t p = 0; p < info.page_count; p += kCommandPages) {
      const auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kCommandPages, info.page_count - p));
      Check(ssd->ReadPages(info.first_lpn + p, count, buffer, 0).status(),
            "replay read");
    }
    samples.push_back((WallNow() - t0) * 1e9 /
                      static_cast<double>(info.page_count));
  }
  db.ResetForColdRun();
  return Median(samples);
}

double ReplayWriteNsPerPage(const smartssd::ssd::SsdConfig& config) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    smartssd::ssd::SsdDevice device(config);
    const std::uint64_t pages =
        std::min<std::uint64_t>(device.num_pages() / 2, 4096);
    std::vector<std::byte> data(kCommandPages * device.page_size(),
                                std::byte{0x5A});
    const double t0 = WallNow();
    for (std::uint64_t p = 0; p + kCommandPages <= pages;
         p += kCommandPages) {
      Check(device.WritePages(p, kCommandPages, data, 0).status(),
            "replay write");
    }
    samples.push_back((WallNow() - t0) * 1e9 /
                      static_cast<double>(pages / kCommandPages *
                                          kCommandPages));
  }
  return Median(samples);
}

double ReplayMergeNsPerPartial(
    const std::vector<engine::Database*>& partitions,
    const exec::QuerySpec& spec) {
  std::vector<engine::QueryResult> results;
  for (engine::Database* db : partitions) {
    db->ResetForColdRun();
    engine::QueryExecutor executor(db);
    results.push_back(Unwrap(
        executor.Execute(spec, engine::ExecutionTarget::kHost), "replay"));
  }
  std::vector<const engine::QueryResult*> partials;
  for (const engine::QueryResult& r : results) partials.push_back(&r);
  constexpr int kMerges = 2000;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = WallNow();
    for (int i = 0; i < kMerges; ++i) {
      engine::MergePartialResults(spec, partials.front()->output_schema,
                                  partials);
    }
    samples.push_back((WallNow() - t0) * 1e9 /
                      (static_cast<double>(kMerges) *
                       static_cast<double>(partials.size())));
  }
  return Median(samples);
}

double ReplayExecutorMsPerQuery(engine::Database& db,
                                const exec::QuerySpec& spec,
                                engine::ExecutionTarget target) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    db.ResetForColdRun();
    engine::QueryExecutor executor(&db);
    const double t0 = WallNow();
    Check(executor.Execute(spec, target).status(), "replay executor");
    samples.push_back((WallNow() - t0) * 1e3);
  }
  db.ResetForColdRun();
  return Median(samples);
}

}  // namespace perfbench
