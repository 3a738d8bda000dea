// Wall-clock replays of single layers: after the measured phase, the
// benchmark feeds the run's own tables and query shapes to each layer's
// public call in isolation and reports the wall time per unit of work.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "exec/query_spec.h"
#include "ssd/ssd_config.h"

namespace perfbench {

// exec::PageProcessor::ProcessPage + Finish over every page of the
// spec's table (pages are read into memory first, untimed).
double ReplayKernelNsPerPage(smartssd::engine::Database& db,
                             const smartssd::exec::QuerySpec& spec);

// SsdDevice::ReadPages over the table's extent in 32-page commands.
double ReplayReadNsPerPage(smartssd::engine::Database& db,
                           const std::string& table);

// SsdDevice::WritePages on a fresh device of `config`'s geometry.
double ReplayWriteNsPerPage(const smartssd::ssd::SsdConfig& config);

// engine::MergePartialResults over one host-path result of `spec` per
// database in `partitions` (a database may be listed more than once).
double ReplayMergeNsPerPartial(
    const std::vector<smartssd::engine::Database*>& partitions,
    const smartssd::exec::QuerySpec& spec);

// Solo cold QueryExecutor::Execute, median over a few repetitions.
double ReplayExecutorMsPerQuery(smartssd::engine::Database& db,
                                const smartssd::exec::QuerySpec& spec,
                                smartssd::engine::ExecutionTarget target);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
