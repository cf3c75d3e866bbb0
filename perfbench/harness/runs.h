#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;  // length of the measurement window
  bool trace = false;   // per-layer run: spans on, end-to-end numbers off
  std::string scratch_dir = ".";  // where the serve workloads put the socket
};

/// The three workloads (see perfbench/README.md for why each exists).
Report RunPlanCold(const RunOptions& options);
Report RunServe(const RunOptions& options, bool mixed);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
