// The benchmark harness: runs one workload and prints one JSON line with its
// metrics, operation counts, digest and correctness verdict. run.py builds
// and drives it; see perfbench/README.md.
//
//   perfbench --workload plan_cold|serve_replay|serve_mixed --seed N
//             --seconds S --trace 0|1 [--scratch DIR]

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "runs.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  perfbench::Report report;
  if (workload == "plan_cold") {
    report = perfbench::RunPlanCold(options);
  } else if (workload == "serve_replay" || workload == "serve_mixed") {
    report = perfbench::RunServe(options, workload == "serve_mixed");
  } else {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }
  std::cout << report.ToJson() << std::endl;
  return report.errors.empty() ? 0 : 1;
}
