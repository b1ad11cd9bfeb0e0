// The benchmark's workloads and the run that measures one of them.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Validated command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string results_dir;  // where the run record is written
  std::string work_dir;     // scratch for journals and WAL files (removed)
  std::string revision;     // source revision recorded as provenance
};

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Runs one workload and prints its result line last on stdout. Returns the
/// process exit code: 0 when every correctness check passed, 1 otherwise.
int RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
