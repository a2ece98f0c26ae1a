// csfma repo benchmark program.  perfbench/run.py builds and runs it; see
// perfbench/README.md for the workloads and metrics.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage or reference-file error (nothing measured).
#include <cstdio>

#include "bench.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string err;
  const auto opts =
      parse_args(std::vector<std::string>(argv + 1, argv + argc), &err);
  if (!opts) {
    std::fprintf(stderr, "csfma_perfbench: %s\n%s", err.c_str(),
                 usage().c_str());
    return 2;
  }
  References refs;
  if (!opts->record && !refs.load(PERFBENCH_REFERENCES, &err)) {
    std::fprintf(stderr, "csfma_perfbench: %s\n", err.c_str());
    return 2;
  }
  Run run(*opts, opts->record ? std::map<std::string, std::string>{}
                              : refs.entries(opts->workload, opts->seed));
  run_workload(run);
  run.print();
  return run.correct() ? 0 : 1;
}
