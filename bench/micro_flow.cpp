// Microbenchmarks of the HLS flow: kernel parsing, scheduling and the FMA
// insertion pass on the generated solver kernels.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "frontend/parser.hpp"
#include "harness.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace {

using namespace csfma;

const BenchmarkSolver& medium() {
  static BenchmarkSolver s = make_benchmark_solver("medium", 8);
  return s;
}

void BM_ParseLdlsolve(benchmark::State& state) {
  const std::string& src = medium().ldlsolve_src;
  for (auto _ : state) {
    KernelInfo k = parse_kernel(src);
    benchmark::DoNotOptimize(k.graph.num_nodes());
  }
}
BENCHMARK(BM_ParseLdlsolve);

void BM_ScheduleAsap(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_asap(k.graph, lib).length);
  }
}
BENCHMARK(BM_ScheduleAsap);

void BM_ScheduleList39Fma(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  Cdfg fused = k.graph;
  insert_fma_units(fused, lib, FmaStyle::Fcs);
  ResourceLimits lim;
  lim.fma = 39;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_list(fused, lib, lim).length);
  }
}
BENCHMARK(BM_ScheduleList39Fma);

void BM_FmaInsertion(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (auto _ : state) {
    Cdfg g = k.graph;
    FmaInsertStats st = insert_fma_units(g, lib, FmaStyle::Fcs);
    benchmark::DoNotOptimize(st.fma_inserted);
  }
}
BENCHMARK(BM_FmaInsertion);

void BM_GenerateSolver(benchmark::State& state) {
  for (auto _ : state) {
    BenchmarkSolver s = make_benchmark_solver("tmp", 8);
    benchmark::DoNotOptimize(s.ldlsolve_src.size());
  }
}
BENCHMARK(BM_GenerateSolver);

/// Harness-measured mirrors of the gbench hot paths (fixed iteration
/// counts) for the BENCH_micro_flow.json baseline.
void run_harness_phases(BenchHarness& harness) {
  constexpr std::uint64_t kIters = 64;
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  Cdfg fused = k.graph;
  insert_fma_units(fused, lib, FmaStyle::Fcs);
  ResourceLimits lim;
  lim.fma = 39;

  harness.measure(
      "parse",
      [&] {
        for (std::uint64_t i = 0; i < kIters; ++i) {
          KernelInfo ki = parse_kernel(medium().ldlsolve_src);
          benchmark::DoNotOptimize(ki.graph.num_nodes());
        }
      },
      kIters);
  harness.measure(
      "schedule_asap",
      [&] {
        for (std::uint64_t i = 0; i < kIters; ++i)
          benchmark::DoNotOptimize(schedule_asap(k.graph, lib).length);
      },
      kIters);
  harness.measure(
      "schedule_list_39fma",
      [&] {
        for (std::uint64_t i = 0; i < kIters; ++i)
          benchmark::DoNotOptimize(schedule_list(fused, lib, lim).length);
      },
      kIters);
  harness.measure(
      "fma_insertion",
      [&] {
        for (std::uint64_t i = 0; i < kIters; ++i) {
          Cdfg g = k.graph;
          FmaInsertStats st = insert_fma_units(g, lib, FmaStyle::Fcs);
          benchmark::DoNotOptimize(st.fma_inserted);
        }
      },
      kIters);
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): argv check, harness phases
// (host-perf baseline), then the google-benchmark suite.
int main(int argc, char** argv) {
  HarnessOptions hopts = extract_harness_args(argc, argv);
  // google-benchmark takes its --benchmark_* flags; any other leftover is
  // unknown and exits 2 before a phase runs.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  BenchHarness harness("micro_flow", hopts);
  run_harness_phases(harness);
  const std::string baseline = harness.write_baseline();
  if (!baseline.empty())
    std::printf("harness baseline written to %s\n", baseline.c_str());

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
