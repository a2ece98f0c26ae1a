// Microbenchmarks (google-benchmark): throughput of the bit-accurate unit
// simulators themselves.  Not a paper experiment — a health check that the
// simulation is fast enough for the statistical benches.
//
// All unit loops go through the unified FmaUnit interface and the batch
// driver: per-op IEEE-boundary timing via fma_ieee, chained native-format
// timing via lift/fma/lower (the Sec. IV-B wiring), and whole-batch
// RandomTripleSource runs through SimEngine with telemetry attached — the
// same paths every statistical experiment uses, so regressions here are
// regressions everywhere.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "engine/sim_engine.hpp"
#include "harness.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace csfma;

std::vector<OperandTriple> triples(std::uint64_t n, std::uint64_t seed) {
  RandomTripleSource src(seed, n);
  std::vector<OperandTriple> v((std::size_t)n);
  src.fill(0, v.data(), v.size());
  return v;
}

/// Software-FMA baseline: the correctly rounded PFloat op every unit
/// simulator builds on.
void BM_SoftFloatFma(benchmark::State& state) {
  auto ops = triples(256, 1);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    PFloat r = PFloat::fma(t.a, t.b, t.c, kBinary64, Round::NearestEven);
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK(BM_SoftFloatFma);

/// One multiply-add per iteration with IEEE 754 boundaries (convert in,
/// run the unit, convert out) — the engine's per-op hot path.
void BM_FmaIeee(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 2);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    PFloat r = unit->fma_ieee(t.a, t.b, t.c, Round::NearestEven);
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_FmaIeee, discrete, UnitKind::Discrete);
BENCHMARK_CAPTURE(BM_FmaIeee, classic, UnitKind::Classic);
BENCHMARK_CAPTURE(BM_FmaIeee, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_FmaIeee, fcs, UnitKind::Fcs);

/// Chained native-format accumulation: operands stay in the unit's
/// inter-operation format (carry-save for PCS/FCS), with one deferred
/// lower() per 64-op chain — the paper's recurrence wiring.
void BM_FmaChained(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 3);
  FmaOperand acc = unit->lift(ops[0].a);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    acc = unit->fma(acc, t.b, unit->lift(t.c));
    if (++i % 64 == 0) {
      PFloat out = unit->lower(acc, Round::HalfAwayFromZero);
      benchmark::DoNotOptimize(out);
      acc = unit->lift(ops[i % 256].a);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_FmaChained, classic, UnitKind::Classic);
BENCHMARK_CAPTURE(BM_FmaChained, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_FmaChained, fcs, UnitKind::Fcs);

/// Whole-batch runs through the engine with telemetry ON: measures the
/// full production path (shard claim + fill + simulate + activity merge +
/// metrics) at single-worker granularity.
void BM_EngineBatch(benchmark::State& state, UnitKind kind) {
  const std::uint64_t n = (std::uint64_t)state.range(0);
  RandomTripleSource src(4, n);
  MetricsRegistry metrics;
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = 1;
  cfg.shard_ops = 1024;
  cfg.metrics = &metrics;
  SimEngine engine(cfg);
  for (auto _ : state) {
    BatchResult r = engine.run_batch(src);
    benchmark::DoNotOptimize(r.results.data());
  }
  state.SetItemsProcessed((int64_t)(state.iterations() * (int64_t)n));
}
BENCHMARK_CAPTURE(BM_EngineBatch, pcs, UnitKind::Pcs)->Arg(4096);
BENCHMARK_CAPTURE(BM_EngineBatch, fcs, UnitKind::Fcs)->Arg(4096);

/// Format conversion costs (chain entry/exit).
void BM_LiftLower(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        unit->lower(unit->lift(ops[i % 256].a), Round::HalfAwayFromZero));
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_LiftLower, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_LiftLower, fcs, UnitKind::Fcs);

/// Harness-measured mirrors of the gbench hot paths: fixed-iteration
/// phases whose median/MAD land in BENCH_micro_units.json so
/// scripts/bench_compare.py can gate per-unit fma() throughput.  (gbench's
/// own adaptive-iteration numbers stay on stdout for humans.)
void run_harness_phases(BenchHarness& harness) {
  constexpr std::uint64_t kIters = 1 << 15;
  auto ops = triples(256, 2);

  const struct {
    const char* label;
    UnitKind kind;
  } kUnits[] = {
      {"discrete", UnitKind::Discrete},
      {"classic", UnitKind::Classic},
      {"pcs", UnitKind::Pcs},
      {"fcs", UnitKind::Fcs},
  };
  for (const auto& u : kUnits) {
    auto unit = make_fma_unit(u.kind);
    harness.measure(
        std::string("fma_ieee.") + u.label,
        [&] {
          for (std::uint64_t i = 0; i < kIters; ++i) {
            const OperandTriple& t = ops[i % 256];
            PFloat r = unit->fma_ieee(t.a, t.b, t.c, Round::NearestEven);
            benchmark::DoNotOptimize(r);
          }
        },
        kIters);
  }
  for (UnitKind kind : {UnitKind::Pcs, UnitKind::Fcs}) {
    auto unit = make_fma_unit(kind);
    const char* label = kind == UnitKind::Pcs ? "chained.pcs" : "chained.fcs";
    harness.measure(
        label,
        [&] {
          FmaOperand acc = unit->lift(ops[0].a);
          for (std::uint64_t i = 1; i <= kIters; ++i) {
            const OperandTriple& t = ops[i % 256];
            acc = unit->fma(acc, t.b, unit->lift(t.c));
            if (i % 64 == 0) {
              PFloat out = unit->lower(acc, Round::HalfAwayFromZero);
              benchmark::DoNotOptimize(out);
              acc = unit->lift(ops[i % 256].a);
            }
          }
          benchmark::DoNotOptimize(acc);
        },
        kIters);
  }
  {
    // Full engine path with the profiler attached: the engine.fill /
    // engine.simulate / engine.merge scopes land in the baseline too.
    const std::uint64_t n = 4096;
    RandomTripleSource src(4, n);
    MetricsRegistry metrics;
    EngineConfig cfg;
    cfg.unit = UnitKind::Pcs;
    cfg.threads = 1;
    cfg.shard_ops = 1024;
    cfg.metrics = &metrics;
    harness.configure_engine(cfg);
    SimEngine engine(cfg);
    harness.measure(
        "engine_batch.pcs",
        [&] {
          BatchResult r = engine.run_batch(src);
          benchmark::DoNotOptimize(r.results.data());
        },
        n);
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): check the argv google-benchmark
// is handed, run the harness phases (writing the host-perf baseline), then
// the google-benchmark suite.
int main(int argc, char** argv) {
  HarnessOptions hopts = extract_harness_args(argc, argv);
  // google-benchmark takes its --benchmark_* flags; any other leftover is
  // unknown and exits 2 before a phase runs.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  BenchHarness harness("micro_units", hopts);
  run_harness_phases(harness);
  const std::string baseline = harness.write_baseline();
  if (!baseline.empty())
    std::printf("harness baseline written to %s\n", baseline.c_str());

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
