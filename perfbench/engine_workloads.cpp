// batch_ieee and chained_recurrence: request loops over SimEngine.
//
// A request is one engine run of one unit over one pooled input chunk.
// Each round runs, for every unit, the round's chunk at 1 worker and
// then at kMtWorkers workers.  The check pass before the timed loop runs
// every (unit, chunk) once at both worker counts; every later request must
// reproduce its digest exactly.
#include <deque>
#include <functional>

#include "bench.hpp"
#include "energy/workload.hpp"
#include "inputs.hpp"

namespace perfbench {

using csfma::BatchResult;
using csfma::EngineBackend;
using csfma::EngineConfig;
using csfma::SimEngine;

namespace {

constexpr int kUnits = 4;
constexpr int kChunks = 2;  // pooled input chunks per unit
constexpr int kMinRounds = 3;
// Requests keep the engine's default shard size (8192 ops), as
// bench/engine_throughput and the service's submits do.  A request of
// kRequestOps gives each of the kMtWorkers workers two shards.
constexpr std::uint64_t kRequestOps = 65536;

struct Sinks {
  csfma::HostProfiler* profiler = nullptr;
  csfma::MetricsRegistry* metrics = nullptr;
  csfma::TraceSession* trace = nullptr;
};

/// Runs unit `u` over chunk `k` on `threads` workers.
using EngineRunFn = std::function<BatchResult(
    int u, int k, int threads, EngineBackend backend, const Sinks& sinks)>;

EngineConfig engine_config(int u, int threads, EngineBackend backend,
                           const Sinks& sinks) {
  EngineConfig cfg;
  cfg.unit = csfma::kAllUnitKinds[u];
  cfg.threads = threads;
  cfg.backend = backend;
  cfg.profiler = sinks.profiler;
  cfg.metrics = sinks.metrics;
  cfg.trace = sinks.trace;
  return cfg;
}

std::string unit_name(int u) { return csfma::to_string(csfma::kAllUnitKinds[u]); }

void output_digest(Run& run, const std::string& prefix, const RunDigest& d) {
  run.output(prefix + ".results_fnv", hex16(d.results_fnv));
  run.output(prefix + ".toggles", std::to_string(d.toggles));
  run.output(prefix + ".stages_fnv", hex16(d.stages_fnv));
}

/// The shared check pass + timed loop.  `setup` repeats the workload's
/// set-up once per round.
/// Chained runs ignore the backend, so only batch runs are cross-checked
/// against the scalar oracle.
void drive(Run& run, const EngineRunFn& fn,
           const std::function<void()>& setup, bool chained) {
  const Options& o = run.options();

  // Check pass: reference digests, and 1 worker == kMtWorkers workers.
  RunDigest ref[kUnits][kChunks];
  for (int u = 0; u < kUnits; ++u) {
    for (int k = 0; k < kChunks; ++k) {
      const RunDigest d1 = digest_of(fn(u, k, 1, EngineBackend::Sliced, {}));
      const RunDigest dm =
          digest_of(fn(u, k, kMtWorkers, EngineBackend::Sliced, {}));
      const std::string prefix = unit_name(u) + ".chunk" + std::to_string(k);
      run.check(d1 == dm, prefix + ": 1-worker and " +
                              std::to_string(kMtWorkers) +
                              "-worker digests differ");
      output_digest(run, prefix, d1);
      ref[u][k] = d1;
    }
    if (!chained) {
      const RunDigest ds = digest_of(fn(u, 0, 1, EngineBackend::Scalar, {}));
      run.check(ds == ref[u][0],
                unit_name(u) + ".chunk0: scalar and sliced backends differ");
    }
  }

  RoundRates rates;
  ClassTimes classes;
  SetupSamples setups;
  HostSpeed host;
  Elapsed untraced, traced;
  std::uint64_t requests = 0, total_ops = 0, shards = 0, toggles = 0;
  const double t_start = now_s();
  for (int round = 0;; ++round) {
    // Traced runs stop on a whole plain/instrumented pair.
    if (round >= kMinRounds && now_s() - t_start >= o.seconds &&
        (!o.trace || round % 2 == 0))
      break;
    const int k = (round / 2) % kChunks;  // both halves of a pair alike
    // Traced runs alternate plain and instrumented rounds so the two see
    // the same host conditions.
    const bool instrumented = o.trace && round % 2 == 1;
    if (!o.trace) {
      setups.time(setup);
      host.sample();
    }
    // Only completed requests count toward the round's rates.
    Elapsed busy_1t, busy_mt;
    double items_1t = 0, items_mt = 0;
    for (int u = 0; u < kUnits; ++u) {
      for (int threads : {1, kMtWorkers}) {
        csfma::HostProfiler profiler(false);
        csfma::MetricsRegistry metrics;
        csfma::TraceSession trace;
        Sinks sinks;
        if (instrumented) sinks = {&profiler, &metrics, &trace};
        run.attempted();
        BatchResult r;
        const Stopwatch sw;
        try {
          r = fn(u, k, threads, EngineBackend::Sliced, sinks);
        } catch (const std::exception& e) {
          run.failed();
          run.check(false, std::string("request failed: ") + e.what());
          continue;
        }
        const Elapsed dt = sw.elapsed();
        ++requests;
        total_ops += r.stats.ops;
        shards += r.stats.shards.size();
        toggles += r.activity.total_toggles();
        run.check(digest_of(r) == ref[u][k],
                  unit_name(u) + ".chunk" + std::to_string(k) + " round " +
                      std::to_string(round) + " at " +
                      std::to_string(threads) +
                      " workers: digest differs from the check pass");
        (instrumented ? traced : untraced) += dt;
        (threads == 1 ? busy_1t : busy_mt) += dt;
        (threads == 1 ? items_1t : items_mt) += (double)r.stats.ops;
        if (threads == 1 && !instrumented) classes.add(unit_name(u), dt);
        if (instrumented && threads == 1) {
          // Layer self-times of the single-worker request.
          const auto scopes = profiler.snapshot();
          auto wall = [&scopes](const char* name) {
            auto it = scopes.find(name);
            return it == scopes.end() ? 0.0 : (double)it->second.wall_ns * 1e-9;
          };
          run.attribution_wall(dt.wall);
          run.attribute("source.fill (engine.fill)", wall("engine.fill"));
          run.attribute("fma (engine.simulate)", wall("engine.simulate"));
          run.attribute("engine.merge", wall("engine.merge"));
        }
      }
    }
    if (!instrumented) rates.add(items_1t, busy_1t, items_mt, busy_mt);
  }
  run.count("requests", requests);
  run.count("ops", total_ops);
  run.count("shards", shards);
  run.count("toggles", toggles);

  if (o.trace) {
    report_trace_overhead(run, untraced, traced);
    if (chained) {
      const char* why =
          "SimEngine::run_chained records no shard histograms or worker "
          "utilisation gauges (ROADMAP item 3, one shard scheduler)";
      run.missing("engine.chained.shard_ms_p50, engine.chained.shard_ms_p90",
                  why);
      run.missing("engine.chained.worker_util", why);
    } else {
      run.missing("engine.sliced.fallback.<reason>",
                  "the sliced backend does not expose its scalar-fallback "
                  "counts (ROADMAP item 5)");
    }
    run.missing("fma.<unit>.<stage>_ns",
                "the units have no stage-level time scopes (ROADMAP item 1)");
  } else {
    std::vector<std::string> units;
    for (int u = 0; u < kUnits; ++u) units.push_back(unit_name(u));
    report_rates_and_latency(run, rates, classes, units, host);
    report_setup(run, setups, host);
    report_peak_rss(run);
  }
}

}  // namespace

void run_batch_ieee(Run& run) {
  const Options& o = run.options();
  const std::uint64_t ops = o.size > 0 ? o.size : kRequestOps;

  // Set-up: materialize the seeded input pool (an equal share per unit).
  auto make_pool = [&] {
    std::vector<std::vector<csfma::OperandTriple>> p;
    for (int u = 0; u < kUnits; ++u)
      for (int k = 0; k < kChunks; ++k)
        p.push_back(ieee_triples(o.seed, (std::uint64_t)(u * kChunks + k) * ops,
                                 ops));
    return p;
  };
  const auto pool = make_pool();
  run.count("pool.triples", (std::uint64_t)kUnits * kChunks * ops);

  drive(run,
        [&pool](int u, int k, int threads, EngineBackend backend,
                const Sinks& sinks) {
          SimEngine engine(engine_config(u, threads, backend, sinks));
          return engine.run_batch(pool[(std::size_t)(u * kChunks + k)]);
        },
        [&] { make_pool(); }, false);
}

void run_chained_recurrence(Run& run) {
  const Options& o = run.options();
  const std::uint64_t chains =
      o.size > 0 ? o.size
                 : kRequestOps / (2 * (kRecurrenceDepth - 2));  // 2048 chains

  // Set-up: the recurrence inputs of every pooled chunk; all four units
  // run the same chains.
  auto make_sources = [&] {
    const auto inputs =
        csfma::recurrence_inputs(o.seed, (int)(chains * kChunks));
    std::deque<csfma::RecurrenceChainSource> s;
    for (int k = 0; k < kChunks; ++k) {
      s.emplace_back(
          std::vector<csfma::RecurrenceInputs>(
              inputs.begin() + (std::ptrdiff_t)(k * chains),
              inputs.begin() + (std::ptrdiff_t)((k + 1) * chains)),
          kRecurrenceDepth);
    }
    return s;
  };
  const auto sources = make_sources();
  run.count("pool.chains", chains * kChunks);

  // Independent replay: the first chains of chunk 0 through lift/fma/lower
  // must match the engine's results bit for bit.
  for (int u = 0; u < kUnits; ++u) {
    SimEngine engine(engine_config(u, 1, EngineBackend::Sliced, {}));
    const BatchResult r = engine.run_chained(sources[0]);
    auto unit = csfma::make_fma_unit(csfma::kAllUnitKinds[u]);
    const std::uint64_t opc = sources[0].ops_per_chain();
    std::vector<csfma::PFloat> replay((std::size_t)opc);
    bool same = true;
    for (std::uint64_t g = 0; g < 8 && g < chains; ++g) {
      replay_chain(*unit, sources[0], g, csfma::Round::NearestEven,
                   replay.data());
      for (std::uint64_t j = 0; j < opc; ++j)
        same = same && csfma::PFloat::same_value(
                           replay[(std::size_t)j],
                           r.results[(std::size_t)(g * opc + j)]);
    }
    run.check(same, unit_name(u) +
                        ": run_chained differs from a lift/fma/lower replay");
  }

  drive(run,
        [&sources](int u, int k, int threads, EngineBackend backend,
                   const Sinks& sinks) {
          SimEngine engine(engine_config(u, threads, backend, sinks));
          return engine.run_chained(sources[(std::size_t)k]);
        },
        [&] { make_sources(); }, true);
}

}  // namespace perfbench
