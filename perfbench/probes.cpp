// The per-layer probe suite of every traced run: direct calls to each
// layer's public functions on seed-derived inputs, an engine run through a
// timing wrapper around its OperandSource with the profiler and metrics
// sinks attached, a short traced service run, and the compile layers.
// Every traced run reports the same table, whatever its workload; the
// workload-specific split is the attribution section.
#include <atomic>

#include "bench.hpp"
#include "dse/eval.hpp"
#include "energy/workload.hpp"
#include "inputs.hpp"

namespace perfbench {

using csfma::UnitKind;

namespace {

constexpr int kReps = 3;

/// Median over kReps of the CPU seconds `fn()` takes, divided by `per`.
template <class Fn>
double median_time(Fn&& fn, double per) {
  std::vector<double> s;
  for (int rep = 0; rep < kReps; ++rep) {
    const Stopwatch sw;
    fn();
    s.push_back(sw.elapsed().cpu / per);
  }
  return median(s).value_or(0.0);
}

/// OperandSource wrapper that accumulates the time spent in fill().
class TimedSource final : public csfma::OperandSource {
 public:
  explicit TimedSource(const csfma::OperandSource& inner) : inner_(inner) {}
  std::uint64_t size() const override { return inner_.size(); }
  void fill(std::uint64_t start, csfma::OperandTriple* out,
            std::size_t n) const override {
    const double t0 = now_s();
    inner_.fill(start, out, n);
    ns_.fetch_add((std::uint64_t)((now_s() - t0) * 1e9));
  }
  double seconds() const { return (double)ns_.load() * 1e-9; }

 private:
  const csfma::OperandSource& inner_;
  mutable std::atomic<std::uint64_t> ns_{0};
};

void probe_fma(Run& run) {
  const std::uint64_t seed = run.options().seed;
  const auto triples = ieee_triples(seed, 0, 2048);
  std::vector<csfma::PFloat> out(triples.size());
  const csfma::RecurrenceChainSource chains(
      csfma::recurrence_inputs(seed, 64), kRecurrenceDepth);
  const std::uint64_t opc = chains.ops_per_chain();
  std::vector<csfma::PFloat> chain_out((std::size_t)opc);
  for (UnitKind kind : csfma::kAllUnitKinds) {
    const std::string name = csfma::to_string(kind);
    // Engine-shaped: a recorder is attached, as SimEngine does per shard.
    csfma::ActivityRecorder rec;
    auto unit = csfma::make_fma_unit(kind, &rec);
    run.layer("fma." + name + ".batch_ns",
              median_time(
                  [&] {
                    unit->fma_ieee_batch(triples.data(), triples.size(),
                                         out.data(), {});
                  },
                  (double)triples.size()) *
                  1e9,
              "ns");
    run.layer("fma." + name + ".chain_ns",
              median_time(
                  [&] {
                    for (std::uint64_t g = 0; g < chains.chains(); ++g)
                      replay_chain(*unit, chains, g, csfma::Round::NearestEven,
                                   chain_out.data());
                  },
                  (double)(chains.chains() * opc)) *
                  1e9,
              "ns");
  }
  // Extra cost of the ActivityRecorder on the single-operation path: the
  // median over paired repetitions of (with - without).
  for (UnitKind kind : {UnitKind::Pcs, UnitKind::Fcs}) {
    csfma::ActivityRecorder rec;
    auto with = csfma::make_fma_unit(kind, &rec);
    auto without = csfma::make_fma_unit(kind);
    auto cpu_per_op = [&](csfma::FmaUnit& u) {
      const Stopwatch sw;
      for (std::size_t i = 0; i < triples.size(); ++i)
        out[i] = u.fma_ieee(triples[i].a, triples[i].b, triples[i].c,
                            csfma::Round::NearestEven);
      return sw.elapsed().cpu / (double)triples.size();
    };
    std::vector<double> extra;
    for (int rep = 0; rep < 2 * kReps + 1; ++rep)
      extra.push_back(cpu_per_op(*with) - cpu_per_op(*without));
    run.layer("fma." + std::string(csfma::to_string(kind)) + ".recorder_ns",
              median(extra).value_or(0.0) * 1e9, "ns");
  }
}

void probe_engine(Run& run) {
  constexpr std::uint64_t kOps = 131072;  // 16 shards of 8192
  const auto triples = ieee_triples(run.options().seed, 0, kOps);
  const csfma::VectorSource vec(triples);

  // One worker: fill through the wrapper, simulate/merge from the profiler.
  csfma::HostProfiler prof1(false);
  csfma::EngineConfig cfg;
  cfg.unit = UnitKind::Pcs;
  cfg.threads = 1;
  cfg.profiler = &prof1;
  TimedSource timed(vec);
  const csfma::BatchResult r1 = csfma::SimEngine(cfg).run_batch(timed);
  const auto s1 = prof1.snapshot();
  auto wall = [](const std::map<std::string, csfma::ScopeStats>& s,
                 const char* name) {
    auto it = s.find(name);
    return it == s.end() ? 0.0 : (double)it->second.wall_ns * 1e-9;
  };
  const double w1 = r1.stats.seconds;
  run.layer("engine.fill_ns", timed.seconds() / (double)kOps * 1e9, "ns");
  run.layer("engine.simulate_share", wall(s1, "engine.simulate") / w1,
            "share");
  run.layer("engine.unattributed_share",
            (w1 - wall(s1, "engine.fill") - wall(s1, "engine.simulate") -
             wall(s1, "engine.merge")) /
                w1,
            "share");

  // kMtWorkers workers with the metrics sink.
  csfma::HostProfiler profm(false);
  csfma::MetricsRegistry metrics;
  cfg.threads = kMtWorkers;
  cfg.profiler = &profm;
  cfg.metrics = &metrics;
  const csfma::BatchResult rm = csfma::SimEngine(cfg).run_batch(vec);
  run.check(digest_of(r1) == digest_of(rm),
            "engine probe: 1-worker and multi-worker digests differ");
  run.layer("engine.merge_ms", wall(profm.snapshot(), "engine.merge") * 1e3,
            "ms");
  const csfma::MetricsSnapshot snap = metrics.snapshot();
  double util = 0.0;
  int workers = 0;
  for (const auto& [name, g] : snap.gauges) {
    if (name.rfind("engine.worker.", 0) == 0) {
      util += g.value;
      ++workers;
    }
  }
  run.layer("engine.worker_util", workers > 0 ? util / workers : 0.0, "share");
  std::vector<double> shard_ms;
  for (const auto& sh : rm.stats.shards) shard_ms.push_back(sh.seconds * 1e3);
  run.layer("engine.shard_ms_p50", quantile(shard_ms, 0.5).value_or(0.0), "ms");
  run.layer("engine.shard_ms_p90", quantile(shard_ms, 0.9).value_or(0.0), "ms");
  run.layer("engine.scaling", rm.stats.ops_per_sec / r1.stats.ops_per_sec,
            "ratio");
}

void probe_dse(Run& run) {
  // The 64 design points of a service_mix sweep.
  std::vector<csfma::dse::DseConfig> points;
  for (UnitKind unit : {UnitKind::Pcs, UnitKind::Fcs})
    for (int block : {22, 33, 44, 55})
      for (int rwidth : {0, 8})
        for (auto select : {csfma::dse::BlockSelect::Lza,
                            csfma::dse::BlockSelect::Zd})
          for (int depth : {4, 8}) {
            csfma::dse::DseConfig c;
            c.unit = unit;
            c.seed = run.options().seed;
            c.block = block;
            c.group = 11;
            c.round_width = rwidth;
            c.select = select;
            c.depth = depth;
            points.push_back(c);
          }
  double sink = 0.0;
  run.layer("dse.eval_design_us",
            median_time(
                [&] {
                  for (const auto& c : points)
                    sink += csfma::dse::eval_design(c).energy_nj;
                },
                (double)points.size()) *
                1e6,
            "us");
  run.check(sink > 0.0, "dse probe: zero energy");
}

}  // namespace

void run_layer_probes(Run& run) {
  probe_fma(run);
  probe_engine(run);
  probe_service_layer(run);
  probe_dse(run);
  probe_compile_layers(run);
}

}  // namespace perfbench
