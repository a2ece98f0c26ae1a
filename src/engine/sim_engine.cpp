#include "engine/sim_engine.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace csfma {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Serialized, rate-limited progress emission for the shard scheduler.
/// Workers bump atomic counters per completed shard; a compare-exchange on
/// the next-beat deadline elects at most one emitter per interval, and the
/// counter snapshot and the callback run under a mutex, so user code never
/// sees concurrent invocations or a beat that goes backwards.
class ProgressGate {
 public:
  ProgressGate(const ProgressFn& fn, double interval_s,
               std::uint64_t ops_total, std::uint64_t shards_total,
               clock::time_point t0)
      : fn_(fn),
        interval_us_((std::int64_t)(interval_s * 1e6)),
        ops_total_(ops_total),
        shards_total_(shards_total),
        t0_(t0) {
    next_emit_us_.store(interval_us_, std::memory_order_relaxed);
  }

  void shard_done(std::uint64_t ops) {
    if (!fn_) return;
    ops_done_.fetch_add(ops, std::memory_order_relaxed);
    shards_done_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t now = now_us();
    std::int64_t deadline = next_emit_us_.load(std::memory_order_relaxed);
    if (now < deadline) return;
    if (!next_emit_us_.compare_exchange_strong(deadline, now + interval_us_))
      return;  // another worker took this beat
    emit(now);
  }

  /// The final 100% beat, after the join (always fires, even on runs
  /// shorter than one interval).
  void finish() {
    if (!fn_) return;
    emit(now_us());
  }

 private:
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 t0_)
        .count();
  }

  void emit(std::int64_t now) {
    // Snapshot under the lock: a snapshot taken before it could reach the
    // callback after a later, larger one from another worker.
    std::lock_guard<std::mutex> lock(mu_);
    EngineProgress p;
    p.ops_done = ops_done_.load(std::memory_order_relaxed);
    p.ops_total = ops_total_;
    p.shards_done = shards_done_.load(std::memory_order_relaxed);
    p.shards_total = shards_total_;
    p.seconds = (double)now / 1e6;
    p.ops_per_sec = safe_rate(p.ops_done, p.seconds);
    if (p.ops_per_sec > 0.0 && p.ops_total >= p.ops_done)
      p.eta_seconds = (double)(p.ops_total - p.ops_done) / p.ops_per_sec;
    fn_(p);
  }

  const ProgressFn& fn_;
  const std::int64_t interval_us_;
  const std::uint64_t ops_total_, shards_total_;
  const clock::time_point t0_;
  std::atomic<std::uint64_t> ops_done_{0}, shards_done_{0};
  std::atomic<std::int64_t> next_emit_us_{0};
  std::mutex mu_;
};

/// How a run cuts into shards: `grains` indivisible grains of `grain_ops`
/// operations each — single operations for batch and stream runs, whole
/// chains for chained runs — at most `grains_per_shard` to a shard.  It
/// depends only on the data and EngineConfig::shard_ops, never on the
/// worker count, which is what makes every merged output thread-count
/// invariant.
struct ShardPlan {
  std::uint64_t grains;
  std::uint64_t grain_ops;
  std::uint64_t grains_per_shard;
};

/// What a shard kernel is handed: the shard's operation range and the
/// per-shard unit, event log and profiler the scheduler set up for it.
struct Shard {
  std::uint64_t start;  // stream index of the shard's first operation
  std::uint64_t ops;
  int worker;
  FmaUnit* unit;        // fresh, recording into the shard's recorder
  EventLog* events;     // the shard's event log, or null
  HostProfiler* prof;   // the shard's profiler, or null
};

/// The one claim -> simulate -> merge loop behind run_batch, run_stream and
/// run_chained.  `make_kernel()` runs once per worker and returns the
/// worker's shard kernel, a callable `const PFloat*(const Shard&)` that
/// simulates the shard (owning whatever per-worker buffers it needs) and
/// returns its `ops` IEEE readouts for `consume`.  Everything else is
/// here: the claim and abort poll, the per-shard unit, ActivityRecorder,
/// EventLog and HostProfiler, the `shard` span, ShardStats, the engine.*
/// metrics, the progress heartbeat, the join, and the shard-order merge.
template <class MakeKernel>
void run_shards(const EngineConfig& cfg, int threads, const ShardPlan& plan,
                const MakeKernel& make_kernel,
                const SimEngine::ConsumeFn* consume, ActivityRecorder* activity,
                EventLog* events, BatchStats* stats) {
  const std::uint64_t n = plan.grains * plan.grain_ops;
  const std::uint64_t num_shards =
      (plan.grains + plan.grains_per_shard - 1) / plan.grains_per_shard;

  std::vector<ActivityRecorder> shard_recs((std::size_t)num_shards);
  const bool log_events = cfg.event_capacity > 0;
  std::vector<EventLog> shard_events(
      log_events ? (std::size_t)num_shards : 0, EventLog(cfg.event_capacity));
  std::vector<ShardStats> shard_stats((std::size_t)num_shards);
  std::atomic<std::uint64_t> next_shard{0};
  std::atomic<std::uint64_t> done_shards{0}, done_ops{0};
  const std::atomic<bool>* abort = cfg.abort;
  std::mutex consume_mu;

  // Resolve telemetry handles once, outside the worker loop.  All of the
  // Deterministic entries are integral and merge by commutative addition,
  // so concurrent updates from workers cannot perturb the thread-count
  // invariance contract; the Timing entries make no such promise.
  MetricsRegistry* metrics = cfg.metrics;
  TraceSession* trace = cfg.trace;
  Counter* m_ops = nullptr;
  Counter* m_shards = nullptr;
  Histogram* m_shard_size = nullptr;
  Histogram* m_shard_secs = nullptr;
  Histogram* m_consume_wait = nullptr;
  if (metrics != nullptr) {
    m_ops = &metrics->counter("engine.ops");
    m_shards = &metrics->counter("engine.shards");
    m_shard_size = &metrics->histogram(
        "engine.shard.ops", {1, 16, 256, 1024, 4096, 8192, 16384, 65536});
    m_shard_secs = &metrics->histogram(
        "engine.shard.seconds",
        {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0}, Stability::Timing);
    m_consume_wait = &metrics->histogram(
        "engine.consume_wait.seconds",
        {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}, Stability::Timing);
  }

  const int nthreads =
      (int)(num_shards < (std::uint64_t)threads ? num_shards
                                                : (std::uint64_t)threads);
  std::vector<double> worker_busy((std::size_t)(nthreads > 0 ? nthreads : 1),
                                  0.0);

  // Per-shard host profilers, same shape as shard_recs (deque because
  // HostProfiler owns a mutex and cannot be copied into a vector).
  HostProfiler* profiler = cfg.profiler;
  std::deque<HostProfiler> shard_profs;
  if (profiler != nullptr) {
    for (std::uint64_t s = 0; s < num_shards; ++s)
      shard_profs.emplace_back(profiler->hw_enabled());
  }

  const auto wall0 = clock::now();
  ProgressGate gate(cfg.progress, cfg.progress_interval_s, n, num_shards,
                    wall0);

  auto worker = [&](int wid) {
    auto kernel = make_kernel();
    for (;;) {
      // Cooperative cancellation: stop claiming shards once the abort flag
      // is raised; the shard being simulated always runs to completion.
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) break;
      const std::uint64_t s = next_shard.fetch_add(1);
      if (s >= num_shards) break;
      const std::uint64_t g0 = s * plan.grains_per_shard;
      const std::uint64_t g1 = plan.grains - g0 < plan.grains_per_shard
                                   ? plan.grains
                                   : g0 + plan.grains_per_shard;
      const std::uint64_t start = g0 * plan.grain_ops;
      const std::uint64_t count = (g1 - g0) * plan.grain_ops;
      TraceSpan shard_span(trace, "shard", "engine", wid);
      shard_span.arg("index", s);
      shard_span.arg("start", start);
      shard_span.arg("ops", count);
      EventLog* ev = log_events ? &shard_events[(std::size_t)s] : nullptr;
      IntrospectHooks hooks;
      hooks.events = ev;
      auto unit = make_fma_unit(cfg.unit, &shard_recs[(std::size_t)s],
                                ev != nullptr ? &hooks : nullptr);
      HostProfiler* prof =
          profiler != nullptr ? &shard_profs[(std::size_t)s] : nullptr;
      const auto t0 = clock::now();
      const PFloat* out =
          kernel(Shard{start, count, wid, unit.get(), ev, prof});
      const double secs = seconds_since(t0);
      ShardStats& st = shard_stats[(std::size_t)s];
      st.start = start;
      st.ops = count;
      st.worker = wid;
      st.seconds = secs;
      st.ops_per_sec = safe_rate(count, secs);
      worker_busy[(std::size_t)wid] += secs;
      if (metrics != nullptr) {
        m_ops->add(count);
        m_shards->add(1);
        m_shard_size->observe((double)count);
        m_shard_secs->observe(secs);
      }
      if (consume != nullptr && *consume) {
        const auto w0 = clock::now();
        std::lock_guard<std::mutex> lock(consume_mu);
        if (m_consume_wait != nullptr)
          m_consume_wait->observe(seconds_since(w0));
        TraceSpan consume_span(trace, "consume", "engine", wid);
        ProfScope consume_scope(prof, "engine.consume");
        consume_scope.items(count);
        (*consume)(start, out, (std::size_t)count);
      }
      done_shards.fetch_add(1, std::memory_order_relaxed);
      done_ops.fetch_add(count, std::memory_order_relaxed);
      gate.shard_done(count);
    }
  };

  if (nthreads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve((std::size_t)(nthreads - 1));
    for (int w = 1; w < nthreads; ++w) pool.emplace_back(worker, w);
    worker(0);
    for (auto& t : pool) t.join();
  }
  const double wall = seconds_since(wall0);

  // Merge in shard order: deterministic regardless of completion order.
  {
    TraceSpan merge_span(trace, "merge", "engine", 0);
    merge_span.arg("shards", num_shards);
    ProfScope merge_scope(profiler, "engine.merge");
    merge_scope.items(num_shards);
    for (const auto& rec : shard_recs) activity->merge_from(rec);
    if (log_events) {
      *events = EventLog(cfg.event_capacity);
      for (const auto& log : shard_events) events->merge_from(log);
    }
  }
  if (profiler != nullptr) {
    for (const auto& p : shard_profs) profiler->merge_from(p);
  }
  gate.finish();
  if (metrics != nullptr) {
    // Utilization = shard-kernel time / wall time per worker lane; Timing
    // by definition (and the gauge names depend on the worker count).
    for (int w = 0; w < nthreads; ++w) {
      metrics
          ->gauge("engine.worker." + std::to_string(w) + ".utilization",
                  Stability::Timing)
          .set(wall > 0.0 ? worker_busy[(std::size_t)w] / wall : 0.0);
    }
    metrics->gauge("engine.batch.seconds", Stability::Timing).set(wall);
    metrics->gauge("engine.batch.ops_per_sec", Stability::Timing)
        .set(safe_rate(n, wall));
  }
  stats->ops = n;
  stats->seconds = wall;
  stats->ops_per_sec = safe_rate(n, wall);
  stats->ops_done = done_ops.load(std::memory_order_relaxed);
  stats->aborted = done_shards.load(std::memory_order_relaxed) < num_shards;
  stats->shards.assign(shard_stats.begin(), shard_stats.end());
}

/// Batch and stream runs: IEEE triples, one operation per grain.  The
/// kernel fills the shard's operands, then runs the unit's batch entry
/// point (Sliced) or the base-class per-operation loop (Scalar).  Results
/// land in `results` when given, else in a per-worker buffer reused shard
/// after shard.
void run_ieee(const EngineConfig& cfg, int threads, const OperandSource& src,
              PFloat* results, const SimEngine::ConsumeFn* consume,
              ActivityRecorder* activity, EventLog* events,
              BatchStats* stats) {
  auto make_kernel = [&] {
    return [&, in = std::vector<OperandTriple>(),
            out_buf = std::vector<PFloat>()](const Shard& sh) mutable {
      const std::size_t count = (std::size_t)sh.ops;
      {
        TraceSpan fill_span(cfg.trace, "fill", "engine", sh.worker);
        ProfScope fill_scope(sh.prof, "engine.fill");
        fill_scope.items(count);
        in.resize(count);
        src.fill(sh.start, in.data(), count);
      }
      PFloat* out;
      if (results != nullptr) {
        out = results + sh.start;
      } else {
        out_buf.resize(count);
        out = out_buf.data();
      }
      TraceSpan sim_span(cfg.trace, "simulate", "engine", sh.worker);
      ProfScope sim_scope(sh.prof, "engine.simulate");
      sim_scope.items(count);
      FmaBatchHooks bh;
      bh.rm = cfg.rm;
      bh.events = sh.events;
      bh.base_index = sh.start;
      if (cfg.backend == EngineBackend::Sliced) {
        sh.unit->fma_ieee_batch(in.data(), count, out, bh);
      } else {
        // Reference oracle: the base-class per-operation loop, bypassing
        // any unit batch override.
        sh.unit->FmaUnit::fma_ieee_batch(in.data(), count, out, bh);
      }
      return (const PFloat*)out;
    };
  };
  run_shards(cfg, threads, ShardPlan{src.size(), 1, cfg.shard_ops},
             make_kernel, consume, activity, events, stats);
}

}  // namespace

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::Scalar:
      return "scalar";
    case EngineBackend::Sliced:
      return "sliced";
  }
  return "?";
}

bool parse_engine_backend(std::string_view s, EngineBackend* out) {
  if (s == "scalar") {
    *out = EngineBackend::Scalar;
    return true;
  }
  if (s == "sliced") {
    *out = EngineBackend::Sliced;
    return true;
  }
  return false;
}

void VectorSource::fill(std::uint64_t start, OperandTriple* out,
                        std::size_t n) const {
  CSFMA_CHECK(start + n <= ops_->size());
  for (std::size_t i = 0; i < n; ++i) out[i] = (*ops_)[start + i];
}

void RandomTripleSource::fill(std::uint64_t start, OperandTriple* out,
                              std::size_t n) const {
  CSFMA_CHECK(start + n <= n_);
  for (std::size_t i = 0; i < n; ++i) {
    // Per-index seeding (not one sequential stream) so that any chunking of
    // the range reproduces the same triples.
    Rng rng(seed_ ^ ((start + i + 1) * 0x9e3779b97f4a7c15ULL));
    out[i].a = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
    out[i].b = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
    out[i].c = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
  }
}

SimEngine::SimEngine(EngineConfig cfg) : cfg_(cfg) {
  CSFMA_CHECK(cfg_.threads >= 0);
  CSFMA_CHECK(cfg_.shard_ops >= 1);
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw == 0 ? 1 : (int)hw;
  threads_ = cfg_.threads == 0 ? hw_threads : cfg_.threads;
  // Pure-compute workers gain nothing from oversubscription; clamping keeps
  // a "parallel" run from falling below the single-thread rate on small
  // hosts.  Shard decomposition is thread-count independent, so the clamp
  // never changes results.
  threads_clamped_ = threads_ > hw_threads;
  if (threads_clamped_) threads_ = hw_threads;
}

std::uint64_t chain_operand_bits(const PFloat& v, std::int64_t ref,
                                 const PFloat* readouts) {
  return (ref >= 0 ? readouts[ref] : v).to_bits().lo64();
}

void simulate_chain(FmaUnit& unit, const ChainedOp* ops, std::size_t j0,
                    std::size_t j1, std::uint64_t base_index, Round rm,
                    EventLog* events, FmaOperand* natives, PFloat* readouts) {
  for (std::size_t j = j0; j < j1; ++j) {
    const ChainedOp& op = ops[j];
    CSFMA_CHECK(op.a_ref < (std::int64_t)j && op.c_ref < (std::int64_t)j);
    if (events != nullptr) {
      events->begin_op(base_index + j,
                       chain_operand_bits(op.a, op.a_ref, readouts),
                       op.b.to_bits().lo64(),
                       chain_operand_bits(op.c, op.c_ref, readouts));
    }
    FmaOperand a = op.a_ref >= 0 ? natives[op.a_ref] : unit.lift(op.a);
    FmaOperand c = op.c_ref >= 0 ? natives[op.c_ref] : unit.lift(op.c);
    FmaOperand res = unit.fma(a, op.b, c);
    readouts[j] = unit.lower(res, rm);
    natives[j] = std::move(res);
  }
}

BatchResult SimEngine::run_batch(const OperandSource& src) const {
  BatchResult r;
  r.results.resize((std::size_t)src.size());
  run_ieee(cfg_, threads_, src, r.results.data(), nullptr, &r.activity,
           &r.events, &r.stats);
  return r;
}

BatchResult SimEngine::run_batch(const std::vector<OperandTriple>& ops) const {
  return run_batch(VectorSource(ops));
}

StreamResult SimEngine::run_stream(const OperandSource& src,
                                   const ConsumeFn& consume) const {
  StreamResult r;
  run_ieee(cfg_, threads_, src, nullptr, &consume, &r.activity, &r.events,
           &r.stats);
  return r;
}

BatchResult SimEngine::run_chained(const ChainSource& src) const {
  const std::uint64_t opc = src.ops_per_chain();
  CSFMA_CHECK(opc >= 1);
  BatchResult r;
  r.results.resize((std::size_t)(src.chains() * opc));
  PFloat* results = r.results.data();
  // Shard on CHAIN boundaries: operations within a chain depend on earlier
  // results, chains are independent.
  const ShardPlan plan{src.chains(), opc,
                       cfg_.shard_ops / opc > 0 ? cfg_.shard_ops / opc : 1};
  auto make_kernel = [&] {
    // Scratch is one chain long whatever the shard size.
    return [&, ops = std::vector<ChainedOp>((std::size_t)opc),
            natives = std::vector<FmaOperand>((std::size_t)opc)](
               const Shard& sh) mutable {
      for (std::uint64_t g = sh.start / opc; g < (sh.start + sh.ops) / opc;
           ++g) {
        {
          ProfScope fill_scope(sh.prof, "engine.fill");
          fill_scope.items(opc);
          src.fill_chain(g, ops.data());
        }
        ProfScope sim_scope(sh.prof, "engine.simulate");
        sim_scope.items(opc);
        simulate_chain(*sh.unit, ops.data(), 0, (std::size_t)opc, g * opc,
                       cfg_.rm, sh.events, natives.data(), results + g * opc);
      }
      return (const PFloat*)(results + sh.start);
    };
  };
  run_shards(cfg_, threads_, plan, make_kernel, nullptr, &r.activity,
             &r.events, &r.stats);
  return r;
}

}  // namespace csfma
