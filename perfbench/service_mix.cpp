// service_mix: one closed-loop client driving an in-process ServiceSession
// (ServiceConfig defaults) through handle_line, the entry point every
// transport serves.  Each round sends, for each of the kUnits units, one
// request of each of five phases:
//   miss     a batch submit with a fresh seed (threads 1),
//   hit      the same line again, answered from the cache,
//   miss_mt  a batch submit with a fresh seed at kMtWorkers threads,
//   chained  a chained submit with a fresh seed,
//   sweep    a 64-point model sweep with a fresh seed.
// Submits keep the service's default shard size (8192 ops), as the
// scripts/csfma_client.py requests do.  Sweep points are cached too, so
// every round's inserts exceed the 64-entry cache and evict.
#include <condition_variable>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "service/json_value.hpp"
#include "service/session.hpp"

namespace perfbench {

namespace {

constexpr int kUnits = 4;
constexpr int kMinRequestsPerPhase = 100;  // p90 has 10 samples beyond it
// Four default shards per miss: one per worker of a miss_mt submit.
constexpr std::uint64_t kMissOps = 32768;
constexpr std::size_t kSweepPoints = 64;
// 2 units x 4 blocks x 2 rounding widths x 2 selections x 2 depths = 64.
constexpr const char* kSweepAxes =
    "\"mode\":\"model\",\"unit\":[\"pcs\",\"fcs\"],"
    "\"block\":[22,33,44,55],\"group\":11,\"rwidth\":[0,8],"
    "\"select\":[\"lza\",\"zd\"],\"depth\":[4,8]";

/// Terminal reply of one request plus the sweep points streamed before it.
struct Reply {
  std::string type;  // result | error | sweep_done | cancelled
  std::string line;
  std::vector<std::string> points;
  Elapsed time;  // handle_line call to terminal reply
};

std::string type_of(const std::string& line) {
  static const std::string kPrefix = "{\"type\":\"";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  const std::size_t end = line.find('"', kPrefix.size());
  return end == std::string::npos
             ? ""
             : line.substr(kPrefix.size(), end - kPrefix.size());
}

/// The verbatim report of a result / sweep_point line (its last member).
std::string report_of(const std::string& line) {
  static const std::string kKey = "\"report\":";
  const std::size_t pos = line.find(kKey);
  if (pos == std::string::npos || line.empty() || line.back() != '}') return "";
  const std::size_t start = pos + kKey.size();
  return line.substr(start, line.size() - 1 - start);
}

csfma::JsonValue parse(const std::string& text) {
  csfma::JsonValue v;
  csfma::JsonParseError err;
  if (!csfma::json_parse(text, &v, &err)) return {};
  return v;
}

/// The verbatim "metrics" object of a report: flat scalars, so it ends at
/// the first '}'.  (The report's "git" meta depends on the build; the
/// metrics do not.)  Raw text, because result_checksum may exceed int64.
std::string metrics_text(const std::string& report) {
  static const std::string kKey = "\"metrics\":{";
  const std::size_t pos = report.find(kKey);
  if (pos == std::string::npos) return "";
  const std::size_t end = report.find('}', pos);
  return end == std::string::npos ? "" : report.substr(pos, end + 1 - pos);
}

/// The raw text of one integer metric ("" when absent).
std::string metric_text(const std::string& report, const std::string& name) {
  const std::string m = metrics_text(report);
  const std::string key = "\"" + name + "\":";
  const std::size_t pos = m.find(key);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + key.size();
  return m.substr(start, m.find_first_not_of("0123456789", start) - start);
}

std::uint64_t metric_u64(const std::string& report, const std::string& name) {
  const std::string t = metric_text(report, name);
  return t.empty() ? 0 : std::strtoull(t.c_str(), nullptr, 10);
}

/// The closed-loop client: sends one line, blocks until its terminal reply.
class Client {
 public:
  explicit Client(csfma::ServiceConfig cfg)
      : session_(std::make_unique<csfma::ServiceSession>(
            std::move(cfg),
            [this](const std::string& line) { on_line(line); })) {}

  Reply request(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      points_.clear();
      terminal_.clear();
    }
    const Stopwatch sw;
    session_->handle_line(line);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !terminal_.empty(); });
    Reply r;
    r.time = sw.elapsed();
    r.line = std::move(terminal_);
    r.type = type_of(r.line);
    r.points = std::move(points_);
    return r;
  }

 private:
  void on_line(const std::string& line) {
    const std::string type = type_of(line);
    std::lock_guard<std::mutex> lock(mu_);
    if (type == "sweep_point") {
      points_.push_back(line);
    } else if (type == "result" || type == "error" || type == "sweep_done" ||
               type == "cancelled") {
      terminal_ = line;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::string terminal_;
  std::vector<std::string> points_;
  // Last member: destroyed (joining the session's pool) before the state
  // its write callback touches.
  std::unique_ptr<csfma::ServiceSession> session_;
};

/// Same order-independent digest the service reports as result_checksum:
/// splitmix of (index, result bits), summed.
std::uint64_t service_checksum(const std::vector<csfma::PFloat>& results) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::uint64_t x = (std::uint64_t)i * 0x9e3779b97f4a7c15ULL ^
                      results[i].to_bits().lo64();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    sum += x;
  }
  return sum;
}

struct PhaseSamples {
  ClassTimes phases;
  RoundRates rates;
  Elapsed total;
};

/// Sends the rounds of the mix and checks every reply.
class Mix {
 public:
  Mix(Run& run, std::uint64_t ops, LineFilter filter = {})
      : run_(run),
        filter_(std::move(filter)),
        ops_(ops),
        // A quarter of a miss's ops: 256 chains, one default shard.
        chains_(ops / (8 * (kRecurrenceDepth - 2)) > 0
                    ? ops / (8 * (kRecurrenceDepth - 2))
                    : 1),
        // Seeds are base + counter: distinct within a run by construction
        // and below 2^53, so every submit is a cache miss.
        seed_base_(csfma::Rng(run.options().seed).next_u64() >> 20) {}

  /// One round on `client`; `round0` adds the reference outputs and the
  /// direct-engine cross-check.  Only successful replies count toward the
  /// round's rates.
  void round(Client& client, PhaseSamples& s, bool round0) {
    const Stopwatch round_time;
    Elapsed busy_1t, busy_mt;
    double items_1t = 0, items_mt = 0;
    for (int u = 0; u < kUnits; ++u) {
      const std::uint64_t seed = next_seed();
      const std::string line = submit_line(u, seed, 1);
      const Reply miss = expect(client, line, "result", "miss", s);
      const std::string rep = report_of(miss.line);
      check_result(miss, "miss", rep);
      if (miss.type == "result") {
        busy_1t += miss.time;
        items_1t += (double)ops_;
        if (round0) cross_check_miss(u, seed, rep);
      }

      const Reply hit = expect(client, line, "result", "hit", s);
      if (miss.type == "result" && hit.type == "result")
        run_.check(report_of(hit.line) == rep,
                   "hit reply report is not byte-identical to its miss");
      check_result(hit, "hit", report_of(hit.line));

      const Reply mt = expect(client, submit_line(u, next_seed(), kMtWorkers),
                              "result", "miss_mt", s);
      check_result(mt, "miss", report_of(mt.line));
      if (mt.type == "result") {
        busy_mt += mt.time;
        items_mt += (double)ops_;
      }

      const Reply c = expect(client, chained_line(u, next_seed()), "result",
                             "chained", s);
      const std::string crep = report_of(c.line);
      check_result(c, "miss", crep);
      if (round0 && u == 0)
        run_.output("chained.round0.metrics_fnv", fnv_text(metrics_text(crep)));

      const Reply sw = expect(client, sweep_line(next_seed()), "sweep_done",
                              "sweep", s);
      check_sweep(sw, round0 && u == 0);
    }
    s.rates.add(items_1t, busy_1t, items_mt, busy_mt);
    ++rounds_;
    s.total += round_time.elapsed();
  }

  std::uint64_t rounds() const { return rounds_; }

 private:
  std::uint64_t next_seed() { return seed_base_ + counter_++; }

  std::string submit_line(int u, std::uint64_t seed, int threads) const {
    return "{\"type\":\"submit\",\"mode\":\"batch\",\"unit\":\"" +
           std::string(csfma::to_string(csfma::kAllUnitKinds[u])) +
           "\",\"seed\":" + std::to_string(seed) +
           ",\"ops\":" + std::to_string(ops_) +
           ",\"threads\":" + std::to_string(threads) + "}";
  }

  std::string chained_line(int u, std::uint64_t seed) const {
    return "{\"type\":\"submit\",\"mode\":\"chained\",\"unit\":\"" +
           std::string(csfma::to_string(csfma::kAllUnitKinds[u])) +
           "\",\"seed\":" + std::to_string(seed) +
           ",\"chains\":" + std::to_string(chains_) +
           ",\"depth\":" + std::to_string(kRecurrenceDepth) + "}";
  }

  static std::string sweep_line(std::uint64_t seed) {
    return "{\"type\":\"sweep\"," + std::string(kSweepAxes) +
           ",\"seed\":" + std::to_string(seed) + "}";
  }

  static std::string fnv_text(const std::string& text) {
    Fnv64 h;
    h.bytes(text);
    return hex16(h.value());
  }

  /// Send, count, time; a reply of another type counts as failed.
  Reply expect(Client& client, const std::string& line, const char* type,
               const char* phase, PhaseSamples& s) {
    run_.attempted();
    Reply r = client.request(filter_ ? filter_(phase, line) : line);
    if (r.type != type) {
      run_.failed();
      run_.add_count("service.errors", 1);
      run_.check(r.type == "error",  // refusals count as failed, not wrong
                 std::string(phase) + ": unexpected reply " + r.line);
    } else {
      s.phases.add(phase, r.time);
    }
    run_.add_count(std::string("requests.") + phase, 1);
    return r;
  }

  void check_result(const Reply& r, const char* cache, const std::string& rep) {
    if (r.type != "result") return;
    const csfma::JsonValue v = parse(r.line);
    const csfma::JsonValue* c = v.find("cache");
    const bool ok = c != nullptr && c->is_string() && c->as_string() == cache;
    run_.check(ok, std::string("expected a cache ") + cache + ": " +
                       r.line.substr(0, 120));
    run_.check(!rep.empty() && parse(rep).is_object(),
               "result carries no parsable report");
    if (std::string(cache) == "hit") {
      run_.add_count("cache.hits", 1);
    } else {
      run_.add_count("cache.misses", 1);
      run_.add_count("ops", metric_u64(rep, "ops"));
      run_.add_count("toggles", metric_u64(rep, "activity.total_toggles"));
    }
  }

  /// The service's result_checksum and toggles against a direct engine run
  /// of the same request.
  void cross_check_miss(int u, std::uint64_t seed, const std::string& rep) {
    csfma::EngineConfig cfg;
    cfg.unit = csfma::kAllUnitKinds[u];
    cfg.threads = 1;
    csfma::SimEngine engine(cfg);
    const csfma::BatchResult r =
        engine.run_batch(csfma::RandomTripleSource(seed, ops_));
    const std::string unit = csfma::to_string(cfg.unit);
    run_.check(metric_text(rep, "result_checksum") ==
                   std::to_string(service_checksum(r.results)),
               "miss " + unit + ": result_checksum differs from a direct "
                                "engine run");
    run_.check(metric_u64(rep, "activity.total_toggles") ==
                   r.activity.total_toggles(),
               "miss " + unit + ": toggles differ from a direct engine run");
    run_.output("miss." + unit + ".round0.metrics_fnv",
                fnv_text(metrics_text(rep)));
  }

  void check_sweep(const Reply& r, bool round0) {
    if (r.type != "sweep_done") return;
    const csfma::JsonValue v = parse(r.line);
    const csfma::JsonValue* digest = v.find("digest");
    const csfma::JsonValue* misses = v.find("cache_misses");
    Fnv64 payloads;
    std::string metrics;
    for (const std::string& p : r.points) {
      const std::string rep = report_of(p);
      payloads.bytes(rep);
      metrics += metrics_text(rep);
    }
    run_.check(r.points.size() == kSweepPoints,
               "sweep streamed " + std::to_string(r.points.size()) +
                   " points, expected 64");
    run_.check(digest != nullptr && digest->is_string() &&
                   digest->as_string() == hex16(payloads.value()),
               "sweep_done digest differs from the streamed points");
    run_.check(misses != nullptr && misses->is_int() &&
                   misses->as_int() == (std::int64_t)kSweepPoints,
               "sweep points with fresh seeds were served from the cache");
    run_.add_count("sweep.points", r.points.size());
    run_.add_count("cache.misses", r.points.size());
    if (round0) run_.output("sweep.round0.metrics_fnv", fnv_text(metrics));
  }

  Run& run_;
  LineFilter filter_;
  std::uint64_t ops_, chains_, seed_base_;
  std::uint64_t counter_ = 0, rounds_ = 0;
};

/// Mean duration, in seconds, of the spans named `name`.
double mean_span_s(const std::vector<csfma::TraceEvent>& events,
                   const char* name, double* total_s = nullptr) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& e : events) {
    if (e.name == name && e.cat == "service") {
      sum += (double)e.dur_us * 1e-6;
      ++n;
    }
  }
  if (total_s != nullptr) *total_s = sum;
  return n > 0 ? sum / (double)n : 0.0;
}

std::uint64_t default_ops(const Options& o) {
  return o.size > 0 ? o.size : kMissOps;
}

}  // namespace

void run_service_mix(Run& run, const LineFilter& filter) {
  const Options& o = run.options();
  // The session keeps a registry either way; sharing it exposes the
  // cache's exact counters.
  csfma::MetricsRegistry plain_metrics;
  csfma::ServiceConfig plain_cfg;
  plain_cfg.metrics = &plain_metrics;
  auto client = std::make_unique<Client>(plain_cfg);

  // Traced runs alternate rounds between the plain session and one with
  // every sink attached.
  csfma::MetricsRegistry metrics;
  csfma::TraceSession trace;
  std::unique_ptr<Client> traced;
  if (o.trace) {
    csfma::ServiceConfig cfg;
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    traced = std::make_unique<Client>(cfg);
  }

  Mix mix(run, default_ops(o), filter);
  PhaseSamples plain, instrumented;
  SetupSamples setups;
  HostSpeed host;
  const double t_start = now_s();
  for (std::uint64_t r = 0;; ++r) {
    // Untraced runs need kMinRequestsPerPhase samples per phase; traced
    // runs report no percentiles.
    const std::uint64_t min_rounds =
        o.trace ? 4 : (kMinRequestsPerPhase + kUnits - 1) / kUnits;
    const bool enough = now_s() - t_start >= o.seconds &&
                        mix.rounds() >= min_rounds && r % 2 == 0;
    if (enough) break;
    if (o.trace && r % 2 == 1) {
      mix.round(*traced, instrumented, false);
    } else {
      mix.round(*client, plain, r == 0);
    }
    if (!o.trace) {
      // Set-up is starting a session; its shutdown is not timed.
      std::unique_ptr<Client> fresh;
      setups.time([&] {
        fresh = std::make_unique<Client>(csfma::ServiceConfig{});
      });
      host.sample();
    }
  }
  run.count("rounds", mix.rounds());
  const csfma::MetricsSnapshot snap = plain_metrics.snapshot();
  for (const char* name : {"service.cache.hits", "service.cache.misses",
                           "service.cache.evictions"}) {
    auto it = snap.counters.find(name);
    run.count(name, it == snap.counters.end() ? 0 : it->second.value);
  }

  if (!o.trace) {
    // The misses feed the throughputs and the chained submits are
    // engine-bound, both covered by the engine workloads; the latency
    // metrics rest on the classes only this workload reaches.
    report_rates_and_latency(run, plain.rates, plain.phases, {"hit", "sweep"},
                             host);
    report_peak_rss(run);
    report_setup(run, setups, host);
    // The per-phase wall-clock latencies under their own names and units.
    auto phase_figures = [&](const char* phase, const char* unit, double scale) {
      const auto& v = plain.phases.wall_ms[phase];
      if (v.empty()) return;  // no successful request: nothing to show
      run.figure(std::string(phase) + "_p50_" + unit, *quantile(v, 0.5) * scale,
                 unit, v.size());
      run.figure(std::string(phase) + "_p90_" + unit, *quantile(v, 0.9) * scale,
                 unit, v.size());
    };
    phase_figures("hit", "us", 1e3);
    phase_figures("miss", "ms", 1.0);
    phase_figures("miss_mt", "ms", 1.0);
    phase_figures("sweep", "ms", 1.0);
    phase_figures("chained", "ms", 1.0);
    return;
  }

  report_trace_overhead(run, plain.total, instrumented.total);
  // Attribution of the instrumented rounds from the session's spans.
  const auto events = trace.events();
  double parse_s = 0, lookup_s = 0, queue_s = 0, engine_s = 0, model_s = 0,
         render_s = 0;
  mean_span_s(events, "parse", &parse_s);
  mean_span_s(events, "cache-lookup", &lookup_s);
  mean_span_s(events, "queue-wait", &queue_s);
  mean_span_s(events, "engine-run", &engine_s);
  mean_span_s(events, "model-eval", &model_s);
  mean_span_s(events, "render", &render_s);
  run.attribution_wall(instrumented.total.wall);
  run.attribute("service.parse", parse_s);
  run.attribute("service.cache-lookup", lookup_s);
  run.attribute("service.queue-wait", queue_s);
  run.attribute("engine (service engine-run)", engine_s);
  run.attribute("dse (service model-eval)", model_s);
  run.attribute("service.render", render_s);
}

void probe_service_layer(Run& run) {
  csfma::MetricsRegistry metrics;
  csfma::TraceSession trace;
  {
    csfma::ServiceConfig cfg;
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    Client client(cfg);
    // A separate Run keeps the probe's checks and counts out of the
    // workload's; a failed probe check still fails this run.
    Options po = run.options();
    po.size = 1024;
    Run probe(po, {});
    Mix mix(probe, default_ops(po));
    PhaseSamples s;
    for (int r = 0; r < 4; ++r) mix.round(client, s, false);
    run.check(probe.correct(), "service probe: a reply check failed");
  }
  const auto events = trace.events();
  run.layer("service.parse_us", mean_span_s(events, "parse") * 1e6, "us");
  run.layer("service.cache_lookup_us", mean_span_s(events, "cache-lookup") * 1e6,
            "us");
  run.layer("service.queue_wait_ms", mean_span_s(events, "queue-wait") * 1e3,
            "ms");
  run.layer("service.engine_run_ms", mean_span_s(events, "engine-run") * 1e3,
            "ms");
  run.layer("service.model_eval_ms", mean_span_s(events, "model-eval") * 1e3,
            "ms");
  run.layer("service.render_us", mean_span_s(events, "render") * 1e6, "us");
  const csfma::MetricsSnapshot snap = metrics.snapshot();
  auto counter = [&snap](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : (double)it->second.value;
  };
  const double hits = counter("service.cache.hits");
  const double misses = counter("service.cache.misses");
  run.layer("service.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "share");
  run.layer("service.cache_evictions", counter("service.cache.evictions"),
            "count");
  run.layer("service.errors", counter("service.errors"), "count");
}

}  // namespace perfbench
