#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "engine/sim_engine.hpp"
#include "harness.hpp"
#include "telemetry/json.hpp"
#include "telemetry/report.hpp"

namespace perfbench {

bool References::load(const std::string& path, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, seed, key, value, extra;
    if (!(ls >> workload >> seed >> key >> value) || (ls >> extra) ||
        seed.size() > 19 ||
        seed.find_first_not_of("0123456789") != std::string::npos) {
      *err = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    table_[{workload, std::stoull(seed)}][key] = value;
  }
  return true;
}

std::map<std::string, std::string> References::entries(
    const std::string& workload, std::uint64_t seed) const {
  auto it = table_.find({workload, seed});
  return it == table_.end() ? std::map<std::string, std::string>{}
                            : it->second;
}

void Run::end_to_end(const std::string& name, double value,
                     const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

std::optional<double> Run::end_to_end_value(const std::string& name) const {
  for (const Metric& m : e2e_)
    if (m.name == name) return m.value;
  return std::nullopt;
}

void Run::layer(const std::string& name, double value,
                const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Run::figure(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  figures_.push_back({{name, value, unit}, samples});
}

void Run::missing(const std::string& name, const std::string& reason) {
  missing_.push_back({name, reason});
}

void Run::count(const std::string& name, std::uint64_t value) {
  counts_[name] = value;
}

void Run::add_count(const std::string& name, std::uint64_t delta) {
  counts_[name] += delta;
}

void Run::attribute(const std::string& layer, double seconds) {
  for (auto& [name, s] : attr_) {
    if (name == layer) {
      s += seconds;
      return;
    }
  }
  attr_.push_back({layer, seconds});
}

void Run::metadata(const std::string& key, const std::string& value) {
  meta_.push_back({key, value});
}

void Run::output(const std::string& key, const std::string& value) {
  outputs_.push_back({key, value});
}

void Run::check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Run::verify_outputs() {
  if (opts_.record || opts_.size != 0 || refs_.empty()) return;
  std::set<std::string> seen;
  for (const auto& [key, value] : outputs_) {
    seen.insert(key);
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      check(false, "output " + key + " has no reference value");
    } else if (it->second != value) {
      check(false, "output " + key + " = " + value + ", reference " +
                       it->second);
    }
  }
  for (const auto& [key, value] : refs_) {
    if (!seen.count(key)) check(false, "reference " + key + " not produced");
  }
}

double Run::unattributed_share() const {
  double covered = 0.0;
  for (const auto& [name, s] : attr_) covered += s;
  return attr_wall_s_ > 0.0 ? (attr_wall_s_ - covered) / attr_wall_s_ : 0.0;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Run::print() const {
  const Options& o = opts_;
  std::printf("# perfbench %s seed=%llu seconds=%s trace=%d\n",
              o.workload.c_str(), (unsigned long long)o.seed,
              number(o.seconds).c_str(), o.trace ? 1 : 0);
  for (const auto& [k, v] : meta_) std::printf("meta %s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : counts_)
    std::printf("count %s %llu\n", k.c_str(), (unsigned long long)v);
  for (const auto& [k, v] : outputs_) {
    if (o.record) {
      std::printf("ref %s %llu %s %s\n", o.workload.c_str(),
                  (unsigned long long)o.seed, k.c_str(), v.c_str());
    } else {
      std::printf("output %s %s\n", k.c_str(), v.c_str());
    }
  }
  for (const auto& [m, n] : figures_) {
    std::printf("figure %s %s %s", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    if (n > 0) std::printf(" (n=%llu)", (unsigned long long)n);
    std::printf("\n");
  }
  for (const Metric& m : e2e_)
    std::printf("metric %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  for (const Metric& m : layers_)
    std::printf("layer %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  if (attr_wall_s_ > 0.0) {
    double covered = 0.0;
    std::printf("attribution wall %.6f s\n", attr_wall_s_);
    for (const auto& [name, s] : attr_) {
      covered += s;
      std::printf("attribution %s %.6f s %.1f%%\n", name.c_str(), s,
                  100.0 * s / attr_wall_s_);
    }
    std::printf("attribution unattributed %.6f s %.1f%%\n",
                attr_wall_s_ - covered, 100.0 * unattributed_share());
  }
  for (const auto& [k, why] : missing_)
    std::printf("missing %s: %s\n", k.c_str(), why.c_str());
  for (const auto& f : check_failures_)
    std::printf("check FAILED: %s\n", f.c_str());
  std::printf("fail_ratio %s (%llu of %llu operations failed or refused)\n",
              number(attempted_ > 0 ? (double)failed_ / (double)attempted_
                                    : 0.0)
                  .c_str(),
              (unsigned long long)failed_, (unsigned long long)attempted_);

  csfma::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct());
  w.key("attempted");
  w.value(attempted_);
  w.key("failed");
  w.value(failed_);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : o.trace ? layers_ : e2e_) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

void SetupSamples::time(const std::function<void()>& setup) {
  const Stopwatch sw;
  setup();
  const Elapsed e = sw.elapsed();
  cpu.push_back(e.cpu);
  wall.push_back(e.wall);
}

namespace {

/// Report a gated metric.  A value that cannot be computed (no successful
/// sample) fails the run instead of reading as 0.
void gated(Run& run, const std::string& name, std::optional<double> value,
           const std::string& unit) {
  run.check(value.has_value(),
            name + ": no successful samples to compute it from");
  if (value) run.end_to_end(name, *value, unit);
}

void figure(Run& run, const std::string& name, std::optional<double> value,
            const std::string& unit, std::uint64_t samples = 0) {
  if (value) run.figure(name, *value, unit, samples);
}

/// Gated metric `name`: `measured` times the host-speed correction
/// `factor`.  The value as measured is printed as the figure raw.<name>.
void gated_scaled(Run& run, const std::string& name,
                  std::optional<double> measured, std::optional<double> factor,
                  const std::string& unit) {
  figure(run, "raw." + name, measured, unit);
  gated(run, name,
        measured && factor ? std::optional<double>(*measured * *factor)
                           : std::nullopt,
        unit);
}

/// `nominal` over `measured`, when `measured` is a positive value.
std::optional<double> ratio(double nominal, std::optional<double> measured) {
  return measured && *measured > 0.0
             ? std::optional<double>(nominal / *measured)
             : std::nullopt;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The table the kernel's memory part reads: 4 MiB of fixed pseudo-random
/// words, more than a core's L2.  Built once and only read, so concurrent
/// kernels share it and it adds 4 MiB to the peak RSS of every run.
const std::vector<std::uint64_t>& reference_table() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 19);
    std::uint64_t state = 1;
    for (auto& w : t) w = splitmix(state);
    return t;
  }();
  return table;
}

}  // namespace

std::uint64_t reference_kernel() {
  // Compute: 4x4-word multiplies of fresh vectors, toggles between results.
  constexpr int kMultiplies = 80000;
  // Memory: data-dependent branches on random reads of the table.
  constexpr int kReads = 300000;
  const std::vector<std::uint64_t>& table = reference_table();
  const std::size_t mask = table.size() - 1;
  std::uint64_t state = 0x243f6a8885a308d3ULL, prev = 0, toggles = 0;
  for (int i = 0; i < kMultiplies; ++i) {
    std::vector<std::uint64_t> a(4), b(4), product(8);
    for (auto& w : a) w = splitmix(state);
    for (auto& w : b) w = splitmix(state);
    for (std::size_t j = 0; j < 4; ++j) {
      unsigned __int128 carry = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        const unsigned __int128 t =
            (unsigned __int128)a[j] * b[k] + product[j + k] + carry;
        product[j + k] = (std::uint64_t)t;
        carry = t >> 64;
      }
      product[j + 4] = (std::uint64_t)carry;
    }
    const std::uint64_t word = product[3] ^ product[4];
    toggles += (std::uint64_t)std::popcount(word ^ prev);
    prev = word;
  }
  for (int i = 0; i < kReads; ++i) {
    const std::uint64_t w = table[splitmix(state) & mask];
    if (w & 1) {
      toggles += (std::uint64_t)std::popcount(w ^ prev);
    } else {
      toggles ^= w >> 3;
    }
  }
  return toggles;
}

void HostSpeed::sample() {
  // The kernels' results go here so that the compiler keeps them.
  static std::atomic<std::uint64_t> sink{0};
  reference_table();  // built outside the timed region
  Stopwatch sw;
  sink += reference_kernel();
  cpu_1t.push_back(sw.elapsed().cpu);
  sw = Stopwatch();
  std::vector<std::thread> pool;
  for (int w = 0; w < kMtWorkers; ++w)
    pool.emplace_back([] { sink += reference_kernel(); });
  for (auto& t : pool) t.join();
  cpu_mt.push_back(sw.elapsed().cpu);
}

std::optional<double> HostSpeed::speed_1t() const {
  return ratio(kNominalReferenceS, median(cpu_1t));
}

std::optional<double> HostSpeed::speed_mt() const {
  return ratio(kNominalReferenceS * kMtWorkers, median(cpu_mt));
}

void report_setup(Run& run, const SetupSamples& samples,
                  const HostSpeed& host) {
  gated_scaled(run, "setup_s", median(samples.cpu), host.speed_1t(), "s");
  figure(run, "setup_wall_s", median(samples.wall), "s", samples.wall.size());
}

void report_peak_rss(Run& run) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  run.end_to_end("peak_rss_mb", (double)ru.ru_maxrss / 1024.0, "MB");
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return (double)t.tv_sec + (double)t.tv_nsec * 1e-9;
}

void RoundRates::add(double items_1t, const Elapsed& t1, double items_mt,
                     const Elapsed& tm) {
  if (!(items_1t > 0.0 && items_mt > 0.0 && t1.wall > 0.0 && tm.wall > 0.0 &&
        t1.cpu > 0.0 && tm.cpu > 0.0))
    return;
  wall_1t.push_back(items_1t / t1.wall);
  cpu_1t.push_back(items_1t / t1.cpu);
  wall_mt.push_back(items_mt / tm.wall);
  cpu_mt.push_back(items_mt / tm.cpu);
  scaling.push_back(wall_mt.back() / wall_1t.back());
}

void report_rates_and_latency(Run& run, const RoundRates& rates,
                              const ClassTimes& classes,
                              const std::vector<std::string>& gated_classes,
                              const HostSpeed& host) {
  // Times scale by the host speed, rates by its inverse.
  const std::optional<double> speed_1t = host.speed_1t();
  const std::optional<double> speed_mt = host.speed_mt();
  figure(run, "host.speed_1t", speed_1t, "ratio", host.cpu_1t.size());
  figure(run, "host.speed_mt", speed_mt, "ratio", host.cpu_mt.size());
  // The rate three rounds in four reach: on a shared host a round runs
  // markedly faster whenever a neighbour idles, and the lower quartile
  // tracks the common, contended state.
  gated_scaled(run, "cpu_throughput_1t", quantile(rates.cpu_1t, 0.25),
               ratio(1.0, speed_1t), "1/s");
  gated_scaled(run, "cpu_throughput_mt", quantile(rates.cpu_mt, 0.25),
               ratio(1.0, speed_mt), "1/s");
  // Both sides of the ratio come from the same round, so a change of host
  // speed between rounds cancels.
  gated(run, "scaling_mt", median(rates.scaling), "ratio");
  figure(run, "wall_throughput_1t", median(rates.wall_1t), "1/s",
         rates.wall_1t.size());
  figure(run, "wall_throughput_mt", median(rates.wall_mt), "1/s",
         rates.wall_mt.size());
  auto class_figures = [&run](
                           const std::map<std::string, std::vector<double>>& m,
                           const std::string& kind) {
    for (const auto& [cls, v] : m) {
      figure(run, "class." + cls + "." + kind + "_p50_ms", quantile(v, 0.5),
             "ms", v.size());
      figure(run, "class." + cls + "." + kind + "_p90_ms", quantile(v, 0.9),
             "ms", v.size());
    }
  };
  class_figures(classes.cpu_ms, "cpu");
  class_figures(classes.wall_ms, "wall");
  std::vector<double> cpu50, cpu90, wall50, wall90;
  bool complete = true;
  for (const std::string& cls : gated_classes) {
    auto it = classes.cpu_ms.find(cls);
    if (it == classes.cpu_ms.end() || it->second.empty()) {
      run.check(false, "class " + cls + " has no successful request");
      complete = false;
      continue;
    }
    const auto& wall = classes.wall_ms.at(cls);
    cpu50.push_back(*quantile(it->second, 0.5));
    cpu90.push_back(*quantile(it->second, 0.9));
    wall50.push_back(*quantile(wall, 0.5));
    wall90.push_back(*quantile(wall, 0.9));
  }
  // A class without samples leaves the geometric means undefined.
  auto mean_of = [complete](const std::vector<double>& v) {
    return complete ? geomean(v) : std::nullopt;
  };
  gated_scaled(run, "request_cpu_p50_ms", mean_of(cpu50), speed_1t, "ms");
  gated_scaled(run, "request_cpu_p90_ms", mean_of(cpu90), speed_1t, "ms");
  figure(run, "request_wall_p50_ms", mean_of(wall50), "ms");
  figure(run, "request_wall_p90_ms", mean_of(wall90), "ms");
}

void report_trace_overhead(Run& run, const Elapsed& untraced,
                           const Elapsed& traced) {
  run.figure("telemetry.untraced_cpu_s", untraced.cpu, "s");
  run.figure("telemetry.traced_cpu_s", traced.cpu, "s");
  run.figure("telemetry.untraced_wall_s", untraced.wall, "s");
  run.figure("telemetry.traced_wall_s", traced.wall, "s");
  run.layer("telemetry.trace_overhead",
            untraced.cpu > 0.0 ? traced.cpu / untraced.cpu - 1.0 : 0.0,
            "share");
}

void run_workload(Run& run) {
  const Options& o = run.options();
  const unsigned hw = std::thread::hardware_concurrency();
  run.metadata("host", csfma::host_fingerprint());
  run.metadata("nproc", std::to_string(hw));
  run.metadata("compiler", PERFBENCH_COMPILER);
  run.metadata("build_type", PERFBENCH_BUILD_TYPE);
  run.metadata("engine_backend",
               csfma::to_string(csfma::EngineConfig{}.backend));
  run.metadata("workers", "1," + std::to_string(kMtWorkers));
  run.metadata("seed", std::to_string(o.seed));
  run.metadata("git", csfma::git_describe());
  if (hw > 0 && hw < (unsigned)kMtWorkers)
    run.metadata("note", "fewer hardware threads than workers; the engine "
                         "clamps the multi-threaded runs");
  try {
    if (o.workload == "batch_ieee") {
      run_batch_ieee(run);
    } else if (o.workload == "chained_recurrence") {
      run_chained_recurrence(run);
    } else if (o.workload == "service_mix") {
      run_service_mix(run);
    } else {
      run_hls_ldlsolve(run);
    }
    if (o.trace) {
      run.layer("attr.unattributed_share", run.unattributed_share(), "share");
      run_layer_probes(run);
    }
  } catch (const std::exception& e) {
    run.failed();
    run.check(false, std::string("exception: ") + e.what());
  }
  run.verify_outputs();
}

}  // namespace perfbench
