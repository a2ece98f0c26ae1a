// The benchmark's run model: options, the reference-value table, and the
// Run record every workload fills in (metrics, exact counts, checked
// outputs, attribution, missing numbers).  main.cpp renders a Run as
// human-readable lines plus the final one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline constexpr const char* kWorkloads[] = {
    "batch_ieee", "chained_recurrence", "service_mix", "hls_ldlsolve"};

/// Seeds with checked-in reference outputs (references.txt): the default
/// seed and one held-out seed.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20261017;

/// Engine worker count of the multi-threaded configurations.
inline constexpr int kMtWorkers = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Request size (ops, chains or 0 = the workload's default).  Reference
  /// outputs apply only at the default size.
  std::uint64_t size = 0;
  /// Print reference lines instead of checking against references.txt.
  bool record = false;
};

/// Parse the command line (argv[1..]) strictly: every flag takes one
/// value, unknown flags, unknown workloads and non-numeric values are
/// errors.  Returns nullopt with *err set on any error.
std::optional<Options> parse_args(const std::vector<std::string>& args,
                                  std::string* err);
std::string usage();

/// Reference outputs: lines "<workload> <seed> <key> <value>" ('#' starts a
/// comment).
class References {
 public:
  /// Returns false (with *err set) when the file cannot be read or a line
  /// is malformed.
  bool load(const std::string& path, std::string* err);
  /// Entries for (workload, seed); empty when the seed has none.
  std::map<std::string, std::string> entries(const std::string& workload,
                                             std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<std::string, std::string>>
      table_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Run {
 public:
  Run(Options opts, std::map<std::string, std::string> refs)
      : opts_(std::move(opts)), refs_(std::move(refs)) {}

  const Options& options() const { return opts_; }

  /// Gated end-to-end metric (printed with --trace 0).
  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  /// The end-to-end metric `name`, when it was reported.
  std::optional<double> end_to_end_value(const std::string& name) const;
  /// Per-layer metric (printed with --trace 1).
  void layer(const std::string& name, double value, const std::string& unit);
  /// A named figure printed for reading only (never part of the result).
  void figure(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0);
  /// A number the program cannot give yet, with the reason.
  void missing(const std::string& name, const std::string& reason);
  /// Exact deterministic count (ops, shards, toggles, cache hits, ...).
  void count(const std::string& name, std::uint64_t value);
  void add_count(const std::string& name, std::uint64_t delta);
  /// Layer self-time of the traced pass, in seconds.
  void attribute(const std::string& layer, double seconds);
  void attribution_wall(double seconds) { attr_wall_s_ += seconds; }
  void metadata(const std::string& key, const std::string& value);

  /// An output value checked against the reference table (when the seed
  /// has references and the request size is the default).
  void output(const std::string& key, const std::string& value);
  /// A self-consistency check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);

  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  /// Compare the recorded outputs with the reference table; call once
  /// after the workload has finished.
  void verify_outputs();

  bool correct() const { return check_failures_.empty(); }
  /// Share of the attributed wall time no layer claimed (0 when nothing
  /// was attributed).
  double unattributed_share() const;
  /// Print every section and the final JSON line to stdout.
  void print() const;

 private:
  Options opts_;
  std::map<std::string, std::string> refs_;
  std::vector<Metric> e2e_, layers_;
  std::vector<std::pair<Metric, std::uint64_t>> figures_;
  std::vector<std::pair<std::string, std::string>> missing_, meta_;
  std::map<std::string, std::uint64_t> counts_;
  std::vector<std::pair<std::string, double>> attr_;
  double attr_wall_s_ = 0.0;
  std::vector<std::pair<std::string, std::string>> outputs_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Steady-clock seconds since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process.
double process_cpu_s();

/// Wall and process-CPU seconds.
struct Elapsed {
  double wall = 0.0, cpu = 0.0;
  Elapsed& operator+=(const Elapsed& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

/// Wall and process-CPU time elapsed since construction.
class Stopwatch {
 public:
  Stopwatch() : start_{now_s(), process_cpu_s()} {}
  Elapsed elapsed() const {
    return {now_s() - start_.wall, process_cpu_s() - start_.cpu};
  }

 private:
  Elapsed start_;
};

/// Per-round rates on 1 worker and on kMtWorkers workers: items per wall
/// second and per CPU second, and the round's parallel speed-up.  Only
/// successful requests count: `items_*` are the items they completed and
/// `t1`/`tm` the time they took.  A round in which either side completed
/// nothing adds no sample.
struct RoundRates {
  std::vector<double> wall_1t, wall_mt, cpu_1t, cpu_mt, scaling;
  void add(double items_1t, const Elapsed& t1, double items_mt,
           const Elapsed& tm);
};

/// Request times per latency class, in milliseconds.
struct ClassTimes {
  std::map<std::string, std::vector<double>> wall_ms, cpu_ms;
  void add(const std::string& cls, const Elapsed& t) {
    wall_ms[cls].push_back(t.wall * 1e3);
    cpu_ms[cls].push_back(t.cpu * 1e3);
  }
};

/// Set-up timings, one per round of the measurement loop, so that they
/// sample the host's fast and slow spells in the same proportion as the
/// requests do.
struct SetupSamples {
  std::vector<double> cpu, wall;
  void time(const std::function<void()>& setup);
};

/// The host-speed yardstick.  A shared host changes speed between runs
/// (by up to 1.6x on the 4-vCPU VM the bounds were set on), and CPU time
/// moves with it.  reference_kernel() is a fixed computation owned by the
/// benchmark: multi-word multiplies of small allocated vectors, bit counts
/// and random reads of a 4 MiB table, the kind of work the simulator's
/// inner loops do.  It never calls the program, so no change to the
/// program moves it.  Every round
/// times it once on one thread and once on kMtWorkers threads at the same
/// time, and the run's CPU times are given at the nominal host speed, at
/// which the kernel takes kNominalReferenceS of CPU time.
inline constexpr double kNominalReferenceS = 0.02;
std::uint64_t reference_kernel();

struct HostSpeed {
  std::vector<double> cpu_1t, cpu_mt;
  /// Time the kernel once on one thread and once on kMtWorkers threads.
  void sample();
  /// Nominal over measured CPU time of the kernel on one thread, and of
  /// one of kMtWorkers concurrent kernels; medians over the samples.
  std::optional<double> speed_1t() const;
  std::optional<double> speed_mt() const;
};

/// The median set-up CPU time at nominal host speed, reported as setup_s.
void report_setup(Run& run, const SetupSamples& samples,
                  const HostSpeed& host);
/// Peak resident set size of this process, reported as peak_rss_mb.
void report_peak_rss(Run& run);
/// The request-level metrics every workload reports: cpu_throughput_1t /
/// cpu_throughput_mt (lower quartile over rounds of items per CPU second,
/// on 1 and on kMtWorkers workers), scaling_mt (median over rounds of the
/// kMtWorkers-worker wall-clock rate over the 1-worker one, both taken in
/// the same round) and request_cpu_p50_ms / request_cpu_p90_ms (geometric
/// mean over `gated_classes` of each class's CPU p50 / p90).  The CPU-time
/// metrics are at nominal host speed; the values as measured are printed
/// as raw.* figures.  Every class in `classes` is printed as a figure, with
/// the wall-clock equivalents.  A metric with no successful sample to rest
/// on fails the run; it is never reported as 0.
void report_rates_and_latency(Run& run, const RoundRates& rates,
                              const ClassTimes& classes,
                              const std::vector<std::string>& gated_classes,
                              const HostSpeed& host);
/// CPU time of traced rounds over untraced rounds, minus one.
void report_trace_overhead(Run& run, const Elapsed& untraced,
                           const Elapsed& traced);

// Workload entry points (one translation unit each).
void run_batch_ieee(Run& run);
void run_chained_recurrence(Run& run);
/// Maps (phase, request line) to the line service_mix sends; the
/// self-test uses it to make the service refuse a phase.
using LineFilter =
    std::function<std::string(const std::string&, const std::string&)>;
void run_service_mix(Run& run, const LineFilter& filter = {});
void run_hls_ldlsolve(Run& run);
/// The per-layer probe suite every traced run reports.
void run_layer_probes(Run& run);
/// The service.* layer metrics from a short traced service_mix run.
void probe_service_layer(Run& run);
/// The solver.*, frontend.* and hls.* layer metrics.
void probe_compile_layers(Run& run);

/// Dispatch on run.options().workload (already validated), then run the
/// probes when tracing, then verify outputs.  Exceptions from the program
/// under test are counted as failed operations.
void run_workload(Run& run);

}  // namespace perfbench
