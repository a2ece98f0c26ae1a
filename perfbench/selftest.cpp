// Self-test of the benchmark: the statistics helpers at small sample
// counts, strict argument parsing, a corrupted reference value (which must
// fail the run), a service that refuses a phase (which must fail the run
// and leave the metrics resting on that phase unreported), and a minimal
// smoke run of every workload.
//   perfbench_selftest        (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(std::optional<double> v, double want) {
  return v && std::fabs(*v - want) < 1e-12;
}

void test_stats() {
  expect(!quantile({}, 0.5), "quantile of no samples is missing");
  expect(!median({}), "median of no samples is missing");
  expect(near(median({3.0}), 3.0), "median of one sample");
  expect(near(quantile({3.0}, 0.9), 3.0), "p90 of one sample");
  expect(near(median({4.0, 1.0}), 2.5), "median of two samples");
  expect(near(median({5.0, 1.0, 3.0}), 3.0), "median of three samples");
  expect(near(quantile({1.0, 2.0}, 0.9), 1.9), "p90 of two samples");
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  expect(near(quantile(ten, 0.9), 9.1), "p90 of 1..10");
  expect(near(quantile(ten, 0.0), 1.0) && near(quantile(ten, 1.0), 10.0),
         "quantile endpoints");
  expect(near(geomean({2.0, 8.0}), 4.0), "geomean");
  expect(!geomean({}) && !geomean({1.0, 0.0}), "geomean needs positive values");
  Fnv64 h;
  expect(h.value() == 0xcbf29ce484222325ull, "FNV offset basis");
  h.bytes("a");
  expect(hex16(h.value()) == "af63dc4c8601ec8c", "FNV-1a of \"a\"");
}

void test_cli() {
  std::string err;
  auto parse = [&](std::vector<std::string> a) { return parse_args(a, &err); };
  const auto ok = parse({"--workload", "batch_ieee", "--seed", "7", "--seconds",
                         "2.5", "--trace", "1", "--size", "64"});
  expect(ok && ok->seed == 7 && ok->seconds == 2.5 && ok->trace &&
             ok->size == 64,
         "valid arguments parse");
  expect(!parse({"--workload", "nope"}), "unknown workload is rejected");
  expect(!parse({"--workload", "batch_ieee", "--seed", "x1"}),
         "non-numeric seed is rejected");
  expect(!parse({"--workload", "batch_ieee", "--seed", "-1"}),
         "negative seed is rejected");
  expect(!parse({"--workload", "batch_ieee", "--size", "1e3"}),
         "non-numeric size is rejected");
  expect(!parse({"--workload", "batch_ieee", "--size", "0"}),
         "zero size is rejected");
  expect(!parse({"--workload", "batch_ieee", "--size", "65537"}),
         "oversized size is rejected");
  expect(!parse({"--workload", "batch_ieee", "--seconds", "0"}),
         "zero seconds is rejected");
  expect(!parse({"--workload", "batch_ieee", "--trace", "2"}),
         "trace other than 0/1 is rejected");
  expect(!parse({"--workload", "batch_ieee", "--help"}),
         "unknown flag is rejected");
  expect(!parse({"--workload", "batch_ieee", "--seed"}),
         "missing value is rejected");
  expect(!parse({"--workload", "batch_ieee", "--seed", "1", "--seed", "2"}),
         "repeated flag is rejected");
  expect(!parse({"--seed", "1"}), "missing workload is rejected");
}

Run make_run(const std::string& workload, std::uint64_t size,
             std::map<std::string, std::string> refs = {}) {
  Options o;
  o.workload = workload;
  o.seed = kDefaultSeed;
  o.seconds = 0.05;
  o.size = size;
  return Run(o, std::move(refs));
}

void test_references() {
  References refs;
  std::string err;
  expect(refs.load(PERFBENCH_REFERENCES, &err), "references load: " + err);
  auto entries = refs.entries("hls_ldlsolve", kDefaultSeed);
  expect(!entries.empty(), "hls_ldlsolve has default-seed references");
  expect(!refs.entries("hls_ldlsolve", kHeldOutSeed).empty(),
         "hls_ldlsolve has held-out-seed references");
  {
    Run run = make_run("hls_ldlsolve", 0, entries);
    run_workload(run);
    expect(run.correct(), "hls_ldlsolve matches its references");
  }
  // Corrupt one reference value: the run must fail.
  auto it = entries.find("small.ldlsolve.pcs.cycles");
  expect(it != entries.end(), "reference small.ldlsolve.pcs.cycles exists");
  if (it != entries.end()) it->second = std::to_string(std::stoi(it->second) + 1);
  Run bad = make_run("hls_ldlsolve", 0, entries);
  run_workload(bad);
  expect(!bad.correct(), "a corrupted reference fails the run");

  // A corrupted engine digest fails too.
  auto batch = refs.entries("batch_ieee", kDefaultSeed);
  auto d = batch.find("pcs.chunk0.results_fnv");
  expect(d != batch.end(), "reference pcs.chunk0.results_fnv exists");
  if (d != batch.end()) d->second = "0000000000000000";
  Run bad_batch = make_run("batch_ieee", 0, batch);
  run_workload(bad_batch);
  expect(!bad_batch.correct(), "a corrupted results digest fails the run");
}

void test_smoke() {
  const std::pair<const char*, std::uint64_t> sizes[] = {
      {"batch_ieee", 256},
      {"chained_recurrence", 8},
      {"service_mix", 128},
      {"hls_ldlsolve", 1}};
  for (const auto& [workload, size] : sizes) {
    for (bool trace : {false, true}) {
      Options o;
      o.workload = workload;
      o.seconds = 0.05;
      o.size = size;
      o.trace = trace;
      Run run(o, {});
      run_workload(run);
      expect(run.correct(), std::string(workload) + " smoke run is correct" +
                                (trace ? " (traced)" : ""));
    }
  }
}

/// A service that refuses one phase: its requests become unknown request
/// types, which the session answers with an error.  The run must fail and
/// report no metric that rests on the refused phase, rather than a fast
/// (or zero) one.
void test_refused_phase() {
  const std::pair<const char*, std::vector<const char*>> cases[] = {
      {"miss", {"cpu_throughput_1t", "cpu_throughput_mt", "scaling_mt"}},
      {"miss_mt", {"cpu_throughput_mt", "scaling_mt"}},
      {"hit", {"request_cpu_p50_ms", "request_cpu_p90_ms"}},
      {"sweep", {"request_cpu_p50_ms", "request_cpu_p90_ms"}}};
  for (const auto& [phase, lost] : cases) {
    Run run = make_run("service_mix", 128);
    const std::string refused = phase;
    run_service_mix(run, [&refused](const std::string& p,
                                    const std::string& line) {
      return p == refused ? "{\"type\":\"refuse\"}" : line;
    });
    const std::string what = std::string("service refusing ") + phase;
    expect(!run.correct(), what + ": the run fails");
    for (const char* metric : lost)
      expect(!run.end_to_end_value(metric),
             what + ": " + metric + " is not reported");
    expect(run.end_to_end_value("setup_s").has_value(),
           what + ": unaffected metrics are still reported");
  }
}

}  // namespace

int main() {
  test_stats();
  test_cli();
  test_references();
  test_refused_phase();
  test_smoke();
  std::printf("%s (%d failures)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
