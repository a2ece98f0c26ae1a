// hls_ldlsolve: the Fig 15 compile path.  A request is one pipeline
//   parse_kernel -> insert_fma_units (PCS or FCS) -> schedule
// over one of the six kernels of paper_solvers() (ldlsolve and ldlfactor
// of the three solvers).  ldlsolve kernels are list-scheduled with 39 FMA
// units, as in Fig 15.  ldlfactor kernels are ASAP-scheduled, as
// bench/ext_ldlfactor does: schedule_list never finishes them, because a
// node that reads the same producer twice (x*x) never becomes ready.
//
// Each round runs the twelve pipelines in a seed-dependent order, first
// one at a time and then on kMtWorkers threads.
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace perfbench {

namespace {

constexpr int kMinRounds = 3;
constexpr int kFmaUnits = 39;  // the paper's unit budget (Sec. IV-D)

struct Pipeline {
  std::string name;  // <solver>.<kernel>.<style>
  const std::string* source = nullptr;
  bool list_schedule = true;
  csfma::FmaStyle style = csfma::FmaStyle::Pcs;
};

struct Compiled {
  int cycles = 0;
  int fma_inserted = 0;
  double parse_s = 0, insert_s = 0, schedule_s = 0;
};

struct Flow {
  std::vector<csfma::BenchmarkSolver> solvers;
  csfma::OperatorLibrary lib;
  csfma::ResourceLimits limits;
  std::vector<Pipeline> pipelines;
};

/// The pipelines point into `solvers`, whose buffer a move keeps.
Flow make_flow() {
  Flow f{csfma::paper_solvers(),
         csfma::OperatorLibrary::for_device(csfma::virtex6()),
         {},
         {}};
  f.limits.fma = kFmaUnits;
  for (const auto& s : f.solvers) {
    for (bool solve : {true, false}) {
      for (csfma::FmaStyle style : {csfma::FmaStyle::Pcs, csfma::FmaStyle::Fcs}) {
        f.pipelines.push_back(
            {s.name + (solve ? ".ldlsolve." : ".ldlfactor.") +
                 (style == csfma::FmaStyle::Pcs ? "pcs" : "fcs"),
             solve ? &s.ldlsolve_src : &s.ldlfactor_src, solve, style});
      }
    }
  }
  return f;
}

Compiled compile(const Flow& f, const Pipeline& p,
                 csfma::TraceSession* trace = nullptr,
                 csfma::MetricsRegistry* metrics = nullptr) {
  Compiled c;
  const double t0 = now_s();
  csfma::KernelInfo k = csfma::parse_kernel(*p.source, trace);
  const double t1 = now_s();
  const csfma::FmaInsertStats st = csfma::insert_fma_units(k.graph, f.lib, p.style);
  const double t2 = now_s();
  const csfma::Schedule s = p.list_schedule
                                ? csfma::schedule_list(k.graph, f.lib, f.limits)
                                : csfma::schedule_asap(k.graph, f.lib);
  const double t3 = now_s();
  if (metrics != nullptr)
    csfma::record_schedule_metrics(k.graph, f.lib, s, *metrics, "hls." + p.name);
  c.cycles = s.length;
  c.fma_inserted = st.fma_inserted;
  c.parse_s = t1 - t0;
  c.insert_s = t2 - t1;
  c.schedule_s = t3 - t2;
  return c;
}

}  // namespace

void run_hls_ldlsolve(Run& run) {
  const Options& o = run.options();
  const Flow flow = make_flow();

  const std::size_t n = flow.pipelines.size();
  std::vector<int> ref_cycles(n);
  std::uint64_t fma_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Compiled c = compile(flow, flow.pipelines[i]);
    ref_cycles[i] = c.cycles;
    fma_total += (std::uint64_t)c.fma_inserted;
    run.output(flow.pipelines[i].name + ".cycles", std::to_string(c.cycles));
    run.output(flow.pipelines[i].name + ".fma_inserted",
               std::to_string(c.fma_inserted));
  }
  run.count("pipelines.per_round", n);
  run.count("fma_units_inserted.per_round", fma_total);

  RoundRates rates;
  ClassTimes classes;
  SetupSamples setups;
  HostSpeed host;
  Elapsed untraced, traced;
  std::uint64_t compiled = 0;
  const double t_start = now_s();
  for (int round = 0;; ++round) {
    // Traced runs stop on a whole plain/instrumented pair.
    if (round >= kMinRounds && now_s() - t_start >= o.seconds &&
        (!o.trace || round % 2 == 0))
      break;
    const bool instrumented = o.trace && round % 2 == 1;
    if (!o.trace) {
      setups.time([] { make_flow(); });
      host.sample();
    }
    // Seed-dependent order (Fisher-Yates).
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    csfma::Rng rng(o.seed ^
                   ((std::uint64_t)(round / 2 + 1) * 0x9e3779b97f4a7c15ULL));
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(order[i], order[(std::size_t)rng.next_below(i + 1)]);

    csfma::TraceSession trace;
    csfma::MetricsRegistry metrics;
    Elapsed busy_1t;
    double done_1t = 0;
    for (std::size_t i : order) {
      const Pipeline& p = flow.pipelines[i];
      run.attempted();
      const Stopwatch sw;
      try {
        const Compiled c = instrumented ? compile(flow, p, &trace, &metrics)
                                        : compile(flow, p);
        const Elapsed dt = sw.elapsed();
        run.check(c.cycles == ref_cycles[i],
                  p.name + ": schedule length changed between rounds");
        busy_1t += dt;
        ++done_1t;
        ++compiled;
        if (instrumented) {
          run.attribution_wall(dt.wall);
          run.attribute("frontend.parse_kernel", c.parse_s);
          run.attribute("hls.insert_fma_units", c.insert_s);
          run.attribute("hls.schedule", c.schedule_s);
        } else {
          classes.add(p.name, dt);
        }
      } catch (const std::exception& e) {
        run.failed();
        run.check(false, p.name + ": " + e.what());
      }
    }

    // The same pipelines on kMtWorkers threads.
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> errors{0};
    std::vector<int> cycles(n, -1);
    const Stopwatch sw;
    std::vector<std::thread> pool;
    for (int w = 0; w < kMtWorkers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t j = next++; j < n; j = next++) {
          try {
            cycles[order[j]] = compile(flow, flow.pipelines[order[j]]).cycles;
          } catch (const std::exception&) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    const Elapsed busy_mt = sw.elapsed();
    run.attempted(n);
    run.failed(errors.load());
    compiled += n - errors.load();
    run.check(cycles == ref_cycles,
              "multi-threaded compiles differ from the check pass");
    (instrumented ? traced : untraced) += busy_1t;  // only 1t is traced
    if (!instrumented)
      rates.add(done_1t, busy_1t, (double)(n - errors.load()), busy_mt);
  }
  run.count("pipelines.compiled", compiled);

  if (o.trace) {
    report_trace_overhead(run, untraced, traced);
    run.missing("hls.schedule_list (ldlfactor kernels)",
                "schedule_list does not terminate on kernels with a node that "
                "reads one producer twice; they are ASAP-scheduled");
  } else {
    std::vector<std::string> names;
    for (const Pipeline& p : flow.pipelines) names.push_back(p.name);
    report_rates_and_latency(run, rates, classes, names, host);
    report_peak_rss(run);
    report_setup(run, setups, host);
  }
}

/// hls/frontend/solver probes, shared with probes.cpp.
void probe_compile_layers(Run& run) {
  std::vector<double> generate_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    const auto solvers = csfma::paper_solvers();
    generate_ms.push_back((now_s() - t0) * 1e3);
  }
  run.layer("solver.generate_ms", median(generate_ms).value_or(0.0), "ms");

  const Flow flow = make_flow();
  std::vector<double> parse_ms, insert_ms, list_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Pipeline& p : flow.pipelines) {
      const Compiled c = compile(flow, p);
      parse_ms.push_back(c.parse_s * 1e3);
      insert_ms.push_back(c.insert_s * 1e3);
      if (p.list_schedule) list_ms.push_back(c.schedule_s * 1e3);
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / (double)v.size();
  };
  run.layer("frontend.parse_kernel_ms", mean(parse_ms), "ms");
  run.layer("hls.insert_fma_ms", mean(insert_ms), "ms");
  run.layer("hls.schedule_list_ms", mean(list_ms), "ms");
}

}  // namespace perfbench
