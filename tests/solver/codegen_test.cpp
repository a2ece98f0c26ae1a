// End-to-end: generated ldlsolve()/ldlfactor() kernels parse, evaluate and
// match the dense numeric reference; the FMA pass preserves their results.
#include <gtest/gtest.h>

#include <cmath>

#include "frontend/parser.hpp"
#include "hls/fma_insert.hpp"
#include "hls/interp.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace csfma {
namespace {

TEST(Codegen, SolversHaveIncreasingComplexity) {
  auto solvers = paper_solvers();
  ASSERT_EQ(solvers.size(), 3u);
  int prev = 0;
  for (const auto& s : solvers) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    int ops = k.graph.count(OpKind::Mul) + k.graph.count(OpKind::Add) +
              k.graph.count(OpKind::Sub) + k.graph.count(OpKind::Div);
    EXPECT_GT(ops, prev) << s.name;
    prev = ops;
    // Structure: no divisions (CVXGEN stores the inverted diagonal); one
    // mul per L entry in each substitution sweep plus the diagonal scale.
    EXPECT_EQ(k.graph.count(OpKind::Div), 0);
    EXPECT_EQ(k.graph.count(OpKind::Mul), 2 * s.sym.nnz() + s.problem.nk);
  }
}

TEST(Codegen, LdlsolveKernelMatchesDenseReference) {
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    Evaluator ev(k.graph);
    for (std::uint64_t seed : {1ull, 2ull}) {
      KernelInstance inst = make_kernel_instance(s, seed);
      auto out = ev.run(inst.inputs);
      for (int i = 0; i < s.problem.nk; ++i) {
        double got = out.at(element_name("x", i, true));
        double want = inst.expect_x[(size_t)i];
        ASSERT_NEAR(got, want, 1e-9 * (1.0 + std::fabs(want)))
            << s.name << " x[" << i << "]";
      }
    }
  }
}

TEST(Codegen, FmaPassPreservesLdlsolveSemantics) {
  const auto s = make_benchmark_solver("small", 4);
  KernelInfo k = parse_kernel(s.ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
    Cdfg fused = k.graph;
    FmaInsertStats st = insert_fma_units(fused, lib, style);
    EXPECT_GT(st.fma_inserted, 0);
    fused.validate();
    Evaluator base(k.graph), opt(fused);
    KernelInstance inst = make_kernel_instance(s, 7);
    auto ob = base.run(inst.inputs);
    auto of = opt.run(inst.inputs);
    for (int i = 0; i < s.problem.nk; ++i) {
      double vb = ob.at(element_name("x", i, true));
      double vf = of.at(element_name("x", i, true));
      ASSERT_NEAR(vf, vb, 1e-9 * (1.0 + std::fabs(vb))) << i;
    }
  }
}

TEST(Codegen, FmaPassShortensLdlsolveSchedule) {
  // The Fig 15 effect at kernel level: both FMA styles shorten the
  // schedule, FCS more than PCS.
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    int base = schedule_asap(k.graph, lib).length;
    Cdfg pcs = k.graph, fcs = k.graph;
    insert_fma_units(pcs, lib, FmaStyle::Pcs);
    insert_fma_units(fcs, lib, FmaStyle::Fcs);
    int lp = schedule_asap(pcs, lib).length;
    int lf = schedule_asap(fcs, lib).length;
    EXPECT_LT(lp, base) << s.name;
    EXPECT_LT(lf, lp) << s.name;
    double fcs_reduction = 100.0 * (base - lf) / base;
    EXPECT_GT(fcs_reduction, 15.0) << s.name;
  }
}

TEST(Codegen, LdlfactorKernelsListSchedule) {
  // The ldlfactor kernels square their pivots (a node reading one producer
  // twice); the list scheduler must finish them, within the ASAP bound,
  // with and without FMA insertion and under an FMA-unit limit.
  const OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (const auto& s : paper_solvers()) {
    for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
      KernelInfo k = parse_kernel(s.ldlfactor_src);
      insert_fma_units(k.graph, lib, style);
      const int asap = schedule_asap(k.graph, lib).length;
      EXPECT_EQ(schedule_list(k.graph, lib, {}).length, asap) << s.name;
      ResourceLimits lim;
      lim.fma = 4;
      EXPECT_GE(schedule_list(k.graph, lib, lim).length, asap) << s.name;
    }
  }
}

TEST(Codegen, LdlfactorKernelMatchesDenseReference) {
  const auto s = make_benchmark_solver("small", 4);
  KernelInfo k = parse_kernel(s.ldlfactor_src);
  Evaluator ev(k.graph);
  // Feed the KKT values in the generator's input layout.
  Rng rng(9);
  std::vector<double> phi((size_t)s.problem.nz, 0.0);
  for (int i : s.problem.input_indices()) phi[(size_t)i] = rng.next_double(0.1, 2.0);
  Dense kk = kkt_matrix(s.problem, phi, 1e-7);
  LdlFactors f = ldl_factor_dense(kk);
  auto pat = kkt_pattern(s.problem);
  std::map<std::string, double> in;
  for (int i = 0; i < s.problem.nk; ++i)
    in[element_name("Kd", i, true)] = kk.at(i, i);
  int idx = 0;
  for (int j = 0; j < s.problem.nk; ++j)
    for (int i = j + 1; i < s.problem.nk; ++i)
      if (pat[(size_t)i][(size_t)j]) in[element_name("Kl", idx++, true)] = kk.at(i, j);
  auto out = ev.run(in);
  for (int i = 0; i < s.problem.nk; ++i) {
    ASSERT_NEAR(out.at(element_name("dd", i, true)), f.d[(size_t)i],
                1e-9 * (1 + std::fabs(f.d[(size_t)i])));
  }
  for (int m = 0; m < s.sym.nnz(); ++m) {
    double want = f.l.at(s.sym.row[(size_t)m], s.sym.col[(size_t)m]);
    ASSERT_NEAR(out.at(element_name("Lv", m, true)), want,
                1e-9 * (1 + std::fabs(want)));
  }
}

}  // namespace
}  // namespace csfma
