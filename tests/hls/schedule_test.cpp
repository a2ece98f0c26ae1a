#include "hls/schedule.hpp"

#include <gtest/gtest.h>

#include <string>

namespace csfma {
namespace {

OperatorLibrary lib() { return OperatorLibrary::for_device(virtex6()); }

/// Indexed variable name such as "x3" (appended piecewise: GCC 12 flags
/// `"x" + std::to_string(i)` with a false -Wrestrict at -O3).
std::string var(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

Cdfg chain_of_mas(int n) {
  // x[i+1] = a*x[i] + b : a dependent multiply-add chain of length n.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int x = g.add_input("x0");
  for (int i = 0; i < n; ++i) {
    int m = g.add_op(OpKind::Mul, {a, x});
    x = g.add_op(OpKind::Add, {m, b});
  }
  g.add_output("x", x);
  return g;
}

TEST(Schedule, AsapChainLength) {
  OperatorLibrary l = lib();
  const int mul = l.attr(OpKind::Mul).latency;
  const int add = l.attr(OpKind::Add).latency;
  for (int n : {1, 3, 10}) {
    Cdfg g = chain_of_mas(n);
    Schedule s = schedule_asap(g, l);
    EXPECT_EQ(s.length, n * (mul + add));
  }
}

TEST(Schedule, AsapRespectsDependencies) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(5);
  Schedule s = schedule_asap(g, l);
  for (int id : g.live_nodes()) {
    const Node& n = g.node(id);
    for (int a : n.args) {
      int avail = s.start[(size_t)a] + l.attr(g.node(a).kind, g.node(a).style).latency;
      EXPECT_GE(s.start[(size_t)id], avail);
    }
  }
}

TEST(Schedule, AlapMatchesAsapOnPureChain) {
  // A single dependency chain has zero mobility on every *operation*
  // (shared inputs like the re-used addend have slack toward later uses).
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(4);
  Schedule asap = schedule_asap(g, l);
  Schedule alap = schedule_alap(g, l, asap.length);
  for (int id : g.live_nodes()) {
    OpKind k = g.node(id).kind;
    if (k == OpKind::Input || k == OpKind::Const || k == OpKind::Output)
      continue;
    EXPECT_EQ(asap.start[(size_t)id], alap.start[(size_t)id]) << id;
  }
}

TEST(Schedule, CriticalPathDetection) {
  OperatorLibrary l = lib();
  // Two parallel paths of different depth into one add: only the deep path
  // is critical.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int deep = g.add_op(OpKind::Mul, {a, b});
  deep = g.add_op(OpKind::Mul, {deep, b});
  int shallow = g.add_op(OpKind::Add, {a, b});
  int join = g.add_op(OpKind::Add, {shallow, deep});
  g.add_output("o", join);
  auto crit = critical_nodes(g, l);
  EXPECT_TRUE(crit[(size_t)deep]);
  EXPECT_TRUE(crit[(size_t)join]);
  EXPECT_FALSE(crit[(size_t)shallow]);
}

TEST(Schedule, ListUnlimitedMatchesAsap) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(6);
  Schedule asap = schedule_asap(g, l);
  Schedule list = schedule_list(g, l, {});
  EXPECT_EQ(list.length, asap.length);
}

TEST(Schedule, ListHandlesRepeatedOperands) {
  // y = x*x reads one producer twice; users() lists y once, so y must wait
  // for x once.  z = y*y + y repeats a producer inside a wider node.
  OperatorLibrary l = lib();
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int x = g.add_op(OpKind::Add, {a, b});
  int y = g.add_op(OpKind::Mul, {x, x});
  int yy = g.add_op(OpKind::Mul, {y, y});
  int z = g.add_op(OpKind::Add, {yy, y});
  g.add_output("z", z);
  const Schedule asap = schedule_asap(g, l);
  for (int limit : {0, 1}) {
    ResourceLimits lim;
    lim.mul = limit;
    lim.add_sub = limit;
    const Schedule list = schedule_list(g, l, lim);
    EXPECT_EQ(list.length, asap.length) << "limit " << limit;
    EXPECT_EQ(list.start[(size_t)y], asap.start[(size_t)y]);
  }
}

TEST(Schedule, ListResourceLimitSerializesIndependentOps) {
  OperatorLibrary l = lib();
  // 8 independent multiplies; a single multiplier issues one per cycle
  // (fully pipelined), so the last one starts at cycle 7.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  std::vector<int> ms;
  for (int i = 0; i < 8; ++i) ms.push_back(g.add_op(OpKind::Mul, {a, b}));
  for (int i = 0; i < 8; ++i) g.add_output(var('o', i), ms[(size_t)i]);
  ResourceLimits lim;
  lim.mul = 1;
  Schedule s = schedule_list(g, l, lim);
  EXPECT_EQ(s.length, 7 + l.attr(OpKind::Mul).latency);
  // With two multipliers it halves.
  lim.mul = 2;
  Schedule s2 = schedule_list(g, l, lim);
  EXPECT_EQ(s2.length, 3 + l.attr(OpKind::Mul).latency);
}

TEST(Schedule, ListNeverBeatsAsap) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(4);
  for (int fma_limit : {1, 2, 4}) {
    ResourceLimits lim;
    lim.mul = fma_limit;
    lim.add_sub = fma_limit;
    Schedule s = schedule_list(g, l, lim);
    EXPECT_GE(s.length, schedule_asap(g, l).length);
  }
}

TEST(Schedule, BaselineLatenciesMatchPaperSetup) {
  // Sec. IV-A: "low latency" 5-cycle multiplier, 4-cycle adder.
  OperatorLibrary l = lib();
  EXPECT_EQ(l.attr(OpKind::Mul).latency, 5);
  EXPECT_EQ(l.attr(OpKind::Add).latency, 4);
  EXPECT_EQ(l.attr(OpKind::Fma, FmaStyle::Pcs).latency, 5);
  EXPECT_EQ(l.attr(OpKind::Fma, FmaStyle::Fcs).latency, 3);
}

TEST(Schedule, ReportSummarizesKindsAndSpans) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(3);
  Schedule s = schedule_asap(g, l);
  std::string rep = schedule_report(g, l, s);
  EXPECT_NE(rep.find("mul: 3 ops"), std::string::npos) << rep;
  EXPECT_NE(rep.find("add: 3 ops"), std::string::npos) << rep;
  EXPECT_NE(rep.find("schedule: 27 cycles"), std::string::npos) << rep;
  EXPECT_NE(rep.find("peak issue width"), std::string::npos) << rep;
}

TEST(Schedule, HigherTargetNeverLengthensPipeline) {
  // Model property: relaxing the clock target can only reduce (or keep)
  // the architecture pipeline depths the oplib derives.
  OperatorLibrary fast = OperatorLibrary::for_device(virtex6(), 250.0);
  OperatorLibrary slow = OperatorLibrary::for_device(virtex6(), 100.0);
  for (OpKind k : {OpKind::Mul, OpKind::Add}) {
    EXPECT_GE(fast.attr(k).latency, slow.attr(k).latency);
  }
  EXPECT_GE(fast.attr(OpKind::Fma, FmaStyle::Pcs).latency,
            slow.attr(OpKind::Fma, FmaStyle::Pcs).latency);
}

}  // namespace
}  // namespace csfma
