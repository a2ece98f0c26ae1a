// eval_design / build_model_chain: the exploration's origin points are
// exactly the fixed Table I builders (component for component), the
// Table II energy anchors hold, evaluation is a pure function of the
// DseConfig (the cacheability contract behind the canonical key), and the
// energy workload reads only the knobs its key holds.
#include "dse/eval.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fpga/architectures.hpp"
#include "fpga/device.hpp"

namespace csfma::dse {
namespace {

void expect_same_chain(const std::vector<Component>& got,
                       const std::vector<Component>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Component& g = got[i];
    const Component& w = want[i];
    EXPECT_EQ(g.name, w.name) << label << "[" << i << "]";
    EXPECT_EQ(g.sub_delays, w.sub_delays) << label << "[" << i << "] "
                                          << g.name;
    EXPECT_EQ(g.area.luts, w.area.luts) << label << "[" << i << "] "
                                        << g.name;
    EXPECT_EQ(g.area.dsps, w.area.dsps) << label << "[" << i << "] "
                                        << g.name;
    EXPECT_EQ(g.off_critical_path, w.off_critical_path)
        << label << "[" << i << "] " << g.name;
  }
}

void expect_same_metrics(const DseMetrics& a, const DseMetrics& b,
                         const std::string& label) {
  EXPECT_EQ(a.delay_ns, b.delay_ns) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz) << label;
  EXPECT_EQ(a.luts, b.luts) << label;
  EXPECT_EQ(a.dsps, b.dsps) << label;
  EXPECT_EQ(a.toggles_per_op, b.toggles_per_op) << label;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << label;
}

TEST(EvalChain, PcsDefaultGeometryMatchesFixedBuilder) {
  const Device dev = virtex6();
  DseConfig cfg;  // unit pcs, block 55, group 11, rwidth 0 -> 55
  expect_same_chain(build_model_chain(cfg, dev), build_pcs_fma(dev), "pcs");
}

TEST(EvalChain, FcsBaselineGeometryMatchesFixedBuilders) {
  const Device dev = virtex6();
  DseConfig cfg;
  cfg.unit = UnitKind::Fcs;
  cfg.block = 29;  // the fixed FCS builders' block size (3 x 29 digits)
  cfg.select = BlockSelect::Lza;
  expect_same_chain(build_model_chain(cfg, dev), build_fcs_fma(dev),
                    "fcs-lza");
  cfg.select = BlockSelect::Zd;
  expect_same_chain(build_model_chain(cfg, dev), build_fcs_fma_zd(dev),
                    "fcs-zd");
}

TEST(EvalChain, DiscreteAndClassicMatchTheFixedBuildersAtDefaultWidth) {
  const Device dev = virtex6();
  DseConfig cfg;
  cfg.unit = UnitKind::Discrete;  // CoreGen pair, concatenated
  std::vector<Component> want = build_coregen_mul(dev);
  const std::vector<Component> add = build_coregen_add(dev);
  want.insert(want.end(), add.begin(), add.end());
  expect_same_chain(build_model_chain(cfg, dev), want, "discrete");

  cfg.unit = UnitKind::Classic;
  expect_same_chain(build_model_chain(cfg, dev), build_flopoco_fused(dev),
                    "classic");
}

TEST(EvalDesign, TableIIEnergyAnchorsHold) {
  // The energy coefficients are calibrated against the Table II anchors
  // with this model's own toggles and LUTs, so the anchor points land
  // exactly: discrete 0.54 nJ, paper-geometry PCS 2.67 nJ.
  DseConfig pcs;
  EXPECT_NEAR(eval_design(pcs).energy_nj, 2.67, 1e-9);
  DseConfig disc;
  disc.unit = UnitKind::Discrete;
  EXPECT_NEAR(eval_design(disc).energy_nj, 0.54, 1e-9);
}

TEST(EvalDesign, PaperPcsPointReportsTheShippingFigures) {
  const DseMetrics m = eval_design(DseConfig{});
  EXPECT_EQ(m.luts, 5802);
  EXPECT_EQ(m.dsps, 21);
  EXPECT_GT(m.fmax_mhz, 0.0);
  EXPECT_GT(m.cycles, 0);
  EXPECT_NEAR(m.delay_ns, m.cycles * 1000.0 / m.fmax_mhz, 1e-12);
}

TEST(EvalDesign, IsAPureFunctionOfTheConfig) {
  DseConfig cfg;
  cfg.unit = UnitKind::Fcs;
  cfg.block = 33;
  cfg.round_width = 11;
  cfg.select = BlockSelect::Zd;
  cfg.depth = 12;
  expect_same_metrics(eval_design(cfg), eval_design(cfg), "fcs");
}

TEST(EvalDesign, KnobsActuallyMoveTheMetrics) {
  // Smaller rounding width trims LUTs; a deeper pipeline adds cycles.
  DseConfig base;
  DseConfig narrow = base;
  narrow.round_width = 11;
  EXPECT_LT(eval_design(narrow).luts, eval_design(base).luts);
  DseConfig deep = base;
  deep.depth = 16;
  DseConfig shallow = base;
  shallow.depth = 2;
  EXPECT_GT(eval_design(deep).cycles, eval_design(shallow).cycles);
}

TEST(EvalDesign, EnergyWorkloadIgnoresOnlyToggleFreeKnobs) {
  for (UnitKind unit : kAllUnitKinds) {
    const std::string name = to_string(unit);
    DseConfig base;
    base.unit = unit;
    base.block = 33;
    base.group = 11;
    base.ops = 16;
    const double toggles = eval_design(base).toggles_per_op;
    ASSERT_GT(toggles, 0.0) << name;

    // Knobs the workload drops: depth and rwidth for every unit, the
    // geometry for all but PCS, the block selection for all but FCS.
    std::vector<DseConfig> dropped;
    DseConfig v = base;
    v.depth = 16;
    dropped.push_back(v);
    v = base;
    v.round_width = 22;
    dropped.push_back(v);
    if (unit != UnitKind::Pcs) {
      v = base;
      v.block = 44;
      v.group = 4;
      dropped.push_back(v);
    }
    if (unit != UnitKind::Fcs) {
      v = base;
      v.select = BlockSelect::Zd;
      dropped.push_back(v);
    }
    Evaluator shared;
    shared.eval(base);
    for (std::size_t i = 0; i < dropped.size(); ++i) {
      const std::string label = name + " variant " + std::to_string(i);
      ASSERT_EQ(dropped[i].validate(), "") << label;
      EXPECT_EQ(EnergyWorkload::of(dropped[i]), EnergyWorkload::of(base))
          << label;
      // Fresh evaluations: the toggles really do not depend on the knob.
      EXPECT_EQ(eval_design(dropped[i]).toggles_per_op, toggles) << label;
      // A reused workload gives exactly the fresh point's metrics.
      EXPECT_TRUE(shared.reuses(dropped[i])) << label;
      expect_same_metrics(shared.eval(dropped[i]), eval_design(dropped[i]),
                          label);
    }

    // Knobs the workload keeps change its key.
    std::vector<DseConfig> kept;
    v = base;
    v.seed = 2;
    kept.push_back(v);
    v = base;
    v.ops = 32;
    kept.push_back(v);
    v = base;
    v.rm = Round::HalfAwayFromZero;
    kept.push_back(v);
    if (unit == UnitKind::Pcs) {
      v = base;
      v.block = 44;
      kept.push_back(v);
    }
    if (unit == UnitKind::Fcs) {
      v = base;
      v.select = BlockSelect::Zd;
      kept.push_back(v);
    }
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const std::string label = name + " kept " + std::to_string(i);
      EXPECT_NE(EnergyWorkload::of(kept[i]), EnergyWorkload::of(base))
          << label;
      EXPECT_FALSE(shared.reuses(kept[i])) << label;
    }
  }
}

}  // namespace
}  // namespace csfma::dse
