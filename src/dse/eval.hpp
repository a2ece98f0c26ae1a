// Design-point evaluation: one DseConfig through the structural
// timing/area model and the switching-activity energy model.
//
// The fixed Table I chains in fpga/architectures.cpp pin every width to
// the paper's shipping geometry; eval_design() generalizes them over the
// DseConfig knobs.  At the paper's defaults the parameterized chains
// reproduce the fixed builders component for component (tested in
// tests/dse/eval_test.cpp), so the exploration's origin point is exactly
// the Table I model.  Every output is a pure function of the DseConfig
// alone — same determinism contract as the engine: no wall clock, no
// global state, safe to evaluate concurrently and to cache by canonical
// key.
//
// A point has two parts: the structural model (chain, pipeliner, area),
// which reads every knob and is cheap, and the energy workload, the Sec.
// IV-B recurrence simulated on the unit, which reads only the knobs in
// EnergyWorkload.  An Evaluator measures each distinct workload once, so
// a sweep over depth x rwidth simulates once per workload, not per point,
// with bit-identical metrics.  The service's model-eval trace span says
// which happened in its `workload` arg (measured | reused).
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "dse/config.hpp"
#include "fpga/device.hpp"
#include "fpga/pipeline.hpp"

namespace csfma::dse {

/// The four exploration objectives (all minimized) plus the synthesis
/// intermediates worth reporting.
struct DseMetrics {
  double delay_ns = 0.0;  // multiply-add latency: cycles / fmax
  int cycles = 0;
  double fmax_mhz = 0.0;
  int luts = 0;
  int dsps = 0;
  // Measured on the Sec. IV-B recurrence.  PCS points count the adder
  // stage's toggles only (the add.sum and add.carry probes, i.e. the "add"
  // entry of ActivityRecorder::stage_totals()); FCS, classic and discrete
  // points count every stage.  The energy calibration and every published DSE
  // number were fixed with this split, so it is kept as is.
  double toggles_per_op = 0.0;
  double energy_nj = 0.0;       // alpha*toggles + beta*LUTs (Table II model)
};

/// The parameterized component chain for one design point on `dev`.
/// At the paper's default geometry this reproduces the corresponding
/// fixed builder in fpga/architectures.cpp exactly.
std::vector<Component> build_model_chain(const DseConfig& cfg,
                                         const Device& dev);

/// The knobs the energy measurement reads; of() leaves the fields a unit
/// does not use at their defaults, so two points that simulate the same
/// stream compare equal.
struct EnergyWorkload {
  UnitKind unit = UnitKind::Pcs;
  Round rm = Round::NearestEven;
  std::uint64_t seed = 1;
  std::uint64_t ops = 32;
  int block = 0;  // PCS geometry only
  int group = 0;  // PCS geometry only
  BlockSelect select = BlockSelect::Lza;  // FCS only

  static EnergyWorkload of(const DseConfig& cfg);
  auto operator<=>(const EnergyWorkload&) const = default;
};

/// Evaluates design points, measuring each distinct energy workload once
/// per Evaluator.  Not thread-safe: one evaluator per sweep job.
class Evaluator {
 public:
  /// Evaluate one design point.  `cfg` must already be valid
  /// (DseConfig::validate() returned empty).
  DseMetrics eval(const DseConfig& cfg);
  /// True when eval(cfg) would reuse a workload this evaluator measured.
  bool reuses(const DseConfig& cfg) const;

 private:
  std::map<EnergyWorkload, double> toggles_per_op_;
};

/// Evaluate one design point with a fresh Evaluator.
DseMetrics eval_design(const DseConfig& cfg);

}  // namespace csfma::dse
