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
#pragma once

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

/// Evaluate one design point.  `cfg` must already be valid
/// (DseConfig::validate() returned empty).
DseMetrics eval_design(const DseConfig& cfg);

}  // namespace csfma::dse
