// The PCS-FMA unit (Sec. III-F, Fig 9) at any PcsConfig geometry — the
// paper's (55, 11) by default: R = A + B * C with
//   * A, C, R in the 192-bit PCS operand format (deferred rounding data
//     travels with the value; Sec. III-C),
//   * B in IEEE 754 binary64 (the non-critical operand stays standard,
//     which keeps the multiplier CSA tree at 53 rows; Sec. III-D),
//   * the variable-distance normalization shifter replaced by the
//     6-to-1 block multiplexer driven by the digit-level Zero Detector
//     (Sec. III-D/F),
//   * a Carry Reduction step converting the full-CS adder output into the
//     group-11 PCS form (Sec. III-E),
//   * C's deferred rounding folded into the multiplier as a +B_M correction
//     row (Fig 6), and A's deferred rounding applied by the A-path rounding
//     unit that runs in parallel with the pre-shift (Fig 5).
//
// The datapath is simulated digit-exactly: the CSA tree, the adder window
// placement, the carry reduction, the ZD block skipping and the truncate-
// then-round tail handling are all the hardware's — including the paper's
// documented misrounding cases.  The only value-level shortcut is that
// two's-complement operands are assimilated where the hardware would use
// DSP pre-adder / group-adder structures (see csa_tree.hpp and DESIGN.md).
//
// Every width is read from the unit's geometry; the constants above are
// the paper's.  The stages are the carry-save stage sequence FCS and the
// fused dot product also run (cs_datapath.hpp); this unit adds only A's
// pass-through after the multiplier.
#pragma once

#include "cs/csa_tree.hpp"
#include "fma/fma_unit.hpp"
#include "fma/pcs_format.hpp"
#include "fma/unit_probes.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

class PcsFma {
 public:
  /// `activity` (optional) receives per-component toggle counts, used by
  /// the energy model.  The recorder must outlive the unit.  `hooks`
  /// (optional) attaches signal taps / the numerical event log; null costs
  /// one pointer check per operation.
  explicit PcsFma(ActivityRecorder* activity = nullptr,
                  const IntrospectHooks* hooks = nullptr)
      : PcsFma(kPaperPcs, activity, hooks) {}
  /// The unit at another geometry (checked by PcsConfig::validate()).
  explicit PcsFma(PcsConfig geometry, ActivityRecorder* activity = nullptr,
                  const IntrospectHooks* hooks = nullptr);

  const PcsConfig& geometry() const { return geom_; }

  /// R = A + B * C.  B must be binary64 (or narrower; its significand is
  /// aligned to the 53-bit multiplier port); A and C carry their unrounded
  /// tails in and must have the unit's geometry.
  PcsOperand fma(const PcsOperand& a, const PFloat& b, const PcsOperand& c);

  /// Single-operation convenience with IEEE boundaries: converts the
  /// operands in, runs the unit once, converts the result out with the
  /// final rounding.  This is what a non-chained (single) replacement of a
  /// multiply/add pair computes.
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c, Round rm);

  /// Bit-sliced batch form of fma_ieee (engine/slice.hpp): operations
  /// that reach the adder run the stages up to 64 lanes at a time; the
  /// others, and every operation of a tapped unit, one lane at a time.
  /// Results, per-probe toggle counts and the event sequence are
  /// bit-identical to the per-operation loop (the engine's
  /// backend-equivalence gate).
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks);

  /// Stats of the most recent multiplication (tree geometry, for tests).
  const CsaTreeStats& last_mul_stats() const { return mul_stats_; }
  /// Block-skip count chosen by the ZD in the most recent operation.
  int last_zd_skip() const { return last_zd_skip_; }

 private:
  PcsConfig geom_;
  UnitProbes probes_;
  const IntrospectHooks* hooks_;
  CsaTreeStats mul_stats_{};
  int last_zd_skip_ = 0;
};

}  // namespace csfma
