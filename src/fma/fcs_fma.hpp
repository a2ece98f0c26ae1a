// The FCS-FMA unit (Sec. III-G/H, Fig 11): R = A + B * C with A, C, R in
// full-carry-save format, built from the PCS-FMA's blocks: it runs the
// carry-save stage sequence (cs_datapath.hpp) at its own geometry, and
// only its front end — the early LZA, the digit-level A test, the
// pass-through before the multiplier — is its own.  Differences from the
// PCS-FMA:
//
//   * NO Carry Reduction step: the adder output planes are passed through
//     raw; the DSP48E1 *pre-adders* assimilate C's planes at the next
//     multiplier input (Virtex-6/-7 only — the architectural reason this
//     unit does not port to Virtex-5);
//   * block selection is driven by EARLY leading-zero anticipation on the
//     *inputs* (A's and C's mantissas via LZA, B's implied leading 1),
//     combined at block granularity, instead of the exact-but-slower Zero
//     Detector on the result (Sec. III-G).  The anticipated position is an
//     upper bound with a 3-digit uncertainty (1 LZA + 1 product + 1 sum),
//     absorbed by the 29-digit block margin;
//   * the result multiplexer selects 3 blocks out of 13 from 11 possible
//     positions (the 11:1 mux of Sec. III-H), plus the parallel tail mux.
#pragma once

#include "cs/csa_tree.hpp"
#include "fma/fcs_format.hpp"
#include "fma/fma_unit.hpp"
#include "fma/unit_probes.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

/// Result-block selection strategy (the Sec. III-F vs III-G alternative):
/// the exact Zero Detector examines the *result* digits (precise, but the
/// ZD then sits on the critical path and determines total latency), while
/// the early LZA anticipates from the *inputs* (off the critical path, at
/// the cost of the 3-digit uncertainty margin and the cancellation
/// inaccuracy the paper accepts).
enum class FcsSelect { EarlyLza, ZeroDetect };

class FcsFma {
 public:
  /// `hooks` (optional) attaches signal taps / the numerical event log;
  /// null costs one pointer check per operation.
  explicit FcsFma(ActivityRecorder* activity = nullptr,
                  FcsSelect select = FcsSelect::EarlyLza,
                  const IntrospectHooks* hooks = nullptr)
      : probes_(activity), select_(select), hooks_(hooks) {}

  /// R = A + B * C.  B must be binary64 (or narrower).
  FcsOperand fma(const FcsOperand& a, const PFloat& b, const FcsOperand& c);

  /// Single-operation convenience with IEEE boundaries.
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c, Round rm);

  /// Bit-sliced batch form of fma_ieee, as PcsFma::fma_ieee_batch: the
  /// stages run up to 64 lanes at a time; results, per-probe toggles and
  /// the event sequence are bit-identical to the per-operation loop.
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks);

  const CsaTreeStats& last_mul_stats() const { return mul_stats_; }
  /// Top block index of the mux window in the last operation that reached
  /// the adder (2..12; 11 possibilities).
  int last_top_block() const {
    return FcsGeometry::kAdderWidth / FcsGeometry::kBlock - 1 - last_skip_;
  }

 private:
  UnitProbes probes_;
  FcsSelect select_;
  const IntrospectHooks* hooks_ = nullptr;
  CsaTreeStats mul_stats_{};
  int last_skip_ = 0;  // leading blocks the last mux window skipped
};

}  // namespace csfma
