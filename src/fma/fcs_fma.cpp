#include "fma/fcs_fma.hpp"

#include <algorithm>

#include "cs/lza.hpp"
#include "fma/cs_datapath.hpp"

namespace csfma {

namespace {

using G = FcsGeometry;
using cs::Route;

/// The FCS-FMA's datapath: three 29-digit mantissa blocks in a 13-block
/// (377c) adder window, DSP48E1 tiles of 23 bits (C's planes through the
/// pre-adder into the wide port) by 17 (B on the 18-bit port), no carry
/// reduction, and the block skip from the ZD or the early LZA.
cs::Datapath datapath(FcsSelect select) {
  return {G::kBlock, G::kMantDigits / G::kBlock, G::kAdderWidth / G::kBlock,
          G::kProductOffset, {G::kMantDigits, 53, 23, 17}, 0,
          select == FcsSelect::ZeroDetect, true};
}

/// FCS's front end on top of the shared one: A's digit-level presence
/// test (the reliable all-0 mantissa detection the early LZA needs), A's
/// pass-through before the multiplier, and the early LZA on the inputs
/// (Sec. III-G).  The LZA runs in both select modes; its mispredictions
/// are lane events, and under EarlyLza it sets the block skip.
Route front_end(const cs::Datapath& d, const FcsOperand& a, const PFloat& b,
                const FcsOperand& c, bool events, cs::Lane& l) {
  const Route route = cs::front_end(d, a, b, c, events, l);
  if (route != Route::Datapath) return route;
  const int M = G::kMantDigits;
  const bool a_present =
      a.cls() == FpClass::Normal && !a.mant_digits_all_zero();
  l.a_msb = a_present && l.a_ofs > -M ? l.a_ofs + M - 1 : -1;
  if (a_present && l.a_ofs > G::kAdderWidth - M) return Route::EarlyPass;

  // Anticipated upper bounds for the most-significant digit of each
  // addend in window coordinates; the maximum plus one bounds the sum.
  const auto lza = [&](const CsNum& x, int& miss) {
    const int est = lza_estimate(x);
    if (events) miss = leading_sign_run(x) - est;
    return est;
  };
  int p_est = -1;
  // msb(|A|+1) <= 87 - lza_a (the +1 covers the deferred round-up).
  if (l.a_msb >= 0)
    p_est = std::max(p_est, l.a_ofs + M - lza(a.mant(), l.lza_miss[0]));
  // msb(|C|) <= 86 - lza_c; times B < 2^53 and +1 for rounding.
  p_est = std::max(p_est,
                   G::kProductOffset + M + 53 - lza(c.mant(), l.lza_miss[1]));
  p_est += 1;  // the sum of two addends can grow one digit
  if (!d.zero_detect) {
    // The window top must cover the sign digit above the anticipated msb.
    const int top = std::clamp((p_est + 1) / G::kBlock, d.mant_blocks - 1,
                               d.adder_blocks - 1);
    l.skip = d.adder_blocks - 1 - top;
    l.zd_late = false;
  }
  return Route::Datapath;
}

}  // namespace

FcsOperand FcsFma::fma(const FcsOperand& a, const PFloat& b,
                       const FcsOperand& c) {
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  const cs::Datapath d = datapath(select_);
  cs::Lane lane;
  const Route route = front_end(d, a, b, c, events != nullptr, lane);
  cs::Sinks sinks{probes_, hooks_ != nullptr ? hooks_->tap : nullptr,
                  events != nullptr, &mul_stats_};
  return cs::one_lane(cs::FcsResult{}, d, route, lane, a, b, c, sinks, events,
                      last_skip_);
}

PFloat FcsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                        Round rm) {
  FcsOperand r = fma(ieee_to_fcs(a), b, ieee_to_fcs(c));
  return fcs_to_ieee(r, kBinary64, rm);
}

void FcsFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                            PFloat* out, const FmaBatchHooks& hooks) {
  cs::run_batch(cs::FcsResult{}, datapath(select_), front_end, probes_,
                hooks_ != nullptr ? hooks_->tap : nullptr, &mul_stats_,
                last_skip_, ops, n, out, hooks);
}

}  // namespace csfma
