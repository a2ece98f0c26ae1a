#include "fma/classic_fma.hpp"

#include <cstdlib>

#include "cs/csa_tree.hpp"
#include "cs/lza.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {
/// Adder window of the classic double-precision FMA: 53b addend left of a
/// 106b carry-save product plus guard/round — the paper's "161b adder".
constexpr int kWindow = 161;
constexpr int kProductLsb = 0;
}  // namespace

PFloat ClassicFma::fma(const PFloat& a, const PFloat& b, const PFloat& c) {
  SignalTap* tap = hooks_ != nullptr ? hooks_->tap : nullptr;
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  // The architectural steps below drive the activity probes and the
  // normalization-distance bookkeeping; the returned value is the correctly
  // rounded fused result the architecture computes.
  if (a.is_normal() && b.is_normal() && c.is_normal()) {
    const int e_p = b.exp() + c.exp();
    const int d = a.exp() - e_p;
    // Multiplier: 53x53 in carry-save (the classic LUT/DSP CSA tree).
    // The multiplicand is unsigned — widen by one digit so the signed
    // window semantics keep it positive.
    CsNum mant_c = CsNum::from_binary(54, CsWord(WideUint<7>(WideUint<2>(c.sig()))));
    CsNum product = multiply_dsp_tiled(
        mant_c, CsWord(WideUint<7>(WideUint<2>(b.sig()))), 53, 17, 24, kWindow,
        kProductLsb, nullptr);
    if (probes_) {
      probes_[UnitProbe::MulSum].observe(product.sum());
      probes_[UnitProbe::MulCarry].observe(product.carry());
    }
    if (tap != nullptr) {
      tap->begin_stage("mul");
      tap->tap("mul.sum", product.sum(), kWindow);
      tap->tap("mul.carry", product.carry(), kWindow);
    }
    if (std::abs(d) <= 60) {
      // Addend pre-shift (runs in parallel with the multiply).
      const int ofs = d + 52;  // addend lsb relative to product lsb
      WideUint<8> a_val((std::uint64_t)0);
      a_val = WideUint<8>(WideUint<2>(a.sig()));
      if (a.sign()) a_val = -a_val;
      WideUint<8> placed = ofs >= 0 ? a_val << ofs : a_val >> -ofs;
      CsWord a_row = CsWord(placed).truncated(kWindow);
      if (b.sign() != c.sign()) product = cs_negate(product);
      CsNum adder = compress3(kWindow, product.sum(), product.carry(), a_row);
      if (probes_) {
        probes_[UnitProbe::AddSum].observe(adder.sum());
        probes_[UnitProbe::AddCarry].observe(adder.carry());
      }
      if (tap != nullptr) {
        tap->begin_stage("add");
        tap->tap("add.ashift", a_row, kWindow);
        tap->tap("add.sum", adder.sum(), kWindow);
        tap->tap("add.carry", adder.carry(), kWindow);
      }
      // LZA runs in parallel with the carry-propagate assimilation and
      // steers the variable-distance normalization shifter.
      last_norm_shift_ = lza_estimate(adder);
      if (events != nullptr) {
        const int miss = leading_sign_run(adder) - last_norm_shift_;
        if (miss != 0) events->raise(EventKind::LzaMispredict, miss);
      }
      CsWord assimilated = adder.to_binary();
      if (probes_) {
        probes_[UnitProbe::Norm].observe(assimilated);
      }
      if (tap != nullptr) {
        tap->begin_stage("norm");
        tap->tap_u64("norm.shift", (std::uint64_t)last_norm_shift_, 8);
        tap->tap("norm.assimilated", assimilated, kWindow);
      }
      if (events != nullptr) {
        // Catastrophic cancellation: the sum lost far more leading digits
        // than any alignment explains — the numerically delicate case.
        const int run = leading_sign_run(adder);
        if (run >= 100) events->raise(EventKind::Cancellation, run);
      }
    }
  }
  return PFloat::fma(b, c, a, kBinary64, Round::NearestEven);
}

}  // namespace csfma
