#include "fma/fcs_fma.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "cs/zero_detect.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

using G = FcsGeometry;

namespace {

/// DSP48E1 tile geometry: C's planes go through the pre-adder into the
/// wide port in 23-bit CS chunks (Sec. III-H), B through the 18-bit port.
constexpr int kCandChunk = 23;
constexpr int kMultChunk = 17;

bool value_sign(const FcsOperand& x) {
  if (x.cls() != FpClass::Normal) return x.exc_sign();
  return x.mant().is_value_negative();
}

FcsOperand passthrough_rounded(const FcsOperand& a, int rnd_a) {
  CsNum bumped = compress3(G::kMantDigits, a.mant().sum(), a.mant().carry(),
                           CsWord((std::uint64_t)rnd_a));
  return FcsOperand(bumped, CsNum::zero(G::kTailDigits), a.exp(),
                    FpClass::Normal, value_sign(a));
}

}  // namespace

FcsOperand FcsFma::fma(const FcsOperand& a, const PFloat& b,
                       const FcsOperand& c) {
  SignalTap* tap = hooks_ != nullptr ? hooks_->tap : nullptr;
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  // ---- exception side-wires ----
  if (a.is_nan() || b.is_nan() || c.is_nan()) return FcsOperand::make_nan();
  const bool b_zero = b.is_zero();
  const bool c_zero = c.is_zero();
  const bool p_inf = b.is_inf() || c.is_inf();
  const bool p_sign = b.sign() != value_sign(c);
  if (p_inf) {
    if (b_zero || c_zero) return FcsOperand::make_nan();
    if (a.is_inf() && a.exc_sign() != p_sign) return FcsOperand::make_nan();
    return FcsOperand::make_inf(p_sign);
  }
  if (a.is_inf()) return FcsOperand::make_inf(a.exc_sign());

  // ---- deferred rounding decisions ----
  const int rnd_a = a.cls() == FpClass::Normal ? a.round_increment() : 0;
  const int rnd_c = c.cls() == FpClass::Normal ? c.round_increment() : 0;
  if (events != nullptr) {
    // Misrounding of the deferred half-away-from-zero rule vs IEEE
    // nearest-even: detail 0 = the A operand's tail, 1 = C's.
    if (a.cls() == FpClass::Normal && a.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 0);
    }
    if (c.cls() == FpClass::Normal && c.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 1);
    }
  }

  if (b_zero || c_zero) {
    if (a.is_zero()) {
      const bool s = p_sign && value_sign(a);
      return FcsOperand::make_zero(s);
    }
    return passthrough_rounded(a, rnd_a);
  }
  const int b_prec = b.format().precision();
  CSFMA_CHECK_MSG(b_prec <= 53, "B must be IEEE binary64 or narrower");

  // ---- early leading-zero anticipation on the INPUTS (Sec. III-G) ----
  // Anticipated upper bounds for the most-significant digit position of
  // each addend in adder-window coordinates; the maximum plus one bounds
  // the sum.  All-zero mantissas are detected reliably at digit level.
  const bool a_present = a.cls() == FpClass::Normal && !a.mant_digits_all_zero();
  const int e_p = b.exp() + c.exp();
  const int e_a = a.cls() == FpClass::Normal ? a.exp() : e_p;
  const int ofs_a = e_a - e_p + G::kProductOffset + (G::kFracBits - 59);
  // (ofs_a derivation: A's mant lsb weight 2^(e_a-82) must equal window
  //  weight 2^(ofs_a + e_p - 221); 221 = 82 + 52 + 87, so
  //  ofs_a = e_a - e_p + 139.)
  CSFMA_CHECK(G::kProductOffset + G::kFracBits - 59 == 139);

  if (a_present && ofs_a > G::kAdderWidth - G::kMantDigits) {
    return passthrough_rounded(a, rnd_a);
  }

  int p_est = -1;
  if (a_present && ofs_a > -G::kMantDigits) {
    const int lza_a = lza_estimate(a.mant(), events);
    // msb(|A|+1) <= 87 - lza_a  (the +1 covers the deferred round-up).
    p_est = std::max(p_est, ofs_a + G::kMantDigits - lza_a);
  }
  {
    const int lza_c = lza_estimate(c.mant(), events);
    // msb(|C|) <= 86 - lza_c; times B < 2^53 and +1 for rounding:
    // msb(product) <= 86 - lza_c + 53 + 1.
    p_est = std::max(p_est, G::kProductOffset + G::kMantDigits + 53 - lza_c);
  }
  p_est += 1;  // sum of two addends can grow one digit

  // ---- multiplier: DSP-tiled CSA tree in the adder window (pre-adders
  //      assimilate C's planes; Sec. III-H).  A narrower B's significand
  //      moves up to the 53-bit port's MSB, so the product scale stays
  //      e_B + e_C. ----
  const CsWord b_sig =
      CsWord(WideUint<7>(WideUint<2>(b.sig() << (53 - b_prec))));
  CsNum product =
      multiply_dsp_tiled(c.mant(), b_sig, 53, kCandChunk, kMultChunk,
                         G::kAdderWidth, G::kProductOffset, &mul_stats_);
  if (rnd_c != 0) {
    product = cs_add_binary(
        product, (b_sig << G::kProductOffset).truncated(G::kAdderWidth));
  }
  if (b.sign()) product = cs_negate(product);
  if (probes_) {
    probes_[UnitProbe::MulSum].observe(product.sum());
    probes_[UnitProbe::MulCarry].observe(product.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("mul");
    tap->tap("mul.sum", product.sum(), G::kAdderWidth);
    tap->tap("mul.carry", product.carry(), G::kAdderWidth);
  }

  // ---- A path: deferred rounding + pre-shift ----
  WideUint<8> a_val =
      WideUint<8>(a.cls() == FpClass::Normal ? a.mant().to_binary() : CsWord())
          .sext(G::kMantDigits) +
      WideUint<8>((std::uint64_t)rnd_a);
  CsWord a_row;
  if (!a_val.is_zero() && ofs_a > -G::kMantDigits) {
    WideUint<8> placed = ofs_a >= 0 ? (a_val << ofs_a) : (a_val >> -ofs_a);
    a_row = CsWord(placed).truncated(G::kAdderWidth);
  }
  if (probes_) probes_[UnitProbe::AShift].observe(a_row);
  if (tap != nullptr) {
    tap->begin_stage("align");
    tap->tap("align.ashift", a_row, G::kAdderWidth);
  }

  // ---- 377c CS adder (3:2); the planes stay raw — no carry reduce ----
  CsNum adder = compress3(G::kAdderWidth, product.sum(), product.carry(), a_row);
  if (probes_) {
    probes_[UnitProbe::AddSum].observe(adder.sum());
    probes_[UnitProbe::AddCarry].observe(adder.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("add");
    tap->tap("add.sum", adder.sum(), G::kAdderWidth);
    tap->tap("add.carry", adder.carry(), G::kAdderWidth);
  }
  if (events != nullptr) {
    // Catastrophic cancellation, in adder-window digit coordinates (see
    // pcs_fma.cpp): the sum's msb fell >= 50 digits below the highest input.
    const int a_msb = a_present && ofs_a > -G::kMantDigits
                          ? ofs_a + G::kMantDigits - 1
                          : -1;
    const int p_msb = G::kProductOffset + G::kMantDigits + 53;
    const int out_msb = G::kAdderWidth - 1 - leading_sign_run(adder);
    const int drop = std::max(a_msb, p_msb) - out_msb;
    if (drop >= 50) events->raise(EventKind::Cancellation, drop);
  }

  // ---- 11:1 result multiplexer ----
  int b_top;
  if (select_ == FcsSelect::EarlyLza) {
    // Anticipation-driven: the window top must cover the sign digit above
    // the anticipated msb.
    b_top = (p_est + 1) / G::kBlock;
  } else {
    // Exact ZD on the adder result (Sec. III-F applied to the FCS
    // geometry): skip leading blocks by the Fig 10 rules.
    const int blocks = G::kAdderWidth / G::kBlock;  // 13
    const int k = count_skippable_blocks(adder, G::kBlock, blocks - 3, events);
    b_top = blocks - 1 - k;
  }
  b_top = std::clamp(b_top, 2, G::kAdderWidth / G::kBlock - 1);
  last_top_block_ = b_top;
  const int mant_lo = (b_top - 2) * G::kBlock;
  CsNum mant = adder.extract_digits(mant_lo, G::kMantDigits);
  CsNum tail = CsNum::zero(G::kTailDigits);
  if (mant_lo >= G::kBlock) {
    tail = adder.extract_digits(mant_lo - G::kBlock, G::kTailDigits);
  }
  if (probes_) {
    probes_[UnitProbe::MuxSum].observe(mant.sum());
    probes_[UnitProbe::MuxCarry].observe(mant.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("mux");
    tap->tap_u64("mux.top_block", (std::uint64_t)b_top, 4);
    tap->tap("mux.sum", mant.sum(), G::kMantDigits);
    tap->tap("mux.carry", mant.carry(), G::kMantDigits);
  }

  if (mant.sum().is_zero() && mant.carry().is_zero() && tail.sum().is_zero() &&
      tail.carry().is_zero()) {
    // Anything that survived lies below the selected window — the
    // truncation the early-LZA design accepts under total cancellation.
    return FcsOperand::make_zero(false);
  }

  // ---- exponent update ----
  const int e_r = e_p + mant_lo - 139;
  if (e_r > G::kExpMax) return FcsOperand::make_inf(mant.is_value_negative());
  if (e_r < G::kExpMin) {
    if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
    return FcsOperand::make_zero(mant.is_value_negative());
  }
  return FcsOperand(mant, tail, e_r, FpClass::Normal, false);
}

PFloat FcsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                        Round rm) {
  FcsOperand r = fma(ieee_to_fcs(a), b, ieee_to_fcs(c));
  return fcs_to_ieee(r, kBinary64, rm);
}

}  // namespace csfma
