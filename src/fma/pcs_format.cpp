#include "fma/pcs_format.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace csfma {

PcsOperand::PcsOperand()
    : mant_(PcsNum::zero(kPaperPcs.mant_digits(), kPaperPcs.group)),
      round_(PcsNum::zero(kPaperPcs.tail_digits(), kPaperPcs.group)),
      exp_(0),
      cls_(FpClass::Zero),
      exc_sign_(false) {}

PcsOperand::PcsOperand(PcsNum mant, PcsNum round, int exp_unbiased, FpClass cls,
                       bool exc_sign)
    : mant_(std::move(mant)),
      round_(std::move(round)),
      exp_(exp_unbiased),
      cls_(cls),
      exc_sign_(exc_sign) {
  const PcsConfig geom = geometry();
  geom.validate();
  CSFMA_CHECK(mant_.width() == geom.mant_digits() &&
              mant_.group() == geom.group);
  CSFMA_CHECK_MSG(exp_ >= PcsConfig::kExpMin && exp_ <= PcsConfig::kExpMax,
                  "exponent outside the excess-2047 field");
}

PcsOperand PcsOperand::make_zero(bool sign, const PcsConfig& geom) {
  return PcsOperand(PcsNum::zero(geom.mant_digits(), geom.group),
                    PcsNum::zero(geom.tail_digits(), geom.group), 0,
                    FpClass::Zero, sign);
}

PcsOperand PcsOperand::make_inf(bool sign, const PcsConfig& geom) {
  PcsOperand r = make_zero(sign, geom);
  r.cls_ = FpClass::Inf;
  return r;
}

PcsOperand PcsOperand::make_nan(const PcsConfig& geom) {
  PcsOperand r = make_zero(false, geom);
  r.cls_ = FpClass::NaN;
  return r;
}

int PcsOperand::round_increment() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  // An empty tail (every freshly lifted operand) never rounds up.
  if (round_.sum().is_zero() && round_.carries().is_zero()) return 0;
  return deferred_round_increment(tail_assimilated(), round_.width(),
                                  mant_.is_value_negative());
}

bool PcsOperand::round_disagrees_ieee() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  return deferred_round_disagrees_ieee(tail_assimilated(), round_.width(),
                                       mant_.to_binary().bit(0),
                                       mant_.is_value_negative());
}

PFloat PcsOperand::exact_value() const {
  return pcs_to_ieee(*this, kWideExact, Round::NearestEven);
}

std::string PcsOperand::to_string() const {
  std::ostringstream os;
  switch (cls_) {
    case FpClass::Zero: os << (exc_sign_ ? "-0" : "+0"); return os.str();
    case FpClass::Inf: os << (exc_sign_ ? "-inf" : "+inf"); return os.str();
    case FpClass::NaN: return "nan";
    case FpClass::Normal: break;
  }
  os << "pcs{mant=" << mant_.to_binary().to_hex()
     << " tail=" << tail_assimilated().to_hex() << " exp=" << exp_ << "}";
  return os.str();
}

U192 PcsOperand::pack_bits() const {
  CSFMA_CHECK_MSG(cls_ == FpClass::Normal,
                  "exceptions travel on side wires, not in the word");
  CSFMA_CHECK_MSG(geometry() == kPaperPcs,
                  "the 192-bit word is the paper geometry's layout");
  constexpr PcsConfig G = kPaperPcs;
  U192 w;
  w = w.deposit(0, G.mant_digits(), U192(WideUint<3>(mant_.sum())));
  // Compress the grid carries (positions 0, 11, ..., 99) into 10 bits.
  for (int g = 0; g < 10; ++g) {
    w = w.deposit(G.mant_digits() + g, 1,
                  mant_.carries().bit(11 * g) ? U192::one() : U192());
  }
  w = w.deposit(120, G.tail_digits(), U192(WideUint<3>(round_.sum())));
  for (int g = 0; g < 5; ++g) {
    w = w.deposit(175 + g, 1,
                  round_.carries().bit(11 * g) ? U192::one() : U192());
  }
  w = w.deposit(180, 12, U192((std::uint64_t)exp_field()));
  return w;
}

PcsOperand PcsOperand::unpack_bits(const U192& bits) {
  constexpr PcsConfig G = kPaperPcs;
  CsWord msum = CsWord(WideUint<7>(bits.extract(0, G.mant_digits())));
  CsWord mcar;
  for (int g = 0; g < 10; ++g) {
    if (bits.bit(G.mant_digits() + g)) mcar = mcar | CsWord::bit_at(11 * g);
  }
  CsWord tsum = CsWord(WideUint<7>(bits.extract(120, G.tail_digits())));
  CsWord tcar;
  for (int g = 0; g < 5; ++g) {
    if (bits.bit(175 + g)) tcar = tcar | CsWord::bit_at(11 * g);
  }
  const int exp = (int)bits.extract64(180, 12) - PcsConfig::kExpBias;
  return PcsOperand(PcsNum(G.mant_digits(), G.group, msum, mcar),
                    PcsNum(G.tail_digits(), G.group, tsum, tcar), exp,
                    FpClass::Normal, false);
}

PcsOperand ieee_to_pcs(const PFloat& x, const PcsConfig& geom) {
  switch (x.cls()) {
    case FpClass::Zero:
      return PcsOperand::make_zero(x.sign(), geom);
    case FpClass::Inf:
      return PcsOperand::make_inf(x.sign(), geom);
    case FpClass::NaN:
      return PcsOperand::make_nan(geom);
    case FpClass::Normal:
      break;
  }
  const int p = x.format().precision();
  CSFMA_CHECK_MSG(p <= 54, "source significand too wide for the PCS layout");
  // Small geometries cannot hold the whole significand below the guard
  // digit: truncate its low bits on entry (the accuracy loss the ablation
  // measures).  Then place the MSB at mantissa digit sig_msb_digit().
  const int keep = std::min(p, geom.sig_msb_digit() + 1);
  const int shift = geom.sig_msb_digit() - (keep - 1);
  const CsWord mag =
      CsWord(WideUint<7>(WideUint<2>(x.sig() >> (p - keep)))) << shift;
  const int M = geom.mant_digits();
  CSFMA_CHECK_MSG(mag.bit_width() < M, "significand does not fit");
  const CsWord mant = x.sign() ? (-mag).truncated(M) : mag;
  // Exponent: value = X * 2^(exp' - F) with X = sig' << (shift + tail), i.e.
  // sig' * 2^(shift + tail + exp' - F), which must equal
  // sig' * 2^(e - frac + p - keep):
  //   exp' = (e - frac + p - keep) - shift - tail + F.
  const int exp2_of_sig_lsb = x.exp() - x.format().frac_bits + (p - keep);
  const int exp_fixed =
      exp2_of_sig_lsb - shift - geom.tail_digits() + geom.frac_bits();
  CSFMA_CHECK(exp_fixed >= PcsConfig::kExpMin &&
              exp_fixed <= PcsConfig::kExpMax);
  return PcsOperand(PcsNum(M, geom.group, mant, CsWord()),
                    PcsNum::zero(geom.tail_digits(), geom.group), exp_fixed,
                    FpClass::Normal, x.sign());
}

PFloat pcs_to_ieee(const PcsOperand& x, const FloatFormat& fmt, Round rm) {
  const PcsConfig geom = x.geometry();
  return cs_operand_value(x.cls(), x.exc_sign(), x.mant().to_binary(),
                          geom.mant_digits(), x.tail_assimilated(),
                          geom.tail_digits(), x.exp() - geom.frac_bits(), fmt,
                          rm);
}

int deferred_round_increment(const CsWord& tail, int tail_digits,
                             bool negative) {
  // Half of one mantissa ulp, in tail scale (55: half is 2^54).
  const CsWord half = CsWord::bit_at(tail_digits - 1);
  if (tail < half) return 0;
  if (tail > half) return 1;
  // Exact tie: round half AWAY FROM ZERO — the direction depends on the
  // sign of the value (the mantissa's two's-complement sign; a zero
  // mantissa with a positive tail is positive).
  return negative ? 0 : 1;
}

bool deferred_round_disagrees_ieee(const CsWord& tail, int tail_digits,
                                   bool lsb, bool negative) {
  // Decompose the tail against half an ulp: guard = "at least half",
  // sticky = "strictly more" — this comparison form also covers the
  // unwrapped tail overflow case, where both modes round up.
  const CsWord half = CsWord::bit_at(tail_digits - 1);
  return round_disagrees_with_ieee(Round::HalfAwayFromZero, lsb, !(tail < half),
                                   half < tail, negative);
}

PFloat cs_operand_value(FpClass cls, bool exc_sign, const CsWord& mant_bits,
                        int mant_digits, const CsWord& tail, int tail_digits,
                        int exp2, const FloatFormat& fmt, Round rm) {
  switch (cls) {
    case FpClass::Zero:
      return PFloat::zero(fmt, exc_sign);
    case FpClass::Inf:
      return PFloat::inf(fmt, exc_sign);
    case FpClass::NaN:
      return PFloat::nan(fmt);
    case FpClass::Normal:
      break;
  }
  // X_hat in a 512-bit two's complement workspace; a zero X_hat reads +0.
  const WideUint<8> xhat =
      (WideUint<8>(mant_bits).sext(mant_digits) << tail_digits) +
      WideUint<8>(tail);
  const bool sign = xhat.bit(WideUint<8>::kBits - 1);
  return PFloat::normalize_round(fmt, sign, sign ? -xhat : xhat, exp2, false,
                                 rm);
}

}  // namespace csfma
