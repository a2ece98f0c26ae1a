#include "fma/fcs_format.hpp"

#include <sstream>

#include "common/check.hpp"
#include "fma/pcs_format.hpp"  // the shared carry-save value rules

namespace csfma {

using G = FcsGeometry;

FcsOperand::FcsOperand()
    : mant_(CsNum::zero(G::kMantDigits)),
      tail_(CsNum::zero(G::kTailDigits)),
      exp_(0),
      cls_(FpClass::Zero),
      exc_sign_(false) {}

FcsOperand::FcsOperand(CsNum mant, CsNum tail, int exp_unbiased, FpClass cls,
                       bool exc_sign)
    : mant_(std::move(mant)),
      tail_(std::move(tail)),
      exp_(exp_unbiased),
      cls_(cls),
      exc_sign_(exc_sign) {
  CSFMA_CHECK(mant_.width() == G::kMantDigits);
  CSFMA_CHECK(tail_.width() == G::kTailDigits);
  CSFMA_CHECK_MSG(exp_ >= G::kExpMin && exp_ <= G::kExpMax,
                  "exponent outside the excess-2047 field");
}

FcsOperand FcsOperand::make_zero(bool sign) {
  FcsOperand r;
  r.cls_ = FpClass::Zero;
  r.exc_sign_ = sign;
  return r;
}

FcsOperand FcsOperand::make_inf(bool sign) {
  FcsOperand r;
  r.cls_ = FpClass::Inf;
  r.exc_sign_ = sign;
  return r;
}

FcsOperand FcsOperand::make_nan() {
  FcsOperand r;
  r.cls_ = FpClass::NaN;
  return r;
}

int FcsOperand::round_increment() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  return deferred_round_increment(tail_assimilated(), G::kTailDigits,
                                  mant_.is_value_negative());
}

bool FcsOperand::round_disagrees_ieee() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  return deferred_round_disagrees_ieee(tail_assimilated(), G::kTailDigits,
                                       mant_.to_binary().bit(0),
                                       mant_.is_value_negative());
}

PFloat FcsOperand::exact_value() const {
  return fcs_to_ieee(*this, kWideExact, Round::NearestEven);
}

std::string FcsOperand::to_string() const {
  std::ostringstream os;
  switch (cls_) {
    case FpClass::Zero: return exc_sign_ ? "-0" : "+0";
    case FpClass::Inf: return exc_sign_ ? "-inf" : "+inf";
    case FpClass::NaN: return "nan";
    case FpClass::Normal: break;
  }
  os << "fcs{mant=" << mant_.to_binary().to_hex()
     << " tail=" << tail_assimilated().to_hex() << " exp=" << exp_ << "}";
  return os.str();
}

FcsOperand ieee_to_fcs(const PFloat& x) {
  switch (x.cls()) {
    case FpClass::Zero:
      return FcsOperand::make_zero(x.sign());
    case FpClass::Inf:
      return FcsOperand::make_inf(x.sign());
    case FpClass::NaN:
      return FcsOperand::make_nan();
    case FpClass::Normal:
      break;
  }
  const int p = x.format().precision();
  CSFMA_CHECK_MSG(p <= 54, "source significand too wide for the FCS layout");
  const int shift = G::kSigMsbDigit - (p - 1);
  CSFMA_CHECK(shift >= 0);
  CsWord mag = CsWord(WideUint<7>(WideUint<2>(x.sig()))) << shift;
  CsNum mant = CsNum::from_signed(G::kMantDigits, x.sign(), mag);
  //   value = X * 2^(exp' - kFracBits), X = sig << (shift + kTailDigits)
  //   =>  exp' = (e - frac) - shift - kTailDigits + kFracBits.
  const int exp2_of_sig_lsb = x.exp() - x.format().frac_bits;
  const int exp_fixed = exp2_of_sig_lsb - shift - G::kTailDigits + G::kFracBits;
  CSFMA_CHECK(exp_fixed >= G::kExpMin && exp_fixed <= G::kExpMax);
  return FcsOperand(mant, CsNum::zero(G::kTailDigits), exp_fixed,
                    FpClass::Normal, x.sign());
}

PFloat fcs_to_ieee(const FcsOperand& x, const FloatFormat& fmt, Round rm) {
  return cs_operand_value(x.cls(), x.exc_sign(), x.mant().to_binary(),
                          G::kMantDigits, x.tail_assimilated(), G::kTailDigits,
                          x.exp() - G::kFracBits, fmt, rm);
}

}  // namespace csfma
