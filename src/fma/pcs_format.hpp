// The PCS-FMA operand format (Sec. III-F) and its IEEE converters, at any
// PcsConfig geometry (pcs_config.hpp); the constants below are the
// paper's (55, 11).
//
// Layout (per paper):  110b mantissa sum + 10b mantissa carries (PCS,
// carry every 11th bit) + 55b rounding-data sum + 5b rounding-data carries
// + 12b exponent in excess-2047  =  192 bits, plus two exception side-wires
// (the FloPoCo technique of Sec. III-B), here an FpClass tag.
//
// Value semantics (normative; see DESIGN.md §3): let X be the 165-digit CS
// number formed by the mantissa digits above the rounding digits, and
// X̂ = signed(mant mod 2^110)·2^55 + (round.sum + round.carries) its exact
// assimilation (the rounding tail is a non-negative extension below the
// mantissa).  Then
//
//     value = X̂ · 2^(exp − 162)
//
// An IEEE binary64 significand converts in with its MSB (implied 1) at
// mantissa digit 107, leaving digits 108 (guard) and 109 (two's-complement
// sign) free — the "52+1 explicit +1 sign +1 guard" budget derived in
// Sec. III-D, which pins the 55b block size.  At another geometry the
// widths, the significand entry digit and the binary point are
// PcsConfig's mant_digits(), tail_digits(), sig_msb_digit() and
// frac_bits().
#pragma once

#include "cs/pcs.hpp"
#include "fma/pcs_config.hpp"
#include "fp/pfloat.hpp"

namespace csfma {

/// One PCS-FMA operand.  Its geometry is read off its planes: the tail is
/// one block wide and both planes share the carry spacing.
class PcsOperand {
 public:
  PcsOperand();  // +0 in the paper geometry

  /// Normal construction from planes; checks that the planes form a valid
  /// geometry (mantissa = two tail blocks on one carry grid) and that the
  /// exponent fits the excess-2047 field.
  PcsOperand(PcsNum mant, PcsNum round, int exp_unbiased, FpClass cls,
             bool exc_sign);

  static PcsOperand make_zero(bool sign, const PcsConfig& geom = kPaperPcs);
  static PcsOperand make_inf(bool sign, const PcsConfig& geom = kPaperPcs);
  static PcsOperand make_nan(const PcsConfig& geom = kPaperPcs);

  PcsConfig geometry() const { return {round_.width(), round_.group()}; }
  const PcsNum& mant() const { return mant_; }
  const PcsNum& round() const { return round_; }
  int exp() const { return exp_; }        // unbiased
  int exp_field() const { return exp_ + PcsConfig::kExpBias; }
  FpClass cls() const { return cls_; }
  bool exc_sign() const { return exc_sign_; }

  bool is_nan() const { return cls_ == FpClass::NaN; }
  bool is_inf() const { return cls_ == FpClass::Inf; }
  bool is_zero() const {
    return cls_ == FpClass::Zero ||
           (cls_ == FpClass::Normal && mant_.to_binary().is_zero() &&
            tail_assimilated().is_zero());
  }

  /// Exact unsigned assimilation of the rounding tail (one digit wider than
  /// the block, unwrapped: the tail is a non-negative extension, its digit
  /// values just add).
  CsWord tail_assimilated() const { return round_.sum() + round_.carries(); }

  /// The deferred-rounding decision of Sec. III-C/E for mode
  /// "round half away from zero": examine ONLY the rounding block.
  /// Returns +1/0 to add to the mantissa.
  int round_increment() const;

  /// True when the deferred half-away-from-zero decision differs from what
  /// IEEE nearest-even would decide at the same truncation boundary — the
  /// paper's documented misrounding case, raised as a numerical event.
  bool round_disagrees_ieee() const;

  /// Exact represented value (for golden comparisons), as a PFloat in a
  /// very wide format so nothing is lost.
  PFloat exact_value() const;

  /// The packed 192-bit operand word of Sec. III-F (normal operands of the
  /// paper geometry only; the exception class travels on the two side
  /// wires).  Layout, LSB
  /// first: mant sum [0,110) | mant carries (grid-compressed) [110,120) |
  /// tail sum [120,175) | tail carries [175,180) | excess-2047 exp
  /// [180,192).
  U192 pack_bits() const;
  static PcsOperand unpack_bits(const U192& bits);

  std::string to_string() const;

 private:
  PcsNum mant_;
  PcsNum round_;
  int exp_;
  FpClass cls_;
  bool exc_sign_;
};

/// Conversion IEEE 754 binary64 (or narrower, up to 54 significand bits)
/// -> PCS operand of geometry `geom`.  This is the CVT operator the HLS
/// pass inserts at chain entries.  Exact whenever the significand fits
/// above the guard digit (precision <= sig_msb_digit() + 1, always at the
/// paper geometry); smaller geometries truncate the low significand bits.
PcsOperand ieee_to_pcs(const PFloat& x, const PcsConfig& geom = kPaperPcs);

/// Conversion PCS operand -> IEEE-style format: full assimilation,
/// normalization and a single rounding — the chain-exit CVT operator.
PFloat pcs_to_ieee(const PcsOperand& x, const FloatFormat& fmt, Round rm);

// (kWideExact, the wide readout format, lives in fp/pfloat.hpp.)

// ---- value rules shared by the carry-save formats (PCS and FCS): the
// deferred half-away-from-zero decision (Sec. III-C/E) over a tail of
// `tail_digits` digits and assimilated value `tail` (+1/0 to add), whether
// it differs from IEEE nearest-even, and the operand's value ----
int deferred_round_increment(const CsWord& tail, int tail_digits,
                             bool negative);
bool deferred_round_disagrees_ieee(const CsWord& tail, int tail_digits,
                                   bool lsb, bool negative);
/// The operand X̂ · 2^exp2 rounded to `fmt`, X̂ = signed(mant_bits mod
/// 2^mant_digits) · 2^tail_digits + tail (or its exception class).
PFloat cs_operand_value(FpClass cls, bool exc_sign, const CsWord& mant_bits,
                        int mant_digits, const CsWord& tail, int tail_digits,
                        int exp2, const FloatFormat& fmt, Round rm);

}  // namespace csfma
