// PCS-FMA geometry: the one description every width of the PCS datapath is
// read from (pcs_format.hpp, pcs_fma.hpp).  The paper ships (55, 11); its
// future work (Sec. V) asks for "different carry bit densities in the
// PCS-FMA ... when increasing the block size to 56b (instead of the 55b
// used here)".
//
// A geometry (block, group) with group | block derives:
//   * mantissa  = 2 blocks, rounding tail = 1 block,
//   * product   = mantissa + 53 bits (the binary64 B port),
//   * adder     = mantissa + product + mantissa, rounded up to blocks,
//   * value     = X̂ · 2^(exp − F),  F = sig_msb_digit + tail_digits,
// which reduces to the paper's constants at (55, 11): 110b+10b mantissa,
// 55b+5b tail, 163b product, 385b adder, F = 162, 192b operands.
//
// Small blocks trade accuracy (the 52+1+1+1 bit budget no longer fits, so
// wide significands are truncated on entry) for narrower operands and a
// cheaper mux — the exploration bench/ablation_block_size sweeps.
#pragma once

namespace csfma {

struct PcsConfig {
  int block = 55;  // result block digits
  int group = 11;  // explicit-carry spacing; must divide block

  /// The exponent field is 12 bits in excess-2047 at every geometry.
  static constexpr int kExpBias = 2047;
  static constexpr int kExpMin = -2047;
  static constexpr int kExpMax = 2048;

  constexpr int mant_digits() const { return 2 * block; }
  constexpr int tail_digits() const { return block; }
  constexpr int product_width() const { return mant_digits() + 53; }
  /// Product lsb in the adder window: one mantissa of headroom below it
  /// for A's right-shifted digits.
  constexpr int product_offset() const { return mant_digits(); }
  constexpr int adder_blocks() const {
    const int raw = 2 * mant_digits() + product_width();
    return (raw + block - 1) / block;
  }
  constexpr int adder_width() const { return adder_blocks() * block; }
  /// IEEE significand MSB position on conversion: the paper's
  /// 52+1(sign)+1(guard)+1(overflow) budget below the mantissa top.
  constexpr int sig_msb_digit() const { return mant_digits() - 3; }
  /// Binary point: value = X_hat * 2^(exp - frac_bits()).
  constexpr int frac_bits() const { return sig_msb_digit() + tail_digits(); }
  /// Alignment constant of the adder window: A's mantissa digit 0 has
  /// scale 2^(e_A - sig_msb) and window bit 0 has scale
  /// 2^(e_P - sig_msb - 52 - product_offset), so A lands at window offset
  /// e_A - e_P + align_const().  It equals frac_bits() (162) only at
  /// block = 55.
  constexpr int align_const() const { return 52 + product_offset(); }
  /// Number of explicit carry positions in one operand mantissa.
  constexpr int mant_carries() const { return mant_digits() / group; }
  /// Total operand bits (mant sum+carries, tail sum+carries, 12b exponent).
  constexpr int operand_bits() const {
    return mant_digits() + mant_carries() + tail_digits() +
           tail_digits() / group + 12;
  }
  /// Significant digits guaranteed in the selected result (the 55b design
  /// yields >= 53; smaller blocks fall below double precision).
  constexpr int guaranteed_digits() const { return mant_digits() - 3; }

  void validate() const;

  friend constexpr bool operator==(const PcsConfig&,
                                   const PcsConfig&) = default;
};

/// The paper's shipping geometry.
inline constexpr PcsConfig kPaperPcs{55, 11};
/// The Sec. V candidate: 56b blocks admit spacings 4/7/8/14/28.
inline constexpr PcsConfig kPcs56g8{56, 8};
inline constexpr PcsConfig kPcs56g14{56, 14};

}  // namespace csfma
