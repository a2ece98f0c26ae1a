#include "fma/pcs_format.hpp"

#include "fma/pcs_fma.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace csfma {
namespace {

TEST(PcsFormat, GeometryMatchesPaper) {
  // Sec. III-F: 110b+10b mantissa, 55b+5b rounding data, 12b exponent = 192b.
  const PcsConfig& g = kPaperPcs;
  EXPECT_EQ(g.mant_digits(), 110);
  EXPECT_EQ(g.tail_digits(), 55);
  EXPECT_EQ(g.mant_digits() / g.group, 10);
  EXPECT_EQ(g.tail_digits() / g.group, 5);
  EXPECT_EQ(110 + 10 + 55 + 5 + 12, 192);
  // Sec. III-D: adder 110+163+110 rounded up to the next multiple of 55.
  EXPECT_EQ(g.adder_width(), 385);
  EXPECT_EQ(g.adder_width() % g.block, 0);
  EXPECT_EQ(g.product_width(), 163);
  // A default operand carries the paper geometry on its planes.
  EXPECT_EQ(PcsOperand().geometry(), kPaperPcs);
}

TEST(PcsFormat, IeeeRoundTripExact) {
  Rng rng(70);
  for (int i = 0; i < 20000; ++i) {
    double d = rng.next_fp_in_exp_range(-900, 900);
    PFloat x = PFloat::from_double(kBinary64, d);
    PcsOperand p = ieee_to_pcs(x);
    PFloat back = pcs_to_ieee(p, kBinary64, Round::NearestEven);
    EXPECT_EQ(back.to_double(), d);
    // The conversion is exact, so the exact value matches too.
    EXPECT_DOUBLE_EQ(PFloat::ulp_error(p.exact_value(), x, 52), 0.0);
  }
}

TEST(PcsFormat, SpecialsRoundTrip) {
  for (auto mk : {+[] { return PFloat::inf(kBinary64, false); },
                  +[] { return PFloat::inf(kBinary64, true); },
                  +[] { return PFloat::zero(kBinary64, true); }}) {
    PFloat x = mk();
    PFloat back = pcs_to_ieee(ieee_to_pcs(x), kBinary64, Round::NearestEven);
    EXPECT_TRUE(PFloat::same_value(x, back));
    EXPECT_EQ(x.sign(), back.sign());
  }
  EXPECT_TRUE(pcs_to_ieee(ieee_to_pcs(PFloat::nan(kBinary64)), kBinary64,
                          Round::NearestEven)
                  .is_nan());
}

TEST(PcsFormat, SignificandPlacement) {
  // 1.0 -> significand MSB at mantissa digit 107 (Sec. III-B headroom).
  PcsOperand p = ieee_to_pcs(PFloat::from_double(kBinary64, 1.0));
  EXPECT_TRUE(p.mant().sum().bit(107));
  EXPECT_EQ(p.mant().to_binary().bit_width(), 108);
  EXPECT_TRUE(p.round().to_binary().is_zero());
  // Negative values are two's complement, no separate sign bit.
  PcsOperand n = ieee_to_pcs(PFloat::from_double(kBinary64, -1.0));
  EXPECT_TRUE(n.mant().as_cs().is_value_negative());
  EXPECT_EQ(n.mant().as_cs().magnitude(), p.mant().to_binary());
}

TEST(PcsFormat, RoundIncrementHalfAwayFromZero) {
  // Build operands with controlled tails.
  auto with_tail = [](bool negative, CsWord tail_sum) {
    CsNum mant = CsNum::from_signed(110, negative, CsWord(1ull) << 107);
    return PcsOperand(PcsNum(110, 11, mant.sum(), mant.carry()),
                      PcsNum(55, 11, tail_sum.truncated(55), CsWord()), 0,
                      FpClass::Normal, negative);
  };
  const CsWord half = CsWord::bit_at(54);
  // Below half: never round.
  EXPECT_EQ(with_tail(false, half - CsWord(1ull)).round_increment(), 0);
  // Above half: always round.
  EXPECT_EQ(with_tail(false, half | CsWord(1ull)).round_increment(), 1);
  EXPECT_EQ(with_tail(true, half | CsWord(1ull)).round_increment(), 1);
  // Exact half: away from zero — up for positive, down for negative.
  EXPECT_EQ(with_tail(false, half).round_increment(), 1);
  EXPECT_EQ(with_tail(true, half).round_increment(), 0);
}

TEST(PcsFormat, TailCarriesCountTowardRounding) {
  // Tail 0111...1 in the sum plane plus one explicit carry bit at the grid
  // reaches half: the rounding examines digit VALUES, not just sum bits.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  CsWord tail_sum = CsWord::mask(54);  // just below half
  PcsOperand no_carry(PcsNum(110, 11, mant.sum(), mant.carry()),
                      PcsNum(55, 11, tail_sum, CsWord()), 0, FpClass::Normal,
                      false);
  EXPECT_EQ(no_carry.round_increment(), 0);
  PcsOperand with_carry(PcsNum(110, 11, mant.sum(), mant.carry()),
                        PcsNum(55, 11, tail_sum, CsWord::bit_at(0)), 0,
                        FpClass::Normal, false);
  EXPECT_EQ(with_carry.round_increment(), 1);  // ripples to exactly half+..
}

TEST(PcsFormat, ExactValueIncludesTail) {
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  PcsOperand base(PcsNum(110, 11, mant.sum(), mant.carry()),
                  PcsNum::zero(55, 11), 0, FpClass::Normal, false);
  PcsOperand with_tail(PcsNum(110, 11, mant.sum(), mant.carry()),
                       PcsNum(55, 11, CsWord::bit_at(54), CsWord()), 0,
                       FpClass::Normal, false);
  // The tail contributes half of one mantissa ulp, below even the wide
  // readout precision — compare the transferred integers directly.
  WideUint<8> xb = (WideUint<8>(base.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(base.tail_assimilated());
  WideUint<8> xt = (WideUint<8>(with_tail.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(with_tail.tail_assimilated());
  EXPECT_EQ(xt - xb, WideUint<8>(1ull) << 54);
  // It is invisible at binary64 readout precision.
  EXPECT_EQ(with_tail.exact_value().to_double(), base.exact_value().to_double());
}

TEST(PcsFormat, ExponentFieldRangeEnforced) {
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  EXPECT_THROW(PcsOperand(PcsNum(110, 11, mant.sum(), mant.carry()),
                          PcsNum::zero(55, 11), 3000, FpClass::Normal, false),
               CheckError);
  // Excess-2047 covers more range than IEEE's excess-1023 (Sec. III-F).
  EXPECT_GT(PcsConfig::kExpMax, kBinary64.emax());
  EXPECT_LT(PcsConfig::kExpMin, kBinary64.emin());
}

TEST(PcsFormat, WiderSourceFormatsConvert) {
  // The B-side of a chain can also enter through the converter when the
  // source is a 54-bit-significand value (the Sec. III-B custom format).
  Rng rng(71);
  FloatFormat f54{11, 53};
  for (int i = 0; i < 5000; ++i) {
    double d = rng.next_fp_in_exp_range(-100, 100);
    PFloat x = PFloat::from_double(f54, d);
    PFloat back = pcs_to_ieee(ieee_to_pcs(x), f54, Round::NearestEven);
    EXPECT_TRUE(PFloat::same_value(back, x));
  }
}

TEST(PcsFormat, PackedWordRoundTrips) {
  // The 192-bit operand word of Sec. III-F, round-tripped through an FMA
  // chain so mantissa carries and rounding tails are populated.
  Rng rng(72);
  PcsFma unit;
  for (int i = 0; i < 5000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    PcsOperand r = unit.fma(ieee_to_pcs(a), b, ieee_to_pcs(c));
    if (r.cls() != FpClass::Normal) continue;
    U192 w = r.pack_bits();
    PcsOperand back = PcsOperand::unpack_bits(w);
    EXPECT_EQ(back.mant().sum(), r.mant().sum());
    EXPECT_EQ(back.mant().carries(), r.mant().carries());
    EXPECT_EQ(back.round().sum(), r.round().sum());
    EXPECT_EQ(back.round().carries(), r.round().carries());
    EXPECT_EQ(back.exp(), r.exp());
    EXPECT_EQ(back.pack_bits(), w);
  }
}

TEST(PcsFormat, PackedWordUses192Bits) {
  // Every field position is inside the 192-bit word; the exponent sits at
  // the top, so a maximal-exponent operand lights bit 191.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  PcsOperand top(PcsNum(110, 11, mant.sum(), mant.carry()),
                 PcsNum::zero(55, 11), PcsConfig::kExpMax, FpClass::Normal,
                 false);
  U192 w = top.pack_bits();
  EXPECT_LE(w.bit_width(), 192);
  EXPECT_TRUE(w.bit(191));  // exp field 0xFFF
  // Exceptions refuse to pack (they travel on the side wires).
  EXPECT_THROW(PcsOperand::make_nan().pack_bits(), CheckError);
  // The word layout is the paper geometry's; other geometries refuse.
  EXPECT_THROW(ieee_to_pcs(PFloat::from_double(kBinary64, 1.0), kPcs56g8)
                   .pack_bits(),
               CheckError);
}

TEST(PcsFormat, PlanesMustFormOneGeometry) {
  // The operand reads its geometry off its planes: the mantissa must be
  // two tail blocks on the tail's carry grid, and the grid must divide
  // the block.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  const PcsNum m110(110, 11, mant.sum(), mant.carry());
  EXPECT_NO_THROW(PcsOperand(m110, PcsNum::zero(55, 11), 0, FpClass::Normal,
                             false));
  EXPECT_THROW(PcsOperand(m110, PcsNum::zero(56, 8), 0, FpClass::Normal,
                          false),
               CheckError);  // mantissa is not two tail blocks
  EXPECT_THROW(PcsOperand(PcsNum::zero(110, 5), PcsNum::zero(55, 11), 0,
                          FpClass::Normal, false),
               CheckError);  // grids differ
  EXPECT_THROW(PcsOperand(PcsNum::zero(110, 10), PcsNum::zero(55, 10), 0,
                          FpClass::Normal, false),
               CheckError);  // 10 does not divide 55
}

}  // namespace
}  // namespace csfma
