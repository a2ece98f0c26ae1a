// The PCS-FMA at configurable geometries (the paper's Sec. V future work).
#include "fma/pcs_config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fma/pcs_fma.hpp"

namespace csfma {
namespace {

PcsConfig kPcs56g28() { return PcsConfig{56, 28}; }

TEST(PcsConfig, PaperGeometryDerivesTheFixedConstants) {
  const PcsConfig& c = kPaperPcs;
  EXPECT_EQ(c.mant_digits(), 110);
  EXPECT_EQ(c.tail_digits(), 55);
  EXPECT_EQ(c.product_width(), 163);
  EXPECT_EQ(c.adder_width(), 385);
  EXPECT_EQ(c.adder_blocks() - 1, 6);  // the 6:1 block mux
  EXPECT_EQ(c.sig_msb_digit(), 107);
  EXPECT_EQ(c.frac_bits(), 162);
  EXPECT_EQ(c.align_const(), 162);  // equal to frac_bits only at block 55
  EXPECT_EQ(c.mant_carries(), 10);
  EXPECT_EQ(c.operand_bits(), 192);
  EXPECT_NE(kPcs56g8.align_const(), kPcs56g8.frac_bits());
}

TEST(PcsConfig, Sec5CandidateGeometries) {
  // 56b blocks admit the 8- and 14-bit carry spacings Sec. V suggests.
  for (const PcsConfig& c : {kPcs56g8, kPcs56g14}) {
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.mant_digits(), 112);
    EXPECT_GE(c.guaranteed_digits(), 53);  // still exceeds double
  }
  EXPECT_EQ(kPcs56g8.mant_carries(), 14);
  EXPECT_EQ(kPcs56g14.mant_carries(), 8);
}

TEST(PcsConfig, InvalidGeometriesRejected) {
  EXPECT_THROW((PcsConfig{55, 7}).validate(), CheckError);   // 7 !| 55
  EXPECT_THROW((PcsConfig{70, 10}).validate(), CheckError);  // window overflow
  EXPECT_THROW((PcsConfig{4, 2}).validate(), CheckError);    // too small
  EXPECT_THROW(PcsFma(PcsConfig{55, 7}), CheckError);
}

TEST(PcsConfig, OperandsCarryTheirGeometry) {
  const PFloat x = PFloat::from_double(kBinary64, -1.25);
  for (const PcsConfig& g : {PcsConfig{22, 11}, kPaperPcs, kPcs56g8}) {
    EXPECT_EQ(ieee_to_pcs(x, g).geometry(), g);
    EXPECT_EQ(PcsOperand::make_zero(true, g).geometry(), g);
    EXPECT_EQ(PcsOperand::make_nan(g).geometry(), g);
    EXPECT_EQ(pcs_to_ieee(ieee_to_pcs(x, g), kBinary64, Round::NearestEven)
                  .to_double(),
              -1.25);
  }
  // A unit only accepts operands of its own geometry.
  PcsFma unit(kPcs56g8);
  EXPECT_THROW(unit.fma(ieee_to_pcs(x), x, ieee_to_pcs(x, kPcs56g8)),
               CheckError);
}

TEST(PcsConfig, Block56IsCorrectlyRounded) {
  Rng rng(201);
  for (const PcsConfig& cfg : {kPcs56g8, kPcs56g14}) {
    PcsFma unit(cfg);
    for (int i = 0; i < 10000; ++i) {
      PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
      PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
      ASSERT_TRUE(PFloat::same_value(got, ref)) << i;
    }
  }
}

TEST(PcsConfig, SmallBlocksLoseAccuracyGracefully) {
  // A 22b-block geometry holds only ~41 significand bits: results are
  // still within its own guarantee, far off binary64.
  Rng rng(202);
  PcsFma unit(PcsConfig{22, 11});
  double mean = 0;
  int counted = 0;
  for (int i = 0; i < 5000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    if (!ref.is_normal()) continue;
    mean += PFloat::ulp_error(got, ref, 52);
    ++counted;
  }
  mean /= counted;
  // The geometry guarantees ~41 significant digits: mean error near one
  // ulp of ITS precision, i.e. ~2^(52-41) binary64 ulps (cancellation can
  // push individual cases higher).
  EXPECT_GT(mean, 64.0);
  EXPECT_LT(mean, 65536.0);
}

TEST(PcsConfig, WideGeometriesAreExactAtBinary64) {
  Rng rng(204);
  for (PcsConfig cfg : {PcsConfig{33, 11}, PcsConfig{44, 4}, kPcs56g28()}) {
    PcsFma unit(cfg);
    for (int i = 0; i < 5000; ++i) {
      PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
      PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
      ASSERT_TRUE(PFloat::same_value(got, ref)) << cfg.block << "/" << cfg.group;
    }
  }
}

TEST(PcsConfig, ChainsWorkAcrossGeometries) {
  for (PcsConfig cfg : {PcsConfig{44, 11}, kPaperPcs, kPcs56g8}) {
    PcsFma unit(cfg);
    PFloat b1 = PFloat::from_double(kBinary64, 1.5);
    PcsOperand acc = ieee_to_pcs(PFloat::from_double(kBinary64, 1.0), cfg);
    // acc = 1 + 1.5*acc five times: exact in every geometry >= 30 digits.
    for (int i = 0; i < 5; ++i) {
      acc = unit.fma(ieee_to_pcs(PFloat::from_double(kBinary64, 1.0), cfg),
                     b1, acc);
    }
    double expect = 1.0;
    for (int i = 0; i < 5; ++i) expect = 1.0 + 1.5 * expect;
    EXPECT_EQ(pcs_to_ieee(acc, kBinary64, Round::HalfAwayFromZero).to_double(),
              expect)
        << cfg.block << "/" << cfg.group;
  }
}

TEST(PcsConfig, OtherGeometriesBatchThroughTheScalarDatapath) {
  // The sliced block is sized for 55/11; other geometries' batches must
  // equal their per-operation results.
  Rng rng(205);
  std::vector<OperandTriple> ops(200);
  for (auto& t : ops) {
    t.a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
    t.b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
    t.c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
  }
  PcsFma unit(kPcs56g8);
  std::vector<PFloat> out(ops.size());
  FmaBatchHooks hooks;
  hooks.rm = Round::HalfAwayFromZero;
  unit.fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PFloat one =
        unit.fma_ieee(ops[i].a, ops[i].b, ops[i].c, Round::HalfAwayFromZero);
    ASSERT_EQ(out[i].to_bits(), one.to_bits()) << i;
  }
}

TEST(PcsConfig, OperandBitsScaleWithGeometry) {
  // The Sec. V trade-off: denser carries widen the operand.
  EXPECT_LT(PcsConfig({55, 55}).operand_bits(), kPaperPcs.operand_bits());
  EXPECT_GT(PcsConfig({55, 5}).operand_bits(), kPaperPcs.operand_bits());
  EXPECT_GT(kPcs56g8.operand_bits(), kPcs56g14.operand_bits());
}

// ---- exhaustive check against the pfloat softfloat oracle ----

/// A 6-bit format (sign, 3 exponent bits, 2 fraction bits).  Its 64
/// encodings cover both zeros, the subnormal patterns (which flush to
/// zero), normals over the exponents -2..3, infinities and NaNs.
constexpr FloatFormat kTiny{3, 2};

std::string describe(const PFloat& a, const PFloat& b, const PFloat& c) {
  std::ostringstream os;
  os << "a=" << a.to_string() << " b=" << b.to_string()
     << " c=" << c.to_string();
  return os.str();
}

TEST(PcsConfig, ExhaustiveTinyFormatMatchesPFloat) {
  // Every A and C encoding of kTiny enters through ieee_to_pcs; every B
  // encoding is widened exactly to binary64 (the B port's format).
  // Checked on every one of the 64^3 triples, per geometry:
  //   * IEEE class, sign and signed zero of the binary64 readout equal
  //     PFloat::fma's in both nearest modes (the unit decides a zero's
  //     sign without a rounding mode, by the nearest-mode rule);
  //   * the result's exact value is the exact fused result minus the
  //     digits the block mux drops below the tail block (DESIGN.md §3,
  //     docs/FORMATS.md "truncated carries").  Those are sum bits and
  //     explicit carries, both non-negative and each below one tail ulp
  //     u = 2^(exp - frac_bits), so 0 <= exact - value < 2u.  (No triple
  //     here reaches the A pass-through, which would drop the product.)
  //   * at 55/11 the readout is also value-exact: the truncation sits far
  //     below binary64 precision, so nearest-mode readout equals
  //     PFloat::fma.
  std::vector<PFloat> tiny, wide;
  for (std::uint64_t bits = 0; bits < 64; ++bits) {
    tiny.push_back(PFloat::from_bits(kTiny, U128(bits)));
    wide.push_back(tiny.back().round_to(kBinary64, Round::NearestEven));
  }
  const Round modes[] = {Round::NearestEven, Round::HalfAwayFromZero};
  for (const PcsConfig& geom : {PcsConfig{8, 4}, PcsConfig{10, 5}, kPaperPcs}) {
    SCOPED_TRACE(std::to_string(geom.block) + "/" + std::to_string(geom.group));
    PcsFma unit(geom);
    int class_or_sign = 0, bound = 0, readout = 0;
    std::string first;
    auto fail = [&](int& count, const std::string& what) {
      ++count;
      if (first.empty()) first = what;
    };
    for (const PFloat& a : tiny) {
      const PcsOperand pa = ieee_to_pcs(a, geom);
      for (const PFloat& c : tiny) {
        const PcsOperand pc = ieee_to_pcs(c, geom);
        for (const PFloat& b : wide) {
          const PcsOperand r = unit.fma(pa, b, pc);
          if (r.cls() == FpClass::Normal) {
            // Exact in kWideExact: the inputs carry 3 significant bits.
            const PFloat exact =
                PFloat::fma(b, c, a, kWideExact, Round::NearestEven);
            const PFloat d = PFloat::sub(exact, r.exact_value(), kWideExact,
                                         Round::NearestEven);
            const PFloat two_u = PFloat::make_normal(
                kWideExact, false, r.exp() - geom.frac_bits() + 1,
                U128::bit_at(kWideExact.frac_bits));
            const PFloat slack =
                PFloat::sub(two_u, d, kWideExact, Round::NearestEven);
            if (d.sign() || !slack.is_normal() || slack.sign())
              fail(bound, "bound " + describe(a, b, c));
          }
          for (Round rm : modes) {
            const PFloat got = pcs_to_ieee(r, kBinary64, rm);
            const PFloat ref = PFloat::fma(b, c, a, kBinary64, rm);
            if (got.cls() != ref.cls() ||
                (!ref.is_nan() && got.sign() != ref.sign())) {
              fail(class_or_sign, "class/sign " + describe(a, b, c) +
                                      " got " + got.to_string() + " want " +
                                      ref.to_string());
            } else if (geom == kPaperPcs && !ref.is_nan() &&
                       !PFloat::same_value(got, ref)) {
              fail(readout, "readout " + describe(a, b, c));
            }
          }
        }
      }
    }
    EXPECT_EQ(class_or_sign, 0) << first;
    EXPECT_EQ(bound, 0) << first;
    EXPECT_EQ(readout, 0) << first;
  }
}

}  // namespace
}  // namespace csfma
