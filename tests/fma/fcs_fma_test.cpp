// The FCS-FMA unit: early-LZA block selection, containment, accuracy.
#include "fma/fcs_fma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fma/fma_unit.hpp"
#include "fma/pcs_format.hpp"  // kWideExact

namespace csfma {
namespace {

struct RangeCase {
  const char* name;
  int emin, emax;
};

// Printed into the test names that gtest_discover_tests registers; without
// it gtest dumps the raw bytes, including the address of `name`, and the
// names change with every link.
void PrintTo(const RangeCase& c, std::ostream* os) {
  *os << c.name << " " << c.emin << ".." << c.emax;
}

class FcsFmaSweep : public ::testing::TestWithParam<RangeCase> {};

TEST_P(FcsFmaSweep, SingleOpIsCorrectlyRounded) {
  const RangeCase& tc = GetParam();
  Rng rng(90 + tc.emax);
  FcsFma unit;
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat b = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat c = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    // The early-LZA design guarantees >= 54 significant digits when no
    // catastrophic cancellation occurs; with cancellation the relative
    // inaccuracy can grow (Sec. III-G).  Accept a 1-ulp envelope and track
    // exactness separately below.
    double err = PFloat::ulp_error(got, ref, 52);
    ASSERT_LE(err, 1.0) << a.to_string() << " " << b.to_string() << " "
                        << c.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, FcsFmaSweep,
    ::testing::Values(RangeCase{"narrow", -2, 2}, RangeCase{"mid", -40, 40},
                      RangeCase{"wide", -300, 300},
                      RangeCase{"huge", -800, 800}),
    [](const ::testing::TestParamInfo<RangeCase>& i) { return i.param.name; });

TEST(FcsFma, MostOpsExactlyRounded) {
  // Away from cancellation, results must be bit-identical to the reference.
  Rng rng(91);
  FcsFma unit;
  int exact = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    if (PFloat::same_value(got, ref)) ++exact;
  }
  EXPECT_GT(exact, n * 99 / 100);
}

TEST(FcsFma, EarlyLzaContainment) {
  // The selected window must always contain the true leading digit:
  // the result's exact value must match the exact fma whenever the
  // magnitudes are balanced enough that nothing was truncated.
  Rng rng(92);
  FcsFma unit;
  for (int i = 0; i < 10000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    FcsOperand r = unit.fma(ieee_to_fcs(a), b, ieee_to_fcs(c));
    PFloat exact = PFloat::fma(b, c, a, kWideExact, Round::NearestEven);
    if (r.cls() == FpClass::Normal && exact.is_normal()) {
      double err = PFloat::ulp_error(r.exact_value(), exact, 52);
      ASSERT_LE(err, 0.0000001) << "window missed the leading digit: "
                                << r.to_string();
    }
    ASSERT_GE(unit.last_top_block(), 2);
    ASSERT_LE(unit.last_top_block(), 12);
  }
}

TEST(FcsFma, CancellationTruncatesGracefully) {
  // a = -(b*c) exactly (short significands): the early-LZA mux looks where
  // the big value would be; full cancellation leaves zeros there.  The
  // paper accepts this relative-accuracy loss; the result must be zero or
  // a value no larger than the anticipation window bottom.
  Rng rng(93);
  FcsFma unit;
  for (int i = 0; i < 5000; ++i) {
    auto short_sig = [&rng] {
      double m = (double)(rng.next_below(1 << 26) | (1u << 25));
      return std::ldexp(rng.next_bool() ? m : -m, (int)rng.next_int(-10, 10));
    };
    PFloat b = PFloat::from_double(kBinary64, short_sig());
    PFloat c = PFloat::from_double(kBinary64, short_sig());
    PFloat prod = PFloat::mul(b, c, kBinary64, Round::NearestEven);  // exact
    FcsOperand r = unit.fma(ieee_to_fcs(prod.negated()), b, ieee_to_fcs(c));
    // The adder value is exactly zero, but the raw planes of the selected
    // window can encode a redundant near-zero whose assimilation carry was
    // truncated below the window — the paper's accepted total-cancellation
    // inaccuracy.  The residual must sit at least 100 bits below |b*c|.
    if (!r.is_zero()) {
      PFloat res = r.exact_value().abs();
      PFloat bound = PFloat::mul(prod.abs(),
                                 PFloat::from_double(kBinary64, 0x1p-100),
                                 kWideExact, Round::NearestEven);
      // res <= bound  <=>  bound - res is not negative.
      PFloat diff = PFloat::sub(bound, res, kWideExact, Round::NearestEven);
      EXPECT_FALSE(diff.is_normal() && diff.sign())
          << r.to_string() << " residual too large vs |b*c|=" << prod.to_string();
    }
  }
}

TEST(FcsFma, PartialCancellationKeepsResidue) {
  // a = -(b*c) + small residue: the residue sits 40-80 bits below the
  // anticipated position — within the 116-digit window, so it survives.
  Rng rng(94);
  FcsFma unit;
  for (int i = 0; i < 5000; ++i) {
    auto short_sig = [&rng] {
      double m = (double)(rng.next_below(1 << 20) | (1u << 19));
      return std::ldexp(m, (int)rng.next_int(-4, 4));
    };
    PFloat b = PFloat::from_double(kBinary64, short_sig());
    PFloat c = PFloat::from_double(kBinary64, short_sig());
    double residue = std::ldexp(1.0 + rng.next_unit(),
                                (int)rng.next_int(-60, -41));
    PFloat prod = PFloat::mul(b, c, kBinary64, Round::NearestEven);
    PFloat a = PFloat::from_double(
        kBinary64, std::fma(-1.0, prod.to_double(), 0.0) + 0.0);
    // a holds -(b*c) exactly; add the residue through the A tail instead:
    // feed a + residue as a wider-precision A via two chained adds.
    PFloat a_plus = PFloat::add(a, PFloat::from_double(kBinary64, residue),
                                kBinary64, Round::NearestEven);
    FcsOperand r = unit.fma(ieee_to_fcs(a_plus), b, ieee_to_fcs(c));
    PFloat exact = PFloat::fma(b, c, a_plus, kWideExact, Round::NearestEven);
    double err = PFloat::ulp_error(r.exact_value(), exact, 52);
    ASSERT_LE(err, 1.0) << err;
  }
}

TEST(FcsFma, ExceptionWires) {
  FcsFma unit;
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  const PFloat pinf = PFloat::inf(kBinary64, false);
  EXPECT_TRUE(
      unit.fma(ieee_to_fcs(one), pinf, ieee_to_fcs(PFloat::zero(kBinary64, false)))
          .is_nan());
  EXPECT_TRUE(unit.fma(ieee_to_fcs(pinf), one, ieee_to_fcs(one)).is_inf());
  EXPECT_TRUE(
      unit.fma(ieee_to_fcs(pinf.negated()), one, ieee_to_fcs(pinf)).is_nan());
}

TEST(FcsFma, MultiplierTreeGeometry) {
  // ceil(87/23) * ceil(53/17) = 4*4 = 16 tile rows feed the CSA tree.
  FcsFma unit;
  PFloat v = PFloat::from_double(kBinary64, 1.5);
  unit.fma(ieee_to_fcs(v), v, ieee_to_fcs(v));
  EXPECT_EQ(unit.last_mul_stats().rows, 16);
}

TEST(FcsFma, ChainAccuracy) {
  Rng rng(95);
  FcsFma unit;
  for (int i = 0; i < 5000; ++i) {
    PFloat x = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat y = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat z = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat b1 = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat b2 = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    FcsOperand t = unit.fma(ieee_to_fcs(y), b2, ieee_to_fcs(x));
    FcsOperand r = unit.fma(ieee_to_fcs(z), b1, t);
    PFloat got = fcs_to_ieee(r, kBinary64, Round::HalfAwayFromZero);
    PFloat te = PFloat::fma(b2, x, y, kWideExact, Round::NearestEven);
    PFloat re = PFloat::fma(b1, te, z, kWideExact, Round::NearestEven);
    if (!re.is_normal()) continue;
    double err = PFloat::ulp_error(got, re, 52);
    // Envelope: exit rounding plus t's deferred rounding.  The transfer
    // guarantees >= ~53 significant digits above the rounding point
    // (early-LZA margin included), i.e. up to ~2^-56 relative to b1*t,
    // amplified by cancellation against z.
    const double ratio =
        std::fabs(b1.to_double() * te.to_double() / re.to_double());
    const double envelope = 0.55 + 0.25 * ratio;
    ASSERT_LE(err, envelope) << "chain error " << err << " ratio " << ratio;
  }
}

// ---- exhaustive check against the pfloat softfloat oracle ----

/// A 6-bit format (sign, 3 exponent bits, 2 fraction bits): every encoding
/// as A, B and C (see PcsConfig.ExhaustiveTinyFormatMatchesPFloat).
constexpr FloatFormat kTiny{3, 2};

std::string describe(const PFloat& a, const PFloat& b, const PFloat& c) {
  std::ostringstream os;
  os << "a=" << a.to_string() << " b=" << b.to_string()
     << " c=" << c.to_string();
  return os.str();
}

TEST(FcsFma, ExhaustiveTinyFormatMatchesPFloat) {
  // Every A and C encoding of kTiny enters through ieee_to_fcs; every B
  // encoding is widened exactly to binary64.  On each of the 64^3 triples,
  // in both select modes:
  //   * a normal result's exact value is the exact fused result minus the
  //     digits the block mux drops below the tail block, each below one
  //     tail ulp u = 2^(exp - kFracBits): 0 <= exact - value < 2u;
  //   * IEEE class, sign and signed zero of the binary64 readout equal
  //     PFloat::fma's in both nearest modes, and the readout is
  //     value-exact.
  // The one exception is the total-cancellation loss the paper accepts
  // for early LZA (Sec. III-G; CancellationTruncatesGracefully): on an
  // exact x + (-x) = 0 the anticipated window can keep a redundant
  // residue of about one tail ulp.  Exactly 756 readouts do so (378
  // triples, each in both nearest modes); each residue must sit at least
  // 100 bits below |b*c|.  The zero detector, which looks at
  // the result itself, matches on every triple.  Both the one-lane fma
  // and fma_ieee_batch are checked.
  std::vector<PFloat> tiny, wide;
  for (std::uint64_t bits = 0; bits < 64; ++bits) {
    tiny.push_back(PFloat::from_bits(kTiny, U128(bits)));
    wide.push_back(tiny.back().round_to(kBinary64, Round::NearestEven));
  }
  const Round modes[] = {Round::NearestEven, Round::HalfAwayFromZero};
  std::vector<OperandTriple> ops;
  std::vector<PFloat> refs[2];
  for (const PFloat& a : tiny) {
    for (const PFloat& c : tiny) {
      for (const PFloat& b : wide) {
        ops.push_back({a, b, c});
        for (int m = 0; m < 2; ++m)
          refs[m].push_back(PFloat::fma(b, c, a, kBinary64, modes[m]));
      }
    }
  }
  const PFloat two_m100 = PFloat::from_double(kBinary64, 0x1p-100);
  for (FcsSelect sel : {FcsSelect::EarlyLza, FcsSelect::ZeroDetect}) {
    const bool lza = sel == FcsSelect::EarlyLza;
    SCOPED_TRACE(lza ? "early LZA" : "zero detect");
    FcsFma unit(nullptr, sel);
    // residues counts fma-path readouts (triple x nearest mode).
    int class_or_sign = 0, bound = 0, readout = 0, residues = 0;
    std::string first;
    auto fail = [&](int& count, const std::string& what) {
      ++count;
      if (first.empty()) first = what;
    };
    // Is `got` (a readout of the fma result `r`) the accepted residue of
    // an exact cancellation?  Only under early LZA.
    auto accepted_residue = [&](const FcsOperand& r, const PFloat& ref,
                                const OperandTriple& t) {
      if (!lza || !ref.is_zero() || r.cls() != FpClass::Normal) return false;
      const PFloat prod =
          PFloat::mul(t.b, t.c, kWideExact, Round::NearestEven);
      if (prod.is_zero()) return false;
      const PFloat limit =
          PFloat::mul(prod.abs(), two_m100, kWideExact, Round::NearestEven);
      const PFloat slack = PFloat::sub(limit, r.exact_value().abs(),
                                       kWideExact, Round::NearestEven);
      return !(slack.is_normal() && slack.sign());
    };
    // An empty string when `got` matches `ref`, else what differs.
    auto differs = [&](const PFloat& got, const PFloat& ref) -> std::string {
      if (got.cls() != ref.cls() ||
          (!ref.is_nan() && got.sign() != ref.sign()))
        return " class/sign got " + got.to_string() + " want " +
               ref.to_string();
      if (!ref.is_nan() && !PFloat::same_value(got, ref)) return " readout";
      return "";
    };
    auto check = [&](const std::string& diff, const OperandTriple& t,
                     const char* path) {
      if (!diff.empty())
        fail(diff[1] == 'c' ? class_or_sign : readout,
             path + diff + " " + describe(t.a, t.b, t.c));
    };
    std::vector<bool> residue(ops.size(), false);
    std::size_t idx = 0;
    for (const PFloat& a : tiny) {
      const FcsOperand fa = ieee_to_fcs(a);
      for (const PFloat& c : tiny) {
        const FcsOperand fc = ieee_to_fcs(c);
        for (const PFloat& b : wide) {
          const std::size_t k = idx++;
          const FcsOperand r = unit.fma(fa, b, fc);
          if (r.cls() == FpClass::Normal) {
            // Exact in kWideExact: the inputs carry 3 significant bits.
            const PFloat exact =
                PFloat::fma(b, c, a, kWideExact, Round::NearestEven);
            const PFloat d = PFloat::sub(exact, r.exact_value(), kWideExact,
                                         Round::NearestEven);
            const PFloat two_u = PFloat::make_normal(
                kWideExact, false, r.exp() - FcsGeometry::kFracBits + 1,
                U128::bit_at(kWideExact.frac_bits));
            const PFloat slack =
                PFloat::sub(two_u, d, kWideExact, Round::NearestEven);
            if (d.sign() || !slack.is_normal() || slack.sign())
              fail(bound, "bound " + describe(a, b, c));
          }
          for (int m = 0; m < 2; ++m) {
            const std::string diff =
                differs(fcs_to_ieee(r, kBinary64, modes[m]), refs[m][k]);
            if (!diff.empty() && accepted_residue(r, refs[m][k], ops[k])) {
              ++residues;
              residue[k] = true;
            } else {
              check(diff, ops[k], "fma");
            }
          }
        }
      }
    }
    // The same triples through the bit-sliced batch path.
    std::vector<PFloat> out(ops.size());
    for (int m = 0; m < 2; ++m) {
      FmaBatchHooks hooks;
      hooks.rm = modes[m];
      unit.fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
      for (std::size_t k = 0; k < ops.size(); ++k) {
        if (!residue[k]) check(differs(out[k], refs[m][k]), ops[k], "batch");
      }
    }
    EXPECT_EQ(class_or_sign, 0) << first;
    EXPECT_EQ(bound, 0) << first;
    EXPECT_EQ(readout, 0) << first;
    EXPECT_EQ(residues, lza ? 756 : 0);
  }
}

}  // namespace
}  // namespace csfma
