// The PCS-FMA at configurable geometries (the paper's Sec. V future work).
#include "fma/pcs_config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fma/pcs_fma.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

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

/// Random normals plus the datapath's early exits and events: zeros,
/// infinities, NaN, A pass-through, cancellation (exact and massive),
/// tiny products and overflow.
std::vector<OperandTriple> mixed_stream(std::uint64_t seed) {
  Rng rng(seed);
  auto num = [&](int lo, int hi) {
    return PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(lo, hi));
  };
  auto d = [](double v) { return PFloat::from_double(kBinary64, v); };
  std::vector<OperandTriple> ops;
  for (int i = 0; i < 300; ++i) {
    OperandTriple t{num(-20, 20), num(-20, 20), num(-20, 20)};
    switch (i % 10) {
      case 1:  // cancellation
        t.a = PFloat::mul(t.b, t.c, kBinary64, Round::NearestEven).negated();
        break;
      case 3: t.b = d(0.0); break;
      case 4: t.a = d(i % 20 == 4 ? 1e200 : -1e250); break;  // pass-through
      case 5: t.b = d(1e-300); t.c = d(-1e-300); t.a = d(0.0); break;
      case 6: t.b = d(1e300); t.c = d(1e300); break;
      case 8:  // exact cancellation with short significands
        t.b = d(1.5 * (i % 7 + 1));
        t.c = d(-0.75);
        t.a = PFloat::mul(t.b, t.c, kBinary64, Round::NearestEven).negated();
        break;
      case 7:
        if (i % 30 == 7) t.c = PFloat::inf(kBinary64, true);
        if (i % 30 == 17) t.a = PFloat::nan(kBinary64);
        if (i % 30 == 27) t.a = d(-0.0);
        break;
      default: break;
    }
    ops.push_back(t);
  }
  return ops;
}

std::map<std::string, std::uint64_t> toggles(const ActivityRecorder& rec) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& [name, probe] : rec.probes()) m[name] = probe.toggles();
  return m;
}

TEST(PcsConfig, BatchEqualsPerOperationAtEveryGeometry) {
  // fma_ieee_batch slices at every geometry: its results, per-probe
  // toggle counts and event log must equal the per-operation loop's.  A
  // tapped unit runs one lane at a time and must trace the same wires.
  const std::vector<OperandTriple> ops = mixed_stream(205);
  for (const bool tapped : {false, true}) {
    for (const PcsConfig& g :
         {PcsConfig{8, 4}, PcsConfig{44, 11}, kPaperPcs, kPcs56g8}) {
      SCOPED_TRACE(std::to_string(g.block) + "/" + std::to_string(g.group) +
                   (tapped ? " tapped" : ""));
      ActivityRecorder rec_batch, rec_loop;
      EventLog ev_batch(1 << 12), ev_loop(1 << 12);
      SignalTap tap_batch, tap_loop;
      IntrospectHooks h_batch{tapped ? &tap_batch : nullptr, &ev_batch},
          h_loop{tapped ? &tap_loop : nullptr, &ev_loop};
      PcsFma batch(g, &rec_batch, &h_batch), loop(g, &rec_loop, &h_loop);
      std::vector<PFloat> out(ops.size());
      FmaBatchHooks hooks;
      hooks.rm = Round::HalfAwayFromZero;
      hooks.events = &ev_batch;
      hooks.base_index = 7;
      batch.fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ev_loop.begin_op(7 + i, ops[i].a.to_bits().lo64(),
                         ops[i].b.to_bits().lo64(),
                         ops[i].c.to_bits().lo64());
        const PFloat one = loop.fma_ieee(ops[i].a, ops[i].b, ops[i].c,
                                         Round::HalfAwayFromZero);
        ASSERT_EQ(out[i].to_bits(), one.to_bits()) << i;
      }
      EXPECT_EQ(toggles(rec_batch), toggles(rec_loop));
      EXPECT_EQ(rec_batch.probes().size(), 9u);
      EXPECT_EQ(ev_batch.to_json(), ev_loop.to_json());
      EXPECT_GT(ev_batch.raised(), 0u);
      EXPECT_EQ(tap_batch.render(), tap_loop.render());
    }
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
  // The class, sign and readout checks also run on every triple through
  // fma_ieee_batch, whose bit-plane instantiation of the stages thereby
  // meets the softfloat oracle directly, not only the one-lane path.
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
  for (const PcsConfig& geom : {PcsConfig{8, 4}, PcsConfig{10, 5}, kPaperPcs}) {
    SCOPED_TRACE(std::to_string(geom.block) + "/" + std::to_string(geom.group));
    PcsFma unit(geom);
    int class_or_sign = 0, bound = 0, readout = 0;
    std::string first;
    auto fail = [&](int& count, const std::string& what) {
      ++count;
      if (first.empty()) first = what;
    };
    // The IEEE-class, sign and readout checks of one binary64 result.
    auto check = [&](const PFloat& got, const PFloat& ref,
                     const OperandTriple& t, const char* path) {
      if (got.cls() != ref.cls() ||
          (!ref.is_nan() && got.sign() != ref.sign())) {
        fail(class_or_sign, std::string(path) + " class/sign " +
                                describe(t.a, t.b, t.c) + " got " +
                                got.to_string() + " want " + ref.to_string());
      } else if (geom == kPaperPcs && !ref.is_nan() &&
                 !PFloat::same_value(got, ref)) {
        fail(readout, std::string(path) + " readout " +
                          describe(t.a, t.b, t.c));
      }
    };
    std::size_t idx = 0;
    for (const PFloat& a : tiny) {
      const PcsOperand pa = ieee_to_pcs(a, geom);
      for (const PFloat& c : tiny) {
        const PcsOperand pc = ieee_to_pcs(c, geom);
        for (const PFloat& b : wide) {
          const std::size_t k = idx++;
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
          for (int m = 0; m < 2; ++m)
            check(pcs_to_ieee(r, kBinary64, modes[m]), refs[m][k], ops[k],
                  "fma");
        }
      }
    }
    // The same triples through the bit-sliced batch path.
    std::vector<PFloat> out(ops.size());
    for (int m = 0; m < 2; ++m) {
      FmaBatchHooks hooks;
      hooks.rm = modes[m];
      unit.fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
      for (std::size_t k = 0; k < ops.size(); ++k)
        check(out[k], refs[m][k], ops[k], "batch");
    }
    EXPECT_EQ(class_or_sign, 0) << first;
    EXPECT_EQ(bound, 0) << first;
    EXPECT_EQ(readout, 0) << first;
  }
}

}  // namespace
}  // namespace csfma
