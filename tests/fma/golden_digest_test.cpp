// Golden digests of the carry-save units that share the PCS stage
// sequence (src/fma/cs_datapath.hpp): FcsFma in both select modes, with
// and without a SignalTap, and PcsDotProduct.  Each digest is a 64-bit
// FNV-1a over a fixed seeded stream's results (native operand planes and
// IEEE readouts), the recorder's per-probe toggles, the event log and the
// tap render.  Comparing two backends of one build cannot see a drift both
// share; these pinned values can: any change to a result, toggle, event or
// tap byte fails here.  A deliberate output change re-pins them and says
// why.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fma/dot_product.hpp"
#include "fma/fma_unit.hpp"
#include "fma/fcs_fma.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

void put(std::ostream& os, const PFloat& x) {
  os << x.to_bits().to_hex() << ' ';
}

void put(std::ostream& os, const FcsOperand& x) {
  os << (int)x.cls() << x.exc_sign() << ' ' << x.exp() << ' '
     << x.mant().sum().to_hex() << ' ' << x.mant().carry().to_hex() << ' '
     << x.tail().sum().to_hex() << ' ' << x.tail().carry().to_hex() << '\n';
}

void put(std::ostream& os, const PcsOperand& x) {
  os << (int)x.cls() << x.exc_sign() << ' ' << x.exp() << ' '
     << x.mant().sum().to_hex() << ' ' << x.mant().carries().to_hex() << ' '
     << x.round().sum().to_hex() << ' ' << x.round().carries().to_hex()
     << '\n';
}

/// A binary64 value that exercises every route: normals over a wide
/// exponent range, signed zeros, infinities, NaN, and the extremes that
/// overflow or flush a product.
PFloat normal_in(Rng& rng, int emin, int emax) {
  return PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(emin, emax));
}

PFloat draw(Rng& rng, int emin, int emax) {
  const auto in = [&](int lo, int hi) { return normal_in(rng, lo, hi); };
  switch (rng.next_below(40)) {
    case 0: return PFloat::zero(kBinary64, rng.next_bool());
    case 1: return PFloat::inf(kBinary64, rng.next_bool());
    case 2: return PFloat::nan(kBinary64);
    case 3: return in(900, 1000);
    case 4: return in(-1000, -900);
    default: return in(emin, emax);
  }
}

/// IEEE-boundary triples: random, exact cancellations (a = -round(b*c)),
/// and A far above or below the product (the pass-through and the
/// right-shifted A row).
std::vector<OperandTriple> ieee_stream(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<OperandTriple> ops;
  for (int i = 0; i < n; ++i) {
    OperandTriple t{draw(rng, -60, 60), draw(rng, -30, 30),
                    draw(rng, -30, 30)};
    switch (rng.next_below(6)) {
      case 0:
        if (t.b.is_normal() && t.c.is_normal())
          t.a = PFloat::mul(t.b, t.c, kBinary64, Round::NearestEven).negated();
        break;
      case 1:
        t.a = normal_in(rng, 200, 300);
        break;
      case 2:
        t.a = normal_in(rng, -300, -200);
        break;
      default: break;
    }
    ops.push_back(t);
  }
  return ops;
}

/// The Sec. IV-B recurrence x[n] = B1*x[n-1] + B2*x[n-2] + x[n-3] kept in
/// the FCS format between operations (carried tails and raw carries).
void fcs_recurrence(FcsFma& unit, EventLog& events, std::uint64_t seed,
                    int runs, std::ostream& os) {
  Rng rng(seed);
  std::uint64_t op = 0;
  for (int r = 0; r < runs; ++r) {
    const PFloat b1 = PFloat::from_double(
        kBinary64, rng.next_double(1.0, 32.0) * (rng.next_bool() ? 1 : -1));
    const PFloat b2 = PFloat::from_double(
        kBinary64, rng.next_double(0.001, 1.0) * (rng.next_bool() ? 1 : -1));
    FcsOperand x[3];
    for (FcsOperand& v : x)
      v = ieee_to_fcs(PFloat::from_double(kBinary64, rng.next_double(-1, 1)));
    for (int i = 3; i <= 18; ++i) {
      events.begin_op(op++, 0, b2.to_bits().lo64(), 0);
      const FcsOperand t = unit.fma(x[0], b2, x[1]);
      put(os, t);
      events.begin_op(op++, 0, b1.to_bits().lo64(), 0);
      const FcsOperand y = unit.fma(t, b1, x[2]);
      put(os, y);
      os << unit.last_top_block() << ' ' << unit.last_mul_stats().rows << '\n';
      x[0] = x[1];
      x[1] = x[2];
      x[2] = y;
    }
  }
}

/// Operands that reach the rare exits: A and C whose tails are exactly half
/// a mantissa ulp (the deferred-rounding misround), and a chain scaled past
/// either end of the exponent range (overflow to infinity, the subnormal
/// flush).
void fcs_edges(FcsFma& unit, EventLog& events, std::ostream& os) {
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  const FcsOperand fone = ieee_to_fcs(one);
  const FcsOperand zero = ieee_to_fcs(PFloat::zero(kBinary64, false));
  std::uint64_t op = 1u << 20;
  for (int redundant = 0; redundant < 2; ++redundant) {
    const CsWord half =
        CsWord::bit_at(FcsGeometry::kTailDigits - 1 - redundant);
    const FcsOperand tie(
        CsNum::from_binary(FcsGeometry::kMantDigits, CsWord::bit_at(80)),
        CsNum(FcsGeometry::kTailDigits, half, redundant ? half : CsWord()), 0,
        FpClass::Normal, false);
    events.begin_op(op++, 0, 0, 0);
    put(os, unit.fma(tie, one, tie));
  }
  for (int e : {900, -900}) {
    const PFloat scale = PFloat::from_double(kBinary64, std::ldexp(-1.5, e));
    FcsOperand x = fone;
    for (int i = 0; i < 5; ++i) {
      events.begin_op(op++, 0, 0, 0);
      x = unit.fma(zero, scale, x);
      put(os, x);
    }
  }
}

/// One FCS digest: the recurrence, then the IEEE stream in both nearest
/// modes, with a recorder and an unbounded event log (and a tap when
/// `tapped`).
std::uint64_t fcs_digest(FcsSelect select, bool tapped, int runs, int ops) {
  ActivityRecorder rec;
  EventLog events(1u << 20);
  SignalTap tap("fcs");
  IntrospectHooks hooks{tapped ? &tap : nullptr, &events};
  FcsFma unit(&rec, select, &hooks);
  std::ostringstream os;
  fcs_recurrence(unit, events, 171, runs, os);
  fcs_edges(unit, events, os);
  const std::vector<OperandTriple> stream = ieee_stream(172, ops);
  for (Round rm : {Round::NearestEven, Round::HalfAwayFromZero}) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const OperandTriple& t = stream[i];
      events.begin_op(i, t.a.to_bits().lo64(), t.b.to_bits().lo64(),
                      t.c.to_bits().lo64());
      put(os, unit.fma_ieee(t.a, t.b, t.c, rm));
      os << unit.last_top_block() << '\n';
    }
  }
  os << rec.to_json() << '\n' << events.to_json() << '\n';
  if (tapped) os << tap.render();
  return fnv1a(os.str());
}

TEST(GoldenDigest, FcsEarlyLza) {
  EXPECT_EQ(fcs_digest(FcsSelect::EarlyLza, false, 64, 4000),
            0x740b74d2fedd0380ull);
}

TEST(GoldenDigest, FcsZeroDetect) {
  EXPECT_EQ(fcs_digest(FcsSelect::ZeroDetect, false, 64, 4000),
            0x42e8f97ba170b379ull);
}

TEST(GoldenDigest, FcsTapped) {
  EXPECT_EQ(fcs_digest(FcsSelect::EarlyLza, true, 2, 60),
            0xbbd8fb7932e0508cull);
  EXPECT_EQ(fcs_digest(FcsSelect::ZeroDetect, true, 2, 60),
            0x4ffcbb6817e2b3e2ull);
}

TEST(GoldenDigest, PcsDotProduct) {
  Rng rng(173);
  ActivityRecorder rec;
  PcsDotProduct unit(&rec);
  std::ostringstream os;
  for (int i = 0; i < 3000; ++i) {
    const int n = (int)rng.next_int(0, 12);
    std::vector<std::pair<PFloat, PFloat>> terms;
    for (int k = 0; k < n; ++k)
      terms.emplace_back(draw(rng, -40, 40), draw(rng, -40, 40));
    // Exact cancellation of the first term.
    if (n >= 2 && rng.next_below(4) == 0)
      terms[1] = {terms[0].first.negated(), terms[0].second};
    const PcsOperand r = unit.dot(terms);
    put(os, r);
    for (Round rm : {Round::NearestEven, Round::HalfAwayFromZero})
      put(os, pcs_to_ieee(r, kBinary64, rm));
    os << unit.last_tree_stats().rows << ' ' << unit.last_tree_stats().levels
       << '\n';
  }
  os << rec.to_json();
  EXPECT_EQ(fnv1a(os.str()), 0xd527fec966780362ull);
}

TEST(FcsBatch, EqualsPerOperationLoop) {
  // FcsFma::fma_ieee_batch runs the stages in bit planes: its results,
  // per-probe toggles and event log must equal the per-operation loop's in
  // both select modes.  A tapped unit runs one lane at a time and must
  // trace the same wires.
  const std::vector<OperandTriple> ops = ieee_stream(174, 700);
  for (FcsSelect select : {FcsSelect::EarlyLza, FcsSelect::ZeroDetect}) {
    for (bool tapped : {false, true}) {
      ActivityRecorder rec_batch, rec_loop;
      EventLog ev_batch(1u << 14), ev_loop(1u << 14);
      SignalTap tap_batch, tap_loop;
      IntrospectHooks h_batch{tapped ? &tap_batch : nullptr, &ev_batch},
          h_loop{tapped ? &tap_loop : nullptr, &ev_loop};
      FcsFma batch(&rec_batch, select, &h_batch),
          loop(&rec_loop, select, &h_loop);
      std::vector<PFloat> out(ops.size());
      FmaBatchHooks hooks;
      hooks.rm = Round::HalfAwayFromZero;
      hooks.events = &ev_batch;
      hooks.base_index = 3;
      batch.fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const OperandTriple& t = ops[i];
        ev_loop.begin_op(3 + i, t.a.to_bits().lo64(), t.b.to_bits().lo64(),
                         t.c.to_bits().lo64());
        ASSERT_EQ(out[i].to_bits(),
                  loop.fma_ieee(t.a, t.b, t.c, hooks.rm).to_bits())
            << i;
      }
      EXPECT_EQ(batch.last_top_block(), loop.last_top_block());
      EXPECT_EQ(rec_batch.to_json(), rec_loop.to_json());
      EXPECT_EQ(ev_batch.to_json(), ev_loop.to_json());
      EXPECT_GT(ev_batch.raised(), 0u);
      EXPECT_EQ(tap_batch.render(), tap_loop.render());
    }
  }
}

}  // namespace
}  // namespace csfma
