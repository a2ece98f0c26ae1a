// The carry-save stage sequence: the PCS-FMA's back end (Sec. III-F,
// Fig 9), run by every carry-save unit — PcsFma, FcsFma (Sec. III-H,
// Fig 11, built from the same blocks) and PcsDotProduct's normalization.
// Internal to src/fma.  Per operation, after the unit's own front end:
//   mul      DSP tile products reduced by the CSA tree in the adder window,
//            C's deferred rounding as the +B row (Fig 6), B's negation;
//   align    A's rounded, aligned row (Fig 5), then the 3:2 adder (add);
//   creduce  carry reduction to the PCS form (Sec. III-E), when it runs;
//   mux      the block skip — the ZD on the planes (Fig 10) or the front
//            end's per-lane value (FCS's early LZA) — and the block mux;
//   finish   exponent update, overflow, subnormal flush.
// What differs between the units is data in a Datapath description.  The
// stages are written once over a word policy: one operation on src/cs
// words, or up to 64 in engine/slice.hpp bit planes, with the same
// results, per-probe toggles, event sequence and tap renders.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "cs/csa_tree.hpp"
#include "engine/slice.hpp"
#include "fma/fcs_format.hpp"
#include "fma/fma_unit.hpp"
#include "fma/pcs_format.hpp"
#include "fma/unit_probes.hpp"
#include "introspect/event_log.hpp"

namespace csfma {

class SignalTap;

namespace cs {

/// One carry-save datapath.
struct Datapath {
  int block;           // result block digits
  int mant_blocks;     // mantissa blocks; the tail is one more block
  int adder_blocks;    // adder window blocks
  int product_offset;  // product lsb in the adder window
  DspTiling tiling;    // C's mantissa by B's 53-bit port
  int group;           // carry-reduction spacing; 0: the adder planes stay raw
  bool zero_detect;    // the ZD picks the block skip; else the front end
  bool tap_top_block;  // tap the mux select as the top block index
                       // ("mux.top_block"), not the skip ("mux.zd_skip")

  int mant_digits() const { return mant_blocks * block; }
  int adder_width() const { return adder_blocks * block; }
  /// Leading blocks the mux can skip: the mantissa stays in the window.
  int max_skip() const { return adder_blocks - mant_blocks; }
  /// A lands at window offset e_A - e_P + align_const() (see PcsConfig).
  int align_const() const { return 52 + product_offset; }
};

/// The PCS-FMA at geometry g: DSP48E tiles of 17 (the 18-bit signed
/// ports) by 24 bits (the 25-bit ports), 21 DSPs at 55/11 (Table I).
Datapath pcs_datapath(const PcsConfig& g);

/// Tile rows at the widest valid PCS geometry (block 62: ceil(124/17) * 3).
inline constexpr int kMaxTiles = 24;
/// Adder blocks at the narrowest valid PCS geometry (block 8) and of FCS.
inline constexpr int kMaxBlocks = 13;

/// How one operation leaves the unit.
enum class Route {
  SideWire,     // a NaN or infinite operand (Sec. III-B): a class result
  ZeroProduct,  // B or C is zero: the result is A, rounded
  EarlyPass,    // A wholly left of the adder window, seen before the mul
  PassThrough,  // the same, seen after the multiplier
  Datapath,     // through the stages
};

/// One operation's lane data: what the per-lane front end hands the stages
/// and what the stages hand back to the per-lane readout.
struct Lane {
  std::int64_t tiles[kMaxTiles];  // DSP tile products of B_M x C_M
  std::uint64_t b_sig;            // B on the 53-bit port
  bool b_neg;                     // B's sign: the product is negated
  bool rnd_c;                     // C's deferred rounding: the +B_M row
  int rnd_a;                      // A's deferred rounding (Fig 5)
  bool misround_a, misround_c;    // deferred rounding differs from IEEE
  int lza_miss[2];                // early-LZA shortfall on A and C, 0: none
  int e_p;                        // product exponent e_B + e_C
  int a_ofs;                      // A's digit 0 in window coordinates
  CsWord a_row;                   // A, rounded and aligned in the window
  int a_msb;                      // A's top window digit, -1 when empty
  int sign_run;                   // adder output's leading sign run
  int skip;                       // block-skip count
  bool zd_late;                   // one more block was skippable
};

/// Where the stages report: the unit's probes, its tap (one lane only),
/// whether events are on, and the multiplier's tree statistics.
struct Sinks {
  UnitProbes& probes;
  SignalTap* tap;
  bool events;
  CsaTreeStats* mul_stats;
};

/// A lane's muxed mantissa and tail.
struct Muxed {
  CsNum mant, tail;
};

/// The stages on one lane: mul; align through mux; creduce and mux alone
/// (the back end of a unit with its own adder: the fused dot product).
CsNum multiply(const Datapath& d, Sinks& s, Lane& l);
Muxed sum(const Datapath& d, Sinks& s, Lane& l, const CsNum& product);
Muxed normalize(const Datapath& d, Sinks& s, Lane& l, const CsNum& planes);
/// mul through mux for lanes [0, n), n <= 64, in bit planes.
void run_planes(const Datapath& d, Sinks& s, Lane* lanes, int n, Muxed* out);

/// A lane's events in operation order: the front end's (deferred-rounding
/// misrounds, then early-LZA mispredictions), then, once it reached the
/// adder, the stages' (catastrophic cancellation, then a late ZD).
void raise_events(EventLog* events, const Lane& l, const Datapath& d,
                  bool reached_adder);

/// Sign of an operand's value (mantissa two's complement; a zero mantissa
/// with a non-zero tail is positive).
template <class Op>
bool value_sign(const Op& x) {
  if (x.cls() != FpClass::Normal) return x.exc_sign();
  return x.mant().is_value_negative();
}

/// The front end both multiply-add units share: routes the side wires and
/// a zero product; past them fills the deferred rounding decisions
/// (Sec. III-C; misround flags only when `events`), the multiplier
/// operands and tile products, and A's rounded, aligned row (Fig 5), with
/// a_msb set when A's rounded value is non-zero.
template <class Op>
Route front_end(const Datapath& d, const Op& a, const PFloat& b, const Op& c,
                bool events, Lane& l) {
  if (a.is_nan() || b.is_nan() || c.is_nan() || a.is_inf() || b.is_inf() ||
      c.is_inf())
    return Route::SideWire;
  const bool a_normal = a.cls() == FpClass::Normal;
  const bool c_normal = c.cls() == FpClass::Normal;
  l.rnd_a = a_normal ? a.round_increment() : 0;
  l.rnd_c = c_normal && c.round_increment() != 0;
  l.misround_a = events && a_normal && a.round_disagrees_ieee();
  l.misround_c = events && c_normal && c.round_disagrees_ieee();
  l.lza_miss[0] = l.lza_miss[1] = 0;
  if (b.is_zero() || c.is_zero()) return Route::ZeroProduct;

  // Multiplier operands: C's assimilated mantissa (the DSP pre-adders)
  // sliced against B on the 53-bit port.  A narrower B's significand moves
  // up to the port's MSB, which keeps the product scale (and so
  // e_P = e_B + e_C) format-independent.
  const int p = b.format().precision();
  CSFMA_CHECK_MSG(p <= 53, "B must be IEEE binary64 or narrower");
  l.b_sig = (b.sig() << (53 - p)).lo64();
  l.b_neg = b.sign();
  dsp_tile_products(d.tiling, c.mant().to_binary(), l.b_sig, l.tiles);
  l.e_p = b.exp() + c.exp();

  // A path: deferred rounding + pre-shift, on A's assimilated mantissa.
  // The 512-bit sign extension makes the negative-offset shift arithmetic.
  const int M = d.mant_digits();
  l.a_ofs = (a_normal ? a.exp() : l.e_p) - l.e_p + d.align_const();
  const WideUint<8> a_val =
      WideUint<8>(a_normal ? a.mant().to_binary() : CsWord()).sext(M) +
      WideUint<8>((std::uint64_t)l.rnd_a);
  l.a_row = CsWord();
  l.a_msb = -1;
  if (!a_val.is_zero() && l.a_ofs > -M) {
    l.a_row = CsWord(l.a_ofs >= 0 ? (a_val << l.a_ofs) : (a_val >> -l.a_ofs))
                  .truncated(d.adder_width());
    l.a_msb = l.a_ofs + M - 1;
  }
  return Route::Datapath;
}

/// finish: a lane's result from its muxed mantissa and tail.  F, the
/// unit's operand format, builds it: Operand, kExpMin/kExpMax, nan(),
/// inf(s), zero(s), empty(m), normal(m, e_r), rounded(a, rnd_a), and for
/// run_batch lift(x) and lower(r, rm).
template <class F>
typename F::Operand finish(const F& f, const Datapath& d, const Lane& l,
                           const Muxed& m, EventLog* events) {
  if (f.empty(m)) return f.zero(false);
  const int e_r = l.e_p + (d.max_skip() - l.skip) * d.block - d.align_const();
  if (e_r > F::kExpMax) return f.inf(m.mant.is_value_negative());
  if (e_r < F::kExpMin) {
    if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
    return f.zero(m.mant.is_value_negative());
  }
  return f.normal(m, e_r);
}

/// The result of an operation that leaves before the adder: the exception
/// side wires (Sec. III-B), a zero product or A's pass-through.
template <class F, class Op>
Op bypass(const F& f, Route route, const Op& a, const PFloat& b, const Op& c,
          int rnd_a) {
  const bool p_sign = b.sign() != value_sign(c);
  if (route == Route::SideWire) {
    if (a.is_nan() || b.is_nan() || c.is_nan()) return f.nan();
    if (b.is_inf() || c.is_inf()) {
      if (b.is_zero() || c.is_zero()) return f.nan();
      if (a.is_inf() && a.exc_sign() != p_sign) return f.nan();
      return f.inf(p_sign);
    }
    return f.inf(a.exc_sign());
  }
  // -0 only if both are negative.
  if (route == Route::ZeroProduct && a.is_zero())
    return f.zero(p_sign && value_sign(a));
  return f.rounded(a, rnd_a);
}

/// One operation past its front end, on one lane: side wires, a zero
/// product and an early pass-through skip the stages, a pass-through
/// leaves after mul; a datapath operation leaves its skip in `last_skip`.
template <class F, class Op>
Op one_lane(const F& f, const Datapath& d, Route route, Lane& l, const Op& a,
            const PFloat& b, const Op& c, Sinks& s, EventLog* events,
            int& last_skip) {
  if (route == Route::SideWire) return bypass(f, route, a, b, c, 0);
  if (route == Route::PassThrough || route == Route::Datapath) {
    const CsNum product = multiply(d, s, l);
    if (route == Route::Datapath) {
      const Muxed m = sum(d, s, l, product);
      raise_events(events, l, d, true);
      last_skip = l.skip;
      return finish(f, d, l, m, events);
    }
  }
  raise_events(events, l, d, false);
  return bypass(f, route, a, b, c, l.rnd_a);
}

/// The batch form of fma_ieee: runs of operations that reach the adder go
/// through the stages up to 64 lanes at a time in bit planes; lifting, the
/// unit's front end `front(d, a, b, c, events_on, lane)` and the readout
/// stay per lane.  The other routes, and every operation of a tapped unit
/// (a SignalTap follows one operation's wires in order), run one lane at a
/// time in stream order.
template <class F, class Front>
void run_batch(const F& f, const Datapath& d, Front front, UnitProbes& probes,
               SignalTap* tap, CsaTreeStats* mul_stats, int& last_skip,
               const OperandTriple* ops, std::size_t n, PFloat* out,
               const FmaBatchHooks& hooks) {
  EventLog* events = hooks.events;
  const auto begin_op = [&](std::size_t i) {
    if (events != nullptr) {
      events->begin_op(hooks.base_index + i, ops[i].a.to_bits().lo64(),
                       ops[i].b.to_bits().lo64(), ops[i].c.to_bits().lo64());
    }
  };
  Lane lanes[slice::kLanes];
  std::size_t first = 0;
  int filled = 0;
  const auto run_block = [&] {
    if (filled == 0) return;
    Sinks sinks{probes, nullptr, events != nullptr, mul_stats};
    Muxed muxed[slice::kLanes];
    run_planes(d, sinks, lanes, filled, muxed);
    for (int L = 0; L < filled; ++L) {
      begin_op(first + L);
      raise_events(events, lanes[L], d, true);
      last_skip = lanes[L].skip;
      out[first + L] =
          f.lower(finish(f, d, lanes[L], muxed[L], events), hooks.rm);
    }
    filled = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const typename F::Operand a = f.lift(ops[i].a), c = f.lift(ops[i].c);
    Lane& lane = lanes[filled];
    const Route route = front(d, a, ops[i].b, c, events != nullptr, lane);
    if (tap == nullptr && route == Route::Datapath) {
      if (filled == 0) first = i;
      if (++filled == slice::kLanes) run_block();
      continue;
    }
    // On the lane the front end just filled (run_block reads only the
    // slots before it).
    run_block();
    begin_op(i);
    Sinks sinks{probes, tap, events != nullptr, mul_stats};
    out[i] = f.lower(
        one_lane(f, d, route, lane, a, ops[i].b, c, sinks, events, last_skip),
        hooks.rm);
  }
  run_block();
}

/// The PCS operand format at geometry g (see finish).
struct PcsResult {
  PcsConfig g;
  using Operand = PcsOperand;
  static constexpr int kExpMin = PcsConfig::kExpMin;
  static constexpr int kExpMax = PcsConfig::kExpMax;

  PcsOperand nan() const { return PcsOperand::make_nan(g); }
  PcsOperand inf(bool sign) const { return PcsOperand::make_inf(sign, g); }
  PcsOperand zero(bool sign) const { return PcsOperand::make_zero(sign, g); }
  /// Value-level: mantissa and tail are zero after the wrap.
  bool empty(const Muxed& m) const {
    return m.mant.to_binary().is_zero() && m.tail.to_binary().is_zero();
  }
  PcsOperand normal(const Muxed& m, int e_r) const {
    const auto pcs = [&](const CsNum& x) {
      return PcsNum(x.width(), g.group, x.sum(), x.carry());
    };
    return PcsOperand(pcs(m.mant), pcs(m.tail), e_r, FpClass::Normal, false);
  }
  /// A with its deferred rounding applied and the tail cleared.
  PcsOperand rounded(const PcsOperand& a, int rnd_a) const {
    const CsNum mant =
        compress3(g.mant_digits(), a.mant().sum(), a.mant().carries(),
                  CsWord((std::uint64_t)rnd_a));
    return PcsOperand(carry_reduce(mant, g.group),
                      PcsNum::zero(g.tail_digits(), g.group), a.exp(),
                      FpClass::Normal, value_sign(a));
  }
  PcsOperand lift(const PFloat& x) const { return ieee_to_pcs(x, g); }
  PFloat lower(const PcsOperand& r, Round rm) const {
    return pcs_to_ieee(r, kBinary64, rm);
  }
};

/// The FCS operand format (see finish).
struct FcsResult {
  using G = FcsGeometry;
  using Operand = FcsOperand;
  static constexpr int kExpMin = G::kExpMin;
  static constexpr int kExpMax = G::kExpMax;

  FcsOperand nan() const { return FcsOperand::make_nan(); }
  FcsOperand inf(bool sign) const { return FcsOperand::make_inf(sign); }
  FcsOperand zero(bool sign) const { return FcsOperand::make_zero(sign); }
  /// Digit-level: what survived lies below the selected window — the
  /// truncation the early-LZA design accepts under total cancellation.
  bool empty(const Muxed& m) const {
    return m.mant.sum().is_zero() && m.mant.carry().is_zero() &&
           m.tail.sum().is_zero() && m.tail.carry().is_zero();
  }
  FcsOperand normal(const Muxed& m, int e_r) const {
    return FcsOperand(m.mant, m.tail, e_r, FpClass::Normal, false);
  }
  FcsOperand rounded(const FcsOperand& a, int rnd_a) const {
    return FcsOperand(compress3(G::kMantDigits, a.mant().sum(),
                                a.mant().carry(), CsWord((std::uint64_t)rnd_a)),
                      CsNum::zero(G::kTailDigits), a.exp(), FpClass::Normal,
                      value_sign(a));
  }
  FcsOperand lift(const PFloat& x) const { return ieee_to_fcs(x); }
  PFloat lower(const FcsOperand& r, Round rm) const {
    return fcs_to_ieee(r, kBinary64, rm);
  }
};

}  // namespace cs
}  // namespace csfma
