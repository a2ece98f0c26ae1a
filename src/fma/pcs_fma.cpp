#include "fma/pcs_fma.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "common/check.hpp"
#include "cs/lza.hpp"
#include "engine/slice.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {

/// DSP48E tile geometry of the PCS multiplier: the 110b multiplicand feeds
/// the 18-bit signed ports (17b unsigned slices), the 53b multiplier the
/// 25-bit ports (24b slices) — ceil(110/17) * ceil(53/24) = 21 DSPs, the
/// paper's Table I figure for the PCS-FMA.
constexpr int kCandChunk = 17;
constexpr int kMultChunk = 24;

/// The multiplier's tiling at geometry g: C's mantissa by the 53-bit B port.
DspTiling tiling(const PcsConfig& g) {
  return {g.mant_digits(), 53, kCandChunk, kMultChunk};
}
/// Tile rows at the widest valid geometry (block 62: ceil(124/17) * 3).
constexpr int kMaxTiles = 24;
/// Adder blocks at the narrowest valid geometry (block 8: 6 + ceil(53/8)).
constexpr int kMaxBlocks = 13;

/// Sign of a normal operand's value (mantissa two's complement; a zero
/// mantissa with a non-zero tail is positive).
bool value_sign(const PcsOperand& x) {
  if (x.cls() != FpClass::Normal) return x.exc_sign();
  return x.mant().as_cs().is_value_negative();
}

/// How one operation leaves the unit.
enum class Route {
  SideWire,     // a NaN or infinite operand (Sec. III-B): a class result
  ZeroProduct,  // B or C is zero: the result is A, rounded
  PassThrough,  // A lies wholly left of the adder window: after the
                // multiplier, the result is A, rounded
  Datapath,     // through the adder, carry reduction, ZD and mux (Fig 9)
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
  int e_p;                        // product exponent e_B + e_C
  CsWord a_row;                   // A, rounded and aligned in the window
  int a_msb;                      // A's top window digit, -1 when empty
  int sign_run;                   // adder output's leading sign run
  int skip;                       // ZD block-skip count
  bool zd_late;                   // one more block was skippable
};

/// The per-lane front end: routes the operation and, past the side wires,
/// fills `l` with the deferred rounding decisions (Sec. III-C), the DSP
/// tile products and A's alignment (Fig 5; in parallel to the multiply).
/// Misrounding flags are only computed when `events` is set.
Route front_end(const PcsOperand& a, const PFloat& b, const PcsOperand& c,
                const PcsConfig& g, bool events, Lane& l) {
  if (a.is_nan() || b.is_nan() || c.is_nan() || a.is_inf() || b.is_inf() ||
      c.is_inf())
    return Route::SideWire;
  const bool a_normal = a.cls() == FpClass::Normal;
  const bool c_normal = c.cls() == FpClass::Normal;
  l.rnd_a = a_normal ? a.round_increment() : 0;
  l.rnd_c = c_normal && c.round_increment() != 0;
  l.misround_a = events && a_normal && a.round_disagrees_ieee();
  l.misround_c = events && c_normal && c.round_disagrees_ieee();
  if (b.is_zero() || c.is_zero()) return Route::ZeroProduct;

  // Multiplier operands: C's assimilated mantissa (the DSP pre-adders)
  // sliced against B on the 53-bit port.  A narrower B's significand moves
  // up to the port's MSB, which keeps the product scale (and so
  // e_P = e_B + e_C) format-independent.
  const int p = b.format().precision();
  CSFMA_CHECK_MSG(p <= 53, "B must be IEEE binary64 or narrower");
  l.b_sig = (b.sig() << (53 - p)).lo64();
  l.b_neg = b.sign();
  dsp_tile_products(tiling(g), c.mant().to_binary(), l.b_sig, l.tiles);
  l.e_p = b.exp() + c.exp();

  // A path: deferred rounding + pre-shift.  The A mantissa is assimilated
  // here (see header note).
  const int W = g.adder_width();
  const int M = g.mant_digits();
  const int e_a = a_normal ? a.exp() : l.e_p;  // zero: any
  const WideUint<8> a_val =
      WideUint<8>(a_normal ? a.mant().to_binary() : CsWord()).sext(M) +
      WideUint<8>((std::uint64_t)l.rnd_a);
  const int ofs_a = e_a - l.e_p + g.align_const();
  l.a_row = CsWord();
  l.a_msb = -1;
  if (a_val.is_zero()) return Route::Datapath;
  // A entirely left of the adder window: the product cannot influence
  // even the rounding tail.
  if (ofs_a > W - M) return Route::PassThrough;
  if (ofs_a > -M) {
    // The 512-bit sign extension makes the negative-offset shift arithmetic.
    const WideUint<8> placed =
        ofs_a >= 0 ? (a_val << ofs_a) : (a_val >> -ofs_a);
    l.a_row = CsWord(placed).truncated(W);
    l.a_msb = ofs_a + M - 1;
  }
  return Route::Datapath;
}

/// The result of an operation that leaves before the adder: the exception
/// side wires (Sec. III-B), a zero product or A's pass-through.
PcsOperand bypass_result(Route route, const PcsOperand& a, const PFloat& b,
                         const PcsOperand& c, int rnd_a) {
  const PcsConfig g = a.geometry();
  const bool p_sign = b.sign() != value_sign(c);
  if (route == Route::SideWire) {
    if (a.is_nan() || b.is_nan() || c.is_nan()) return PcsOperand::make_nan(g);
    if (b.is_inf() || c.is_inf()) {
      if (b.is_zero() || c.is_zero()) return PcsOperand::make_nan(g);
      if (a.is_inf() && a.exc_sign() != p_sign) return PcsOperand::make_nan(g);
      return PcsOperand::make_inf(p_sign, g);
    }
    return PcsOperand::make_inf(a.exc_sign(), g);
  }
  if (route == Route::ZeroProduct && a.is_zero()) {
    // -0 only if both are negative.
    return PcsOperand::make_zero(p_sign && value_sign(a), g);
  }
  // A alone reaches the result: apply its deferred rounding, clear the tail.
  const PcsNum mant = carry_reduce(
      compress3(g.mant_digits(), a.mant().sum(), a.mant().carries(),
                CsWord((std::uint64_t)rnd_a)),
      g.group);
  return PcsOperand(mant, PcsNum::zero(g.tail_digits(), g.group), a.exp(),
                    FpClass::Normal, value_sign(a));
}

/// The documented misrounding of the deferred half-away-from-zero rule:
/// detail 0 = the A operand's tail, 1 = C's (see fp/rounding.hpp).
void raise_rounding_events(EventLog* events, const Lane& l) {
  if (events == nullptr) return;
  if (l.misround_a) events->raise(EventKind::MisroundVsIeee, 0);
  if (l.misround_c) events->raise(EventKind::MisroundVsIeee, 1);
}

/// The adder and ZD events of one lane: catastrophic cancellation (the
/// sum's top digit landed >= 50 positions below the highest input digit,
/// in window coordinates), then a ZD that stopped short of a
/// value-preserving skip (Fig 10).
void raise_stage_events(EventLog* events, const Lane& l, const PcsConfig& g) {
  if (events == nullptr) return;
  const int p_msb = g.product_offset() + g.mant_digits() + 53;
  const int out_msb = g.adder_width() - 1 - l.sign_run;
  const int drop = std::max(l.a_msb, p_msb) - out_msb;
  if (drop >= 50) events->raise(EventKind::Cancellation, drop);
  if (l.zd_late) events->raise(EventKind::ZeroDetectLate, l.skip);
}

/// Exponent update: one lane's result from its muxed mantissa and tail.
PcsOperand finish(const Lane& l, const PcsNum& mant, const PcsNum& tail,
                  const PcsConfig& g, EventLog* events) {
  if (mant.to_binary().is_zero() && tail.to_binary().is_zero()) {
    return PcsOperand::make_zero(false, g);
  }
  const int max_skip = g.adder_blocks() - 2;
  const int e_r = l.e_p + (max_skip - l.skip) * g.block - g.align_const();
  if (e_r > PcsConfig::kExpMax) {
    return PcsOperand::make_inf(mant.as_cs().is_value_negative(), g);
  }
  if (e_r < PcsConfig::kExpMin) {
    if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
    return PcsOperand::make_zero(mant.as_cs().is_value_negative(), g);
  }
  return PcsOperand(mant, tail, e_r, FpClass::Normal, false);
}

// ---- word policies: the type that holds a stage's values and its word
//      primitives.  OneLane runs one operation on the src/cs words;
//      Planes runs up to 64 in slice:: bit-plane form. ----

struct OneLane {
  using Mask = bool;
  using Word = CsWord;
  using Cs = CsNum;
  using Pcs = PcsNum;
  struct Mux {
    PcsNum mant, tail;
  };

  static const CsWord& sum(const CsNum& x) { return x.sum(); }
  static const CsWord& carry(const CsNum& x) { return x.carry(); }
  static const CsWord& sum(const PcsNum& x) { return x.sum(); }
  static const CsWord& carry(const PcsNum& x) { return x.carries(); }

  static CsNum product(const Lane* l, int, const PcsConfig& g,
                       CsaTreeStats* stats) {
    return reduce_tile_products(tiling(g), l[0].tiles, g.adder_width(),
                                g.product_offset(), stats);
  }
  static CsWord b_row(const Lane* l, int, const PcsConfig& g) {
    return CsWord(l[0].b_sig) << g.product_offset();
  }
  static CsWord a_row(const Lane* l, int, int) { return l[0].a_row; }
  static void select(Mask m, CsNum& dst, const CsNum& src, int) {
    if (m) dst = src;
  }
  static CsNum compress3(int w, const CsNum& x, const CsWord& row) {
    return csfma::compress3(w, x.sum(), x.carry(), row);
  }
  static CsNum negate(int, const CsNum& x) { return cs_negate(x); }
  static PcsNum carry_reduce(const CsNum& x, int, int group) {
    return csfma::carry_reduce(x, group);
  }
  static void sign_runs(const CsNum& x, int, Lane* l, int) {
    l[0].sign_run = leading_sign_run(x);
  }
  static void zero_detect(const PcsNum& r, const PcsConfig& g, int max_skip,
                          bool late, Lane* l, int) {
    const CsNum x = r.as_cs();
    const int k = count_skippable_blocks(x, g.block, max_skip);
    l[0].skip = k;
    l[0].zd_late =
        late && k < max_skip && skip_preserves_value(x, g.block, k + 1);
  }
  static Mux mux(const PcsNum& r, const PcsConfig& g, int max_skip,
                 const Lane* l, int) {
    const int mant_lo = (max_skip - l[0].skip) * g.block;
    return {r.extract_digits(mant_lo, g.mant_digits()),
            mant_lo >= g.block
                ? r.extract_digits(mant_lo - g.block, g.tail_digits())
                : PcsNum::zero(g.tail_digits(), g.group)};
  }
  static void observe(ActivityProbe& p, const CsWord& w, int, int) {
    p.observe(w);
  }
  static void tap(SignalTap& t, const char* name, const CsWord& w, int width) {
    t.tap(name, w, width);
  }
};

struct Planes {
  using Mask = std::uint64_t;
  /// planes[b] bit L = bit b of lane L's value; [0, width) are valid.
  struct Word {
    std::uint64_t p[kCsWordBits];
  };
  struct Cs {
    Word s, c;
  };
  using Pcs = Cs;
  struct Mux {
    Cs mant, tail;
  };

  static const Word& sum(const Cs& x) { return x.s; }
  static const Word& carry(const Cs& x) { return x.c; }

  /// The tile rows' Wallace tree, run on the window above the product
  /// offset (every row sits there) and placed into the full window.
  static Cs product(const Lane* l, int n, const PcsConfig& g,
                    CsaTreeStats* stats) {
    const DspTiling t = tiling(g);
    const int rows = t.rows(), W = g.adder_width(), off = g.product_offset();
    std::uint64_t tiles[kMaxTiles * 64], scratch[kMaxTiles * kCsWordBits];
    int lo[kMaxTiles];
    for (int r = 0; r < rows; ++r) {
      std::uint64_t prod[slice::kLanes];
      for (int L = 0; L < n; ++L) prod[L] = (std::uint64_t)l[L].tiles[r];
      slice::pack_words(prod, 1, n, 64, tiles + r * 64);
      lo[r] = t.weight(r);
    }
    Cs out;
    std::fill(out.s.p, out.s.p + off, 0);
    std::fill(out.c.p, out.c.p + off, 0);
    slice::reduce_tiles(W - off, rows, lo, tiles, scratch, out.s.p + off,
                        out.c.p + off);
    *stats = csa_tree_stats(rows, W);
    return out;
  }
  static Word b_row(const Lane* l, int n, const PcsConfig& g) {
    std::uint64_t sig[slice::kLanes];
    for (int L = 0; L < n; ++L) sig[L] = l[L].b_sig;
    Word w{};
    slice::pack_words(sig, 1, n, 53, w.p + g.product_offset());
    return w;
  }
  static Word a_row(const Lane* l, int n, int width) {
    CsWord rows[slice::kLanes];
    for (int L = 0; L < n; ++L) rows[L] = l[L].a_row;
    Word w;
    slice::pack_words(rows[0].data(), CsWord::kWords, n, width, w.p);
    return w;
  }
  static void select(Mask m, Cs& dst, const Cs& src, int width) {
    for (int b = 0; b < width; ++b) {
      dst.s.p[b] = (dst.s.p[b] & ~m) | (src.s.p[b] & m);
      dst.c.p[b] = (dst.c.p[b] & ~m) | (src.c.p[b] & m);
    }
  }
  static Cs compress3(int w, const Cs& x, const Word& row) {
    Cs out;
    slice::compress3(w, x.s.p, x.c.p, row.p, out.s.p, out.c.p);
    return out;
  }
  /// cs_negate: ~S + ~C + 2 as one 3:2 layer.
  static Cs negate(int w, const Cs& x) {
    Cs inv;
    Word two{};
    two.p[1] = ~std::uint64_t{0};
    for (int b = 0; b < w; ++b) {
      inv.s.p[b] = ~x.s.p[b];
      inv.c.p[b] = ~x.c.p[b];
    }
    return compress3(w, inv, two);
  }
  static Cs carry_reduce(const Cs& x, int w, int group) {
    Cs out;
    slice::carry_reduce(w, group, x.s.p, x.c.p, out.s.p, out.c.p);
    return out;
  }
  static void sign_runs(const Cs& x, int w, Lane* l, int n) {
    std::uint64_t bin[kCsWordBits];
    std::uint16_t run[slice::kLanes];
    slice::assimilate(w, x.s.p, x.c.p, bin);
    slice::leading_sign_run(w, bin, n, run);
    for (int L = 0; L < n; ++L) l[L].sign_run = run[L];
  }
  static void zero_detect(const Cs& r, const PcsConfig& g, int max_skip,
                          bool late, Lane* l, int n) {
    const int W = g.adder_width();
    std::uint64_t alive[kMaxBlocks];
    slice::count_skippable_blocks(W, g.block, max_skip, r.s.p, r.c.p, alive);
    // same[j]: lanes whose top j blocks and the digit below them all equal
    // the sign, i.e. skipping j blocks keeps the signed value
    // (skip_preserves_value in plane form).
    std::uint64_t same[kMaxBlocks] = {};
    if (late) {
      std::uint64_t bin[kCsWordBits];
      slice::assimilate(W, r.s.p, r.c.p, bin);
      std::uint64_t eq = ~std::uint64_t{0};
      for (int j = 1, b = W - 1; j <= max_skip; ++j) {
        for (; b > W - 1 - j * g.block; --b) eq &= ~(bin[b - 1] ^ bin[W - 1]);
        same[j] = eq;
      }
    }
    for (int L = 0; L < n; ++L) {
      int k = 0;
      for (int s = 0; s < max_skip; ++s) k += (int)((alive[s] >> L) & 1u);
      l[L].skip = k;
      l[L].zd_late = late && k < max_skip && ((same[k + 1] >> L) & 1u) != 0;
    }
  }
  /// Mantissa plane b of a lane with skip count k is reduced plane
  /// b + (max_skip - k) * block; its tail is the block below, and a lane
  /// at the full skip count has no block below and reads a zero tail.
  static Mux mux(const Cs& r, const PcsConfig& g, int max_skip,
                 const Lane* l, int n) {
    const int M = g.mant_digits(), B = g.block;
    std::uint64_t lanes_of[kMaxBlocks] = {};
    for (int L = 0; L < n; ++L) lanes_of[l[L].skip] |= std::uint64_t{1} << L;
    Mux m;
    for (Word* w : {&m.mant.s, &m.mant.c, &m.tail.s, &m.tail.c})
      std::fill(w->p, w->p + M, 0);
    for (int k = 0; k <= max_skip; ++k) {
      const std::uint64_t sel = lanes_of[k];
      const int lo = (max_skip - k) * B;
      for (int b = 0; sel != 0 && b < M; ++b) {
        m.mant.s.p[b] |= r.s.p[lo + b] & sel;
        m.mant.c.p[b] |= r.c.p[lo + b] & sel;
      }
      for (int b = 0; sel != 0 && k < max_skip && b < B; ++b) {
        m.tail.s.p[b] |= r.s.p[lo - B + b] & sel;
        m.tail.c.p[b] |= r.c.p[lo - B + b] & sel;
      }
    }
    return m;
  }
  static void observe(ActivityProbe& p, const Word& w, int width, int n) {
    p.observe_planes(w.p, width, n);
  }
  static void tap(SignalTap&, const char*, const Word&, int) {
    CSFMA_CHECK_MSG(false, "a SignalTap follows one lane");
  }

  /// Back to lane-major form: f(L, mant, tail) for each lane in order.
  template <class F>
  static void read_lanes(const Mux& m, const PcsConfig& g, int n, F&& f) {
    const int M = g.mant_digits(), mw = (M + 63) / 64;
    std::uint64_t ms[slice::kLanes * 2], mc[slice::kLanes * 2];
    std::uint64_t ts[slice::kLanes], tc[slice::kLanes];
    slice::unpack_words(m.mant.s.p, M, n, ms, mw);
    slice::unpack_words(m.mant.c.p, M, n, mc, mw);
    slice::unpack_words(m.tail.s.p, g.block, n, ts, 1);
    slice::unpack_words(m.tail.c.p, g.block, n, tc, 1);
    for (int L = 0; L < n; ++L) {
      CsWord msum, mcar;
      for (int w = 0; w < mw; ++w) {
        msum.data()[w] = ms[L * mw + w];
        mcar.data()[w] = mc[L * mw + w];
      }
      f(L, PcsNum(M, g.group, msum, mcar),
        PcsNum(g.tail_digits(), g.group, CsWord(ts[L]), CsWord(tc[L])));
    }
  }
};

/// Where the stages report: the unit's probes, its tap (one lane only),
/// whether events are on, and the multiplier's tree statistics.
struct Sinks {
  UnitProbes& probes;
  SignalTap* tap;
  bool events;
  CsaTreeStats* mul_stats;
};

/// The lanes whose `flag` is set, as a policy mask (bit L = lane L).
template <class P>
typename P::Mask where(const Lane* l, int n, bool Lane::*flag) {
  typename P::Mask m{};
  for (int L = 0; L < n; ++L) m |= (typename P::Mask)(l[L].*flag) << L;
  return m;
}

/// Hands one stage's wires to the probes and, on one lane, to the tap
/// (under `stage`, when given).
template <class P>
void report(Sinks& s, const char* stage, int width, int n,
            std::initializer_list<std::pair<UnitProbe, const typename P::Word*>>
                wires) {
  if (s.tap != nullptr && stage != nullptr) s.tap->begin_stage(stage);
  for (const auto& [probe, w] : wires) {
    if (s.probes) P::observe(s.probes[probe], *w, width, n);
    if (s.tap != nullptr) {
      // Tap names are the probe names, except A's: probe "ashift", tap
      // "align.ashift".
      P::tap(*s.tap,
             probe == UnitProbe::AShift ? "align.ashift" : UnitProbes::name(probe),
             *w, width);
    }
  }
}

/// Multiplier stage: B_M x unrounded C_M as the DSP-tiled CSA tree, built
/// directly in the adder window at the product offset so the product
/// planes stay in carry-save form into the adder (Fig 9).  C's deferred
/// rounding becomes the +B_M correction row (Fig 6); B's sign negates.
template <class P>
typename P::Cs multiply_stage(const PcsConfig& g, Sinks& s, const Lane* lanes,
                              int n) {
  const int W = g.adder_width();
  typename P::Cs product = P::product(lanes, n, g, s.mul_stats);
  if (const typename P::Mask m = where<P>(lanes, n, &Lane::rnd_c))
    P::select(m, product, P::compress3(W, product, P::b_row(lanes, n, g)), W);
  if (const typename P::Mask m = where<P>(lanes, n, &Lane::b_neg))
    P::select(m, product, P::negate(W, product), W);
  report<P>(s, "mul", W, n,
            {{UnitProbe::MulSum, &P::sum(product)},
             {UnitProbe::MulCarry, &P::carry(product)}});
  return product;
}

/// The stages after the multiplier: the aligned A row, the 3:2 adder,
/// carry reduction (Sec. III-E), zero detect and the block mux (6:1 at
/// 55b; Sec. III-D/F).  Fills each lane's sign run (events on), skip
/// count and late-ZD flag.
template <class P>
typename P::Mux sum_stages(const PcsConfig& g, Sinks& s, Lane* lanes, int n,
                           const typename P::Cs& product) {
  const int W = g.adder_width();
  const typename P::Word a_row = P::a_row(lanes, n, W);
  report<P>(s, "align", W, n, {{UnitProbe::AShift, &a_row}});
  const typename P::Cs adder = P::compress3(W, product, a_row);
  report<P>(s, "add", W, n,
            {{UnitProbe::AddSum, &P::sum(adder)},
             {UnitProbe::AddCarry, &P::carry(adder)}});
  if (s.events) P::sign_runs(adder, W, lanes, n);  // cancellation check
  const typename P::Pcs reduced = P::carry_reduce(adder, W, g.group);
  report<P>(s, "creduce", W, n,
            {{UnitProbe::CreduceSum, &P::sum(reduced)},
             {UnitProbe::CreduceCarry, &P::carry(reduced)}});
  const int max_skip = g.adder_blocks() - 2;
  P::zero_detect(reduced, g, max_skip, s.events, lanes, n);
  typename P::Mux mux = P::mux(reduced, g, max_skip, lanes, n);
  if (s.tap != nullptr) {
    s.tap->begin_stage("mux");
    // k <= adder_blocks() - 2, at most 11 for the smallest valid block.
    s.tap->tap_u64("mux.zd_skip", (std::uint64_t)lanes[0].skip, 4);
  }
  report<P>(s, nullptr, g.mant_digits(), n,
            {{UnitProbe::MuxSum, &P::sum(mux.mant)},
             {UnitProbe::MuxCarry, &P::carry(mux.mant)}});
  return mux;
}

/// One operation past its front end, on one lane: the side wires, a zero
/// product and A's pass-through leave early; a datapath operation runs the
/// stage sequence and the readout and leaves its ZD skip in `zd_skip`.
PcsOperand one_lane(Route route, Lane& lane, const PcsOperand& a,
                    const PFloat& b, const PcsOperand& c, const PcsConfig& g,
                    Sinks& sinks, EventLog* events, int& zd_skip) {
  if (route == Route::SideWire) return bypass_result(route, a, b, c, 0);
  raise_rounding_events(events, lane);
  if (route == Route::ZeroProduct)
    return bypass_result(route, a, b, c, lane.rnd_a);
  const CsNum product = multiply_stage<OneLane>(g, sinks, &lane, 1);
  if (route == Route::PassThrough)
    return bypass_result(route, a, b, c, lane.rnd_a);
  const OneLane::Mux mux = sum_stages<OneLane>(g, sinks, &lane, 1, product);
  raise_stage_events(events, lane, g);
  zd_skip = lane.skip;
  return finish(lane, mux.mant, mux.tail, g, events);
}

}  // namespace

PcsFma::PcsFma(PcsConfig geometry, ActivityRecorder* activity,
               const IntrospectHooks* hooks)
    : geom_(geometry), probes_(activity), hooks_(hooks) {
  geom_.validate();
  CSFMA_CHECK(tiling(geom_).rows() <= kMaxTiles &&
              geom_.adder_blocks() <= kMaxBlocks);
}

PcsOperand PcsFma::fma(const PcsOperand& a, const PFloat& b,
                       const PcsOperand& c) {
  CSFMA_CHECK_MSG(a.geometry() == geom_ && c.geometry() == geom_,
                  "operand geometry differs from the unit's");
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  Lane lane;
  const Route route = front_end(a, b, c, geom_, events != nullptr, lane);
  Sinks sinks{probes_, hooks_ != nullptr ? hooks_->tap : nullptr,
              events != nullptr, &mul_stats_};
  return one_lane(route, lane, a, b, c, geom_, sinks, events, last_zd_skip_);
}

PFloat PcsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                        Round rm) {
  PcsOperand r = fma(ieee_to_pcs(a, geom_), b, ieee_to_pcs(c, geom_));
  return pcs_to_ieee(r, kBinary64, rm);
}

void PcsFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                            PFloat* out, const FmaBatchHooks& hooks) {
  // A SignalTap traces one operation's wires stage by stage; its calls must
  // stay in scalar order, so a tapped unit runs one lane at a time.
  const bool tapped = hooks_ != nullptr && hooks_->tap != nullptr;
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
    Sinks sinks{probes_, nullptr, events != nullptr, &mul_stats_};
    const Planes::Cs product =
        multiply_stage<Planes>(geom_, sinks, lanes, filled);
    const Planes::Mux mux =
        sum_stages<Planes>(geom_, sinks, lanes, filled, product);
    Planes::read_lanes(mux, geom_, filled,
                       [&](int L, const PcsNum& mant, const PcsNum& tail) {
                         begin_op(first + L);
                         raise_rounding_events(events, lanes[L]);
                         raise_stage_events(events, lanes[L], geom_);
                         last_zd_skip_ = lanes[L].skip;
                         out[first + L] = pcs_to_ieee(
                             finish(lanes[L], mant, tail, geom_, events),
                             kBinary64, hooks.rm);
                       });
    filled = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const PcsOperand a = ieee_to_pcs(ops[i].a, geom_);
    const PcsOperand c = ieee_to_pcs(ops[i].c, geom_);
    Lane& lane = lanes[filled];
    const Route route =
        front_end(a, ops[i].b, c, geom_, events != nullptr, lane);
    if (!tapped && route == Route::Datapath) {
      if (filled == 0) first = i;
      if (++filled == slice::kLanes) run_block();
      continue;
    }
    // Side wires, a zero product and A's pass-through leave the datapath
    // early and skip stages; they run one lane, in stream order, on the
    // lane the front end just filled (run_block reads only the slots
    // before it).
    run_block();
    begin_op(i);
    Sinks sinks{probes_, tapped ? hooks_->tap : nullptr, events != nullptr,
                &mul_stats_};
    out[i] = pcs_to_ieee(
        one_lane(route, lane, a, ops[i].b, c, geom_, sinks, events,
                 last_zd_skip_),
        kBinary64, hooks.rm);
  }
  run_block();
}

}  // namespace csfma
