#include "fma/cs_datapath.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "common/check.hpp"
#include "cs/lza.hpp"
#include "cs/zero_detect.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma::cs {

Datapath pcs_datapath(const PcsConfig& g) {
  return {g.block, 2, g.adder_blocks(), g.product_offset(),
          {g.mant_digits(), 53, 17, 24}, g.group, true, false};
}

void raise_events(EventLog* events, const Lane& l, const Datapath& d,
                  bool reached_adder) {
  if (events == nullptr) return;
  // Detail 0 = the A operand's tail, 1 = C's (see fp/rounding.hpp).
  if (l.misround_a) events->raise(EventKind::MisroundVsIeee, 0);
  if (l.misround_c) events->raise(EventKind::MisroundVsIeee, 1);
  for (int miss : l.lza_miss)
    if (miss != 0) events->raise(EventKind::LzaMispredict, miss);
  if (!reached_adder) return;
  // Catastrophic cancellation: the sum's top digit landed >= 50 positions
  // below the highest input digit, in window coordinates; then a ZD that
  // stopped short of a value-preserving skip (Fig 10).
  const int p_msb = d.product_offset + d.mant_digits() + 53;
  const int out_msb = d.adder_width() - 1 - l.sign_run;
  const int drop = std::max(l.a_msb, p_msb) - out_msb;
  if (drop >= 50) events->raise(EventKind::Cancellation, drop);
  if (l.zd_late) events->raise(EventKind::ZeroDetectLate, l.skip);
}

namespace {

// ---- word policies: the type that holds a stage's values and its word
//      primitives.  OneLane runs one operation on the src/cs words;
//      Planes runs up to 64 in slice:: bit-plane form. ----

struct OneLane {
  using Mask = bool;
  using Word = CsWord;
  using Cs = CsNum;
  using Mux = Muxed;

  static const CsWord& sum(const CsNum& x) { return x.sum(); }
  static const CsWord& carry(const CsNum& x) { return x.carry(); }

  static CsNum product(const Lane* l, int, const Datapath& d,
                       CsaTreeStats* stats) {
    return reduce_tile_products(d.tiling, l[0].tiles, d.adder_width(),
                                d.product_offset, stats);
  }
  static CsWord b_row(const Lane* l, int, const Datapath& d) {
    return CsWord(l[0].b_sig) << d.product_offset;
  }
  static CsWord a_row(const Lane* l, int, int) { return l[0].a_row; }
  static void select(Mask m, CsNum& dst, const CsNum& src, int) {
    if (m) dst = src;
  }
  static CsNum compress3(int w, const CsNum& x, const CsWord& row) {
    return csfma::compress3(w, x.sum(), x.carry(), row);
  }
  static CsNum negate(int, const CsNum& x) { return cs_negate(x); }
  static CsNum carry_reduce(const CsNum& x, int, int group) {
    return csfma::carry_reduce(x, group).as_cs();
  }
  static void sign_runs(const CsNum& x, int, Lane* l, int) {
    l[0].sign_run = leading_sign_run(x);
  }
  static void zero_detect(const CsNum& x, const Datapath& d, bool late,
                          Lane* l, int) {
    const int max_skip = d.max_skip();
    const int k = count_skippable_blocks(x, d.block, max_skip);
    l[0].skip = k;
    l[0].zd_late =
        late && k < max_skip && skip_preserves_value(x, d.block, k + 1);
  }
  static Muxed mux(const CsNum& r, const Datapath& d, const Lane* l, int) {
    const int mant_lo = (d.max_skip() - l[0].skip) * d.block;
    return {r.extract_digits(mant_lo, d.mant_digits()),
            mant_lo >= d.block ? r.extract_digits(mant_lo - d.block, d.block)
                               : CsNum::zero(d.block)};
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
  struct Mux {
    Cs mant, tail;
  };

  static const Word& sum(const Cs& x) { return x.s; }
  static const Word& carry(const Cs& x) { return x.c; }

  /// The tile rows' Wallace tree, run on the window above the product
  /// offset (every row sits there) and placed into the full window.
  static Cs product(const Lane* l, int n, const Datapath& d,
                    CsaTreeStats* stats) {
    const DspTiling& t = d.tiling;
    const int rows = t.rows(), W = d.adder_width(), off = d.product_offset;
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
  static Word b_row(const Lane* l, int n, const Datapath& d) {
    std::uint64_t sig[slice::kLanes];
    for (int L = 0; L < n; ++L) sig[L] = l[L].b_sig;
    Word w{};
    slice::pack_words(sig, 1, n, 53, w.p + d.product_offset);
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
  static void zero_detect(const Cs& r, const Datapath& d, bool late, Lane* l,
                          int n) {
    const int W = d.adder_width(), max_skip = d.max_skip();
    std::uint64_t alive[kMaxBlocks];
    slice::count_skippable_blocks(W, d.block, max_skip, r.s.p, r.c.p, alive);
    // same[j]: lanes whose top j blocks and the digit below them all equal
    // the sign, i.e. skipping j blocks keeps the signed value
    // (skip_preserves_value in plane form).
    std::uint64_t same[kMaxBlocks] = {};
    if (late) {
      std::uint64_t bin[kCsWordBits];
      slice::assimilate(W, r.s.p, r.c.p, bin);
      std::uint64_t eq = ~std::uint64_t{0};
      for (int j = 1, b = W - 1; j <= max_skip; ++j) {
        for (; b > W - 1 - j * d.block; --b) eq &= ~(bin[b - 1] ^ bin[W - 1]);
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
  /// Mantissa plane b of a lane with skip count k is plane
  /// b + (max_skip - k) * block; its tail is the block below, and a lane
  /// at the full skip count has no block below and reads a zero tail.
  static Mux mux(const Cs& r, const Datapath& d, const Lane* l, int n) {
    const int M = d.mant_digits(), B = d.block, max_skip = d.max_skip();
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

  /// Back to lane-major form.
  static void read_lanes(const Mux& m, const Datapath& d, int n, Muxed* out) {
    const int M = d.mant_digits(), B = d.block, mw = (M + 63) / 64;
    std::uint64_t ms[slice::kLanes * 2], mc[slice::kLanes * 2];
    std::uint64_t ts[slice::kLanes], tc[slice::kLanes];
    slice::unpack_words(m.mant.s.p, M, n, ms, mw);
    slice::unpack_words(m.mant.c.p, M, n, mc, mw);
    slice::unpack_words(m.tail.s.p, B, n, ts, 1);
    slice::unpack_words(m.tail.c.p, B, n, tc, 1);
    for (int L = 0; L < n; ++L) {
      CsWord msum, mcar;
      for (int w = 0; w < mw; ++w) {
        msum.data()[w] = ms[L * mw + w];
        mcar.data()[w] = mc[L * mw + w];
      }
      out[L] = {CsNum(M, msum, mcar), CsNum(B, CsWord(ts[L]), CsWord(tc[L]))};
    }
  }
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

/// mul: B_M x unrounded C_M as the DSP-tiled CSA tree, built directly in
/// the adder window at the product offset so the product planes stay in
/// carry-save form into the adder (Fig 9).  C's deferred rounding becomes
/// the +B_M correction row (Fig 6); B's sign negates.
template <class P>
typename P::Cs multiply_stage(const Datapath& d, Sinks& s, const Lane* lanes,
                              int n) {
  const int W = d.adder_width();
  typename P::Cs product = P::product(lanes, n, d, s.mul_stats);
  if (const typename P::Mask m = where<P>(lanes, n, &Lane::rnd_c))
    P::select(m, product, P::compress3(W, product, P::b_row(lanes, n, d)), W);
  if (const typename P::Mask m = where<P>(lanes, n, &Lane::b_neg))
    P::select(m, product, P::negate(W, product), W);
  report<P>(s, "mul", W, n,
            {{UnitProbe::MulSum, &P::sum(product)},
             {UnitProbe::MulCarry, &P::carry(product)}});
  return product;
}

/// align and add: the aligned A row and the 3:2 adder.  Fills each lane's
/// sign run when events are on (the cancellation check).
template <class P>
typename P::Cs add_stage(const Datapath& d, Sinks& s, Lane* lanes, int n,
                         const typename P::Cs& product) {
  const int W = d.adder_width();
  const typename P::Word a_row = P::a_row(lanes, n, W);
  report<P>(s, "align", W, n, {{UnitProbe::AShift, &a_row}});
  const typename P::Cs adder = P::compress3(W, product, a_row);
  report<P>(s, "add", W, n,
            {{UnitProbe::AddSum, &P::sum(adder)},
             {UnitProbe::AddCarry, &P::carry(adder)}});
  if (s.events) P::sign_runs(adder, W, lanes, n);
  return adder;
}

/// creduce (Sec. III-E) when the datapath has it, then the block skip —
/// the ZD on the planes with its late flag (events on), or the front
/// end's — and the block mux (Sec. III-D/F).
template <class P>
typename P::Mux select_stage(const Datapath& d, Sinks& s, Lane* lanes, int n,
                             typename P::Cs planes) {
  const int W = d.adder_width();
  if (d.group > 0) {
    planes = P::carry_reduce(planes, W, d.group);
    report<P>(s, "creduce", W, n,
              {{UnitProbe::CreduceSum, &P::sum(planes)},
               {UnitProbe::CreduceCarry, &P::carry(planes)}});
  }
  if (d.zero_detect) P::zero_detect(planes, d, s.events, lanes, n);
  typename P::Mux mux = P::mux(planes, d, lanes, n);
  if (s.tap != nullptr) {
    s.tap->begin_stage("mux");
    // Either value fits 4 bits: at most 12 for the smallest valid block.
    const int skip = lanes[0].skip;
    if (d.tap_top_block)
      s.tap->tap_u64("mux.top_block", d.adder_blocks - 1 - skip, 4);
    else
      s.tap->tap_u64("mux.zd_skip", skip, 4);
  }
  report<P>(s, nullptr, d.mant_digits(), n,
            {{UnitProbe::MuxSum, &P::sum(mux.mant)},
             {UnitProbe::MuxCarry, &P::carry(mux.mant)}});
  return mux;
}

}  // namespace

CsNum multiply(const Datapath& d, Sinks& s, Lane& l) {
  return multiply_stage<OneLane>(d, s, &l, 1);
}

Muxed sum(const Datapath& d, Sinks& s, Lane& l, const CsNum& product) {
  return select_stage<OneLane>(d, s, &l, 1,
                               add_stage<OneLane>(d, s, &l, 1, product));
}

Muxed normalize(const Datapath& d, Sinks& s, Lane& l, const CsNum& planes) {
  return select_stage<OneLane>(d, s, &l, 1, planes);
}

void run_planes(const Datapath& d, Sinks& s, Lane* lanes, int n, Muxed* out) {
  const Planes::Cs product = multiply_stage<Planes>(d, s, lanes, n);
  Planes::read_lanes(
      select_stage<Planes>(d, s, lanes, n,
                           add_stage<Planes>(d, s, lanes, n, product)),
      d, n, out);
}

}  // namespace csfma::cs
