#include "fma/pcs_fma.hpp"

#include <algorithm>

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

/// Sign of a normal operand's value (mantissa two's complement; a zero
/// mantissa with a non-zero tail is positive).
bool value_sign(const PcsOperand& x) {
  if (x.cls() != FpClass::Normal) return x.exc_sign();
  return x.mant().as_cs().is_value_negative();
}

/// A's pass-through result when the product falls entirely below A's
/// window: apply A's deferred rounding, clear the tail.
PcsOperand passthrough_rounded(const PcsOperand& a, int rnd_a) {
  const PcsConfig g = a.geometry();
  CsNum bumped = compress3(g.mant_digits(), a.mant().sum(), a.mant().carries(),
                           CsWord((std::uint64_t)rnd_a));
  PcsNum mant = carry_reduce(bumped, g.group);
  return PcsOperand(mant, PcsNum::zero(g.tail_digits(), g.group), a.exp(),
                    FpClass::Normal, value_sign(a));
}

/// B's significand on the 53-bit multiplier port: a narrower format's
/// significand is shifted up so its MSB sits at port bit 52, which keeps
/// the product scale (and so e_P = e_B + e_C) format-independent.
U128 b_port(const PFloat& b) {
  const int p = b.format().precision();
  CSFMA_CHECK_MSG(p <= 53, "B must be IEEE binary64 or narrower");
  return b.sig() << (53 - p);
}

}  // namespace

PcsFma::PcsFma(PcsConfig geometry, ActivityRecorder* activity,
               const IntrospectHooks* hooks)
    : geom_(geometry), probes_(activity), hooks_(hooks) {
  geom_.validate();
}

PcsOperand PcsFma::fma(const PcsOperand& a, const PFloat& b,
                       const PcsOperand& c) {
  const PcsConfig& g = geom_;
  CSFMA_CHECK_MSG(a.geometry() == g && c.geometry() == g,
                  "operand geometry differs from the unit's");
  SignalTap* tap = hooks_ != nullptr ? hooks_->tap : nullptr;
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  // ---- exception side-wires (Sec. III-B) ----
  if (a.is_nan() || b.is_nan() || c.is_nan()) return PcsOperand::make_nan(g);
  const bool b_zero = b.is_zero();
  const bool c_zero = c.is_zero();
  const bool p_inf = b.is_inf() || c.is_inf();
  const bool p_sign = b.sign() != value_sign(c);
  if (p_inf) {
    if (b_zero || c_zero) return PcsOperand::make_nan(g);
    if (a.is_inf() && a.exc_sign() != p_sign) return PcsOperand::make_nan(g);
    return PcsOperand::make_inf(p_sign, g);
  }
  if (a.is_inf()) return PcsOperand::make_inf(a.exc_sign(), g);

  // ---- deferred rounding decisions (Sec. III-C) ----
  const int rnd_a = a.cls() == FpClass::Normal ? a.round_increment() : 0;
  const int rnd_c = c.cls() == FpClass::Normal ? c.round_increment() : 0;
  if (events != nullptr) {
    // The documented misrounding of the deferred half-away-from-zero rule:
    // detail 0 = the A operand's tail, 1 = C's (see fp/rounding.hpp).
    if (a.cls() == FpClass::Normal && a.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 0);
    }
    if (c.cls() == FpClass::Normal && c.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 1);
    }
  }

  if (b_zero || c_zero) {
    // Product is zero: the result is (rounded) A.
    if (a.is_zero()) {
      const bool s = p_sign && value_sign(a);  // -0 only if both negative
      return PcsOperand::make_zero(s, g);
    }
    return passthrough_rounded(a, rnd_a);
  }
  const CsWord b_sig = CsWord(WideUint<7>(b_port(b)));

  // ---- multiplier: B_M x unrounded C_M as a DSP-tiled CSA tree, built
  //      directly in the adder window at the product offset so the
  //      product planes stay in carry-save form into the adder (Fig 9).
  //      C's deferred rounding becomes the +B_M correction row (Fig 6). ----
  const int W = g.adder_width();
  const int M = g.mant_digits();
  const CsNum c_mant = c.mant().as_cs();
  CsNum product = multiply_dsp_tiled(c_mant, b_sig, 53, kCandChunk, kMultChunk,
                                     W, g.product_offset(), &mul_stats_);
  if (rnd_c != 0) {
    product = cs_add_binary(product,
                            (b_sig << g.product_offset()).truncated(W));
  }
  if (b.sign()) product = cs_negate(product);
  if (probes_) {
    probes_[UnitProbe::MulSum].observe(product.sum());
    probes_[UnitProbe::MulCarry].observe(product.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("mul");
    tap->tap("mul.sum", product.sum(), W);
    tap->tap("mul.carry", product.carry(), W);
  }
  const int e_p = b.exp() + c.exp();

  // ---- A path: deferred rounding + pre-shift (parallel to the multiply;
  //      Fig 5).  The A mantissa is assimilated here (see header note). ----
  const int e_a = a.cls() == FpClass::Normal ? a.exp() : e_p;  // zero: any
  WideUint<8> a_val =
      WideUint<8>(a.cls() == FpClass::Normal ? a.mant().to_binary() : CsWord())
          .sext(M) +
      WideUint<8>((std::uint64_t)rnd_a);
  const int ofs_a = e_a - e_p + g.align_const();
  if (!a_val.is_zero() && ofs_a > W - M) {
    // A is entirely left of the adder window: the product cannot influence
    // even the rounding tail; pass A through.
    return passthrough_rounded(a, rnd_a);
  }
  CsWord a_row;
  if (!a_val.is_zero() && ofs_a > -M) {
    // The 512-bit sign extension makes the negative-offset shift arithmetic.
    WideUint<8> placed = ofs_a >= 0 ? (a_val << ofs_a) : (a_val >> -ofs_a);
    a_row = CsWord(placed).truncated(W);
  }
  if (probes_) probes_[UnitProbe::AShift].observe(a_row);
  if (tap != nullptr) {
    tap->begin_stage("align");
    tap->tap("align.ashift", a_row, W);
  }

  // ---- CS adder: product planes + aligned A row (3:2) ----
  CsNum adder = compress3(W, product.sum(), product.carry(), a_row);
  if (probes_) {
    probes_[UnitProbe::AddSum].observe(adder.sum());
    probes_[UnitProbe::AddCarry].observe(adder.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("add");
    tap->tap("add.sum", adder.sum(), W);
    tap->tap("add.carry", adder.carry(), W);
  }
  if (events != nullptr) {
    // Catastrophic cancellation: the sum's most significant digit landed
    // far (>= 50 digit positions) below the highest input digit.  Window
    // coordinates keep PFloat/PCS exponent conventions out of it.
    const int a_msb = ofs_a > -M && !a_val.is_zero() ? ofs_a + M - 1 : -1;
    const int p_msb = g.product_offset() + M + 53;
    const int out_msb = W - 1 - leading_sign_run(adder);
    const int drop = std::max(a_msb, p_msb) - out_msb;
    if (drop >= 50) events->raise(EventKind::Cancellation, drop);
  }

  // ---- Carry Reduction to the group-spaced PCS form (Sec. III-E) ----
  PcsNum reduced = carry_reduce(adder, g.group);
  if (probes_) {
    probes_[UnitProbe::CreduceSum].observe(reduced.sum());
    probes_[UnitProbe::CreduceCarry].observe(reduced.carries());
  }
  if (tap != nullptr) {
    tap->begin_stage("creduce");
    tap->tap("creduce.sum", reduced.sum(), W);
    tap->tap("creduce.carry", reduced.carries(), W);
  }

  // ---- Zero Detector + block multiplexer (6:1 at 55b; Sec. III-D/F) ----
  const int max_skip = g.adder_blocks() - 2;
  const int k =
      count_skippable_blocks(reduced.as_cs(), g.block, max_skip, events);
  last_zd_skip_ = k;
  const int mant_lo = (max_skip - k) * g.block;
  PcsNum mant = reduced.extract_digits(mant_lo, M);
  PcsNum tail = PcsNum::zero(g.tail_digits(), g.group);
  if (mant_lo >= g.block) {
    tail = reduced.extract_digits(mant_lo - g.block, g.tail_digits());
  }
  if (probes_) {
    probes_[UnitProbe::MuxSum].observe(mant.sum());
    probes_[UnitProbe::MuxCarry].observe(mant.carries());
  }
  if (tap != nullptr) {
    tap->begin_stage("mux");
    // k <= adder_blocks() - 2, at most 11 for the smallest valid block.
    tap->tap_u64("mux.zd_skip", (std::uint64_t)k, 4);
    tap->tap("mux.sum", mant.sum(), M);
    tap->tap("mux.carry", mant.carries(), M);
  }

  if (mant.to_binary().is_zero() && tail.to_binary().is_zero()) {
    return PcsOperand::make_zero(false, g);
  }

  // ---- exponent update ----
  const int e_r = e_p + mant_lo - g.align_const();
  if (e_r > PcsConfig::kExpMax) {
    return PcsOperand::make_inf(mant.as_cs().is_value_negative(), g);
  }
  if (e_r < PcsConfig::kExpMin) {
    if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
    return PcsOperand::make_zero(mant.as_cs().is_value_negative(), g);
  }
  return PcsOperand(mant, tail, e_r, FpClass::Normal, false);
}

PFloat PcsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                        Round rm) {
  PcsOperand r = fma(ieee_to_pcs(a, geom_), b, ieee_to_pcs(c, geom_));
  return pcs_to_ieee(r, kBinary64, rm);
}

namespace {

/// The sliced block below is written for the paper geometry only.
constexpr PcsConfig G = kPaperPcs;

/// Exponent of digit 0 of a lifted operand's mantissa (the exp_fixed of
/// ieee_to_pcs), valid for Normal operands only.
int lifted_exp(const PFloat& x) {
  const int shift = G.sig_msb_digit() - (x.format().precision() - 1);
  return (x.exp() - x.format().frac_bits) - shift - G.tail_digits() +
         G.frac_bits();
}

/// Lifted mantissa bit plane (CsNum::from_signed of the placed significand).
CsWord lifted_bits(const PFloat& x) {
  const int p = x.format().precision();
  CSFMA_CHECK_MSG(p <= 54, "source significand too wide for the PCS layout");
  const int shift = G.sig_msb_digit() - (p - 1);
  CSFMA_CHECK(shift >= 0);
  const CsWord mag = CsWord(WideUint<7>(WideUint<2>(x.sig()))) << shift;
  return x.sign() ? (-mag).truncated(G.mant_digits()) : mag;
}

/// May this operation go through the sliced block?  Excluded: exception
/// operands (the scalar path returns on side-wires before the datapath),
/// zero products (rounded-A result) and the A pass-through, whose early
/// returns skip datapath probes in ways the block form cannot replicate.
/// A freshly lifted operand's tail is empty, so rnd_a == rnd_c == 0 and
/// the deferred-rounding events never fire on sliceable lanes.
bool sliceable(const OperandTriple& t) {
  if (t.a.is_nan() || t.b.is_nan() || t.c.is_nan()) return false;
  if (t.a.is_inf() || t.b.is_inf() || t.c.is_inf()) return false;
  if (t.b.is_zero() || t.c.is_zero()) return false;
  if (t.a.cls() == FpClass::Normal) {
    const int ofs_a =
        lifted_exp(t.a) - (t.b.exp() + lifted_exp(t.c)) + G.align_const();
    if (ofs_a > G.adder_width() - G.mant_digits()) return false;  // pass-through
  }
  return true;
}

}  // namespace

void PcsFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                            PFloat* out, const FmaBatchHooks& hooks) {
  // A SignalTap traces one operation's wires stage by stage; its calls must
  // stay in scalar order, so tapped runs bypass the sliced path entirely.
  // The sliced block is sized for the paper geometry; any other geometry
  // runs scalar.
  const bool scalar_only =
      (hooks_ != nullptr && hooks_->tap != nullptr) || geom_ != kPaperPcs;
  std::size_t i = 0;
  while (i < n) {
    if (scalar_only || !sliceable(ops[i])) {
      if (hooks.events != nullptr) {
        hooks.events->begin_op(hooks.base_index + i, ops[i].a.to_bits().lo64(),
                               ops[i].b.to_bits().lo64(),
                               ops[i].c.to_bits().lo64());
      }
      out[i] = fma_ieee(ops[i].a, ops[i].b, ops[i].c, hooks.rm);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && j - i < (std::size_t)slice::kLanes && sliceable(ops[j]))
      ++j;
    fma_ieee_block(ops + i, (int)(j - i), out + i, hooks.rm, hooks.events,
                   hooks.base_index + i);
    i = j;
  }
}

void PcsFma::fma_ieee_block(const OperandTriple* ops, int n, PFloat* out,
                            Round rm, EventLog* events, std::uint64_t base) {
  constexpr int kW = CsWord::kWords;
  // Multiplier tile geometry (lane-invariant): ceil(110/17) x ceil(53/24)
  // rows, in multiply_dsp_tiled's row order (candidate-chunk outer).
  constexpr int kNCand = (G.mant_digits() + kCandChunk - 1) / kCandChunk;
  constexpr int kNMult = (53 + kMultChunk - 1) / kMultChunk;
  constexpr int kRows = kNCand * kNMult;
  // The product rows live at bit kProductOffset and above, so the Wallace
  // tree only needs the top window; the full 385b planes are re-assembled
  // (with the lane-masked negation) below.
  constexpr int kProdW = G.adder_width() - G.product_offset();

  // ---- per-lane front end: lift + DSP tile products + A alignment ----
  // (only the per-lane-data work stays scalar; the partial-product tree,
  // the adder and everything after run bit-parallel across the batch)
  std::int64_t tiles[kRows][slice::kLanes];
  std::uint64_t a_rows[slice::kLanes * kW];
  std::uint64_t neg_mask = 0;
  int e_p[slice::kLanes];
  int a_msb[slice::kLanes];
  for (int L = 0; L < n; ++L) {
    const PFloat& a = ops[L].a;
    const PFloat& b = ops[L].b;
    const PFloat& c = ops[L].c;
    // C lifts to a binary (carry-free) mantissa with an empty tail, so the
    // rnd_c correction row never fires on this path; the DSP pre-adder
    // assimilation of multiply_dsp_tiled is the identity on it.
    const CsWord c_bits = lifted_bits(c);
    const std::uint64_t b_sig = b_port(b).lo64();
    if (b.sign()) neg_mask |= std::uint64_t{1} << L;
    for (int j = 0; j < kNCand; ++j) {
      const int c_lo = j * kCandChunk;
      const int c_len = std::min(kCandChunk, G.mant_digits() - c_lo);
      std::int64_t c_val =
          (std::int64_t)wide_read_bits(c_bits.data(), c_lo, c_len);
      if (j == kNCand - 1 && ((c_val >> (c_len - 1)) & 1))
        c_val -= (std::int64_t)1 << c_len;
      for (int i = 0; i < kNMult; ++i) {
        const int b_lo = i * kMultChunk;
        const int b_len = std::min(kMultChunk, 53 - b_lo);
        const std::int64_t b_val =
            (std::int64_t)((b_sig >> b_lo) &
                           ((std::uint64_t{1} << b_len) - 1));
        tiles[j * kNMult + i][L] = c_val * b_val;
      }
    }
    e_p[L] = b.exp() + lifted_exp(c);
    // A path: rnd_a == 0 likewise; a is Normal or Zero (sliceable()).
    WideUint<8> a_val;
    int e_a = e_p[L];
    if (a.cls() == FpClass::Normal) {
      a_val = WideUint<8>(lifted_bits(a)).sext(G.mant_digits());
      e_a = lifted_exp(a);
    }
    const int ofs_a = e_a - e_p[L] + G.align_const();
    CsWord a_row;
    if (!a_val.is_zero() && ofs_a > -G.mant_digits()) {
      WideUint<8> placed = ofs_a >= 0 ? (a_val << ofs_a) : (a_val >> -ofs_a);
      a_row = CsWord(placed).truncated(G.adder_width());
    }
    a_msb[L] = ofs_a > -G.mant_digits() && !a_val.is_zero()
                   ? ofs_a + G.mant_digits() - 1
                   : -1;
    for (int w = 0; w < kW; ++w) a_rows[L * kW + w] = a_row.data()[w];
  }

  // ---- partial-product Wallace tree in plane form: each row is its
  //      64-bit tile product placed at the tile's (lane-invariant) weight
  //      with sign fill above, exactly multiply_dsp_tiled's row image; the
  //      3:2 schedule is reduce_rows_inplace's, so the output planes are
  //      bit-identical to the scalar tree's ----
  std::uint64_t rp[kRows][kProdW];
  for (int r = 0; r < kRows; ++r) {
    std::uint64_t tp[64];
    slice::pack_words((const std::uint64_t*)tiles[r], 1, n, 64, tp);
    const int t = (r / kNMult) * kCandChunk + (r % kNMult) * kMultChunk;
    std::uint64_t* row = rp[r];
    for (int b = 0; b < t; ++b) row[b] = 0;
    for (int b = 0; b < 64; ++b) row[t + b] = tp[b];
    for (int b = t + 64; b < kProdW; ++b) row[b] = tp[63];
  }
  int nr = kRows;
  while (nr > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= nr; i += 3, o += 2) {
      std::uint64_t* ra = rp[i];
      std::uint64_t* rb = rp[i + 1];
      std::uint64_t* rcw = rp[i + 2];
      std::uint64_t* os = rp[o];
      std::uint64_t* oc = rp[o + 1];
      std::uint64_t prev_maj = 0;  // carry into bit kProductOffset is 0
      for (int b = 0; b < kProdW; ++b) {
        const std::uint64_t x = ra[b], y = rb[b], z = rcw[b];
        os[b] = x ^ y ^ z;  // reads precede writes: o <= i, o+1 <= i+1
        oc[b] = prev_maj;
        prev_maj = (x & y) | (z & (x | y));  // top majority drops (mod 2^W)
      }
    }
    for (; i < nr; ++i, ++o) {
      if (o != i) {
        for (int b = 0; b < kProdW; ++b) rp[o][b] = rp[i][b];
      }
    }
    nr = o;
  }
  // The scalar tree reports its geometry per multiply; it is data
  // independent, so one computation serves the whole block.
  mul_stats_.rows = kRows;
  mul_stats_.levels = 0;
  mul_stats_.compressors = 0;
  for (int m = kRows; m > 2; ++mul_stats_.levels) {
    mul_stats_.compressors += (m / 3) * G.adder_width();
    m = (m / 3) * 2 + (m % 3);
  }

  // ---- full-width product planes with the lane-masked negation:
  //      cs_negate is ~S + ~C + 2, i.e. one 3:2 layer whose planes reduce
  //      to S^C (bit 1 flipped) and ~(S|C) shifted up one (with
  //      ~(S&C) at bit 2), applied only to lanes where B is negative ----
  std::uint64_t ps[G.adder_width()], pc[G.adder_width()], ar[G.adder_width()];
  {
    const std::uint64_t nm = neg_mask;
    const auto sum_at = [&](int b) {
      return b < G.product_offset() ? 0 : rp[0][b - G.product_offset()];
    };
    const auto car_at = [&](int b) {
      return b < G.product_offset() ? 0 : rp[1][b - G.product_offset()];
    };
    for (int b = 0; b < G.adder_width(); ++b) {
      const std::uint64_t s = sum_at(b), cc = car_at(b);
      std::uint64_t neg_s = s ^ cc;
      if (b == 1) neg_s = ~neg_s;
      std::uint64_t neg_c;
      if (b == 0) {
        neg_c = 0;
      } else if (b == 2) {
        neg_c = ~(sum_at(1) & car_at(1));
      } else {
        neg_c = ~(sum_at(b - 1) | car_at(b - 1));
      }
      ps[b] = (s & ~nm) | (neg_s & nm);
      pc[b] = (cc & ~nm) | (neg_c & nm);
    }
  }
  slice::pack_words(a_rows, kW, n, G.adder_width(), ar);
  if (probes_) {
    probes_[UnitProbe::MulSum].observe_planes(ps, G.adder_width(), n);
    probes_[UnitProbe::MulCarry].observe_planes(pc, G.adder_width(), n);
    probes_[UnitProbe::AShift].observe_planes(ar, G.adder_width(), n);
  }

  // ---- 385b CS adder, all lanes per word op ----
  std::uint64_t as[G.adder_width()], ac[G.adder_width()];
  slice::compress3(G.adder_width(), ps, pc, ar, as, ac);
  if (probes_) {
    probes_[UnitProbe::AddSum].observe_planes(as, G.adder_width(), n);
    probes_[UnitProbe::AddCarry].observe_planes(ac, G.adder_width(), n);
  }

  // Event inputs: one assimilation serves both the cancellation detector
  // (leading sign run of the adder output) and the ZD-late check below —
  // carry reduction preserves the value mod 2^385, so the reduced form's
  // binary image is this same plane set.
  std::uint16_t run[slice::kLanes];
  std::uint64_t bin[G.adder_width()];
  std::uint64_t same[6];
  if (events != nullptr) {
    slice::assimilate(G.adder_width(), as, ac, bin);
    slice::leading_sign_run(G.adder_width(), bin, n, run);
    // same[j]: lanes whose bits [385 - 55j - 1, 384] are all equal, i.e.
    // skipping j blocks would preserve the signed value
    // (skip_preserves_value in plane form).
    std::uint64_t eq = ~std::uint64_t{0};
    int b = G.adder_width() - 1;
    for (int j = 1; j <= 5; ++j) {
      const int lo = G.adder_width() - 1 - j * G.block;
      while (b > lo) {
        --b;
        eq &= ~(bin[b] ^ bin[G.adder_width() - 1]);
      }
      same[j] = eq;
    }
  }

  // ---- Carry Reduction to group-11 PCS ----
  std::uint64_t rs[G.adder_width()], rc[G.adder_width()];
  slice::carry_reduce(G.adder_width(), G.group, as, ac, rs, rc);
  if (probes_) {
    probes_[UnitProbe::CreduceSum].observe_planes(rs, G.adder_width(), n);
    probes_[UnitProbe::CreduceCarry].observe_planes(rc, G.adder_width(), n);
  }

  // ---- Zero Detector: per-lane skip counts from the alive masks ----
  std::uint64_t alive[5];
  slice::count_skippable_blocks(G.adder_width(), G.block, 5, rs, rc, alive);
  int skip[slice::kLanes];
  std::uint64_t lane_of_k[6] = {};
  for (int L = 0; L < n; ++L) {
    int k = 0;
    for (int s = 0; s < 5; ++s) k += (int)((alive[s] >> L) & 1u);
    skip[L] = k;
    lane_of_k[k] |= std::uint64_t{1} << L;
  }

  // ---- 6:1 block mux in plane form: mant plane b selects the reduced
  //      plane at b + (5-k)*55 for each lane's skip count k ----
  std::uint64_t ms[G.mant_digits()], mc[G.mant_digits()];
  for (int b = 0; b < G.mant_digits(); ++b) {
    std::uint64_t sv = 0, cv = 0;
    for (int k = 0; k <= 5; ++k) {
      sv |= rs[b + (5 - k) * G.block] & lane_of_k[k];
      cv |= rc[b + (5 - k) * G.block] & lane_of_k[k];
    }
    ms[b] = sv;
    mc[b] = cv;
  }
  // Tail planes: one block below the mantissa; k == 5 lanes have no block
  // below (mant_lo == 0) and read a zero tail, exactly the scalar default.
  std::uint64_t ts[G.tail_digits()], tc[G.tail_digits()];
  for (int b = 0; b < G.tail_digits(); ++b) {
    std::uint64_t sv = 0, cv = 0;
    for (int k = 0; k <= 4; ++k) {
      sv |= rs[b + (4 - k) * G.block] & lane_of_k[k];
      cv |= rc[b + (4 - k) * G.block] & lane_of_k[k];
    }
    ts[b] = sv;
    tc[b] = cv;
  }
  if (probes_) {
    probes_[UnitProbe::MuxSum].observe_planes(ms, G.mant_digits(), n);
    probes_[UnitProbe::MuxCarry].observe_planes(mc, G.mant_digits(), n);
  }

  // ---- back to lane-major form; per-lane readout in operation order ----
  constexpr int kMantWords = (G.mant_digits() + 63) / 64;
  std::uint64_t mant_sw[slice::kLanes * kMantWords];
  std::uint64_t mant_cw[slice::kLanes * kMantWords];
  std::uint64_t tail_sw[slice::kLanes], tail_cw[slice::kLanes];
  slice::unpack_words(ms, G.mant_digits(), n, mant_sw, kMantWords);
  slice::unpack_words(mc, G.mant_digits(), n, mant_cw, kMantWords);
  slice::unpack_words(ts, G.tail_digits(), n, tail_sw, 1);
  slice::unpack_words(tc, G.tail_digits(), n, tail_cw, 1);

  for (int L = 0; L < n; ++L) {
    if (events != nullptr) {
      events->begin_op(base + (std::uint64_t)L, ops[L].a.to_bits().lo64(),
                       ops[L].b.to_bits().lo64(), ops[L].c.to_bits().lo64());
      const int p_msb = G.product_offset() + G.mant_digits() + 53;
      const int out_msb = G.adder_width() - 1 - (int)run[L];
      const int drop = std::max(a_msb[L], p_msb) - out_msb;
      if (drop >= 50) events->raise(EventKind::Cancellation, drop);
      if (skip[L] < 5 && ((same[skip[L] + 1] >> L) & 1u) != 0) {
        events->raise(EventKind::ZeroDetectLate, skip[L]);
      }
    }
    last_zd_skip_ = skip[L];
    CsWord msum, mcar, tsum, tcar;
    for (int w = 0; w < kMantWords; ++w) {
      msum.data()[w] = mant_sw[L * kMantWords + w];
      mcar.data()[w] = mant_cw[L * kMantWords + w];
    }
    tsum.data()[0] = tail_sw[L];
    tcar.data()[0] = tail_cw[L];
    PcsNum mant(G.mant_digits(), G.group, msum, mcar);
    PcsNum tail(G.tail_digits(), G.group, tsum, tcar);
    PcsOperand r;
    if (mant.to_binary().is_zero() && tail.to_binary().is_zero()) {
      r = PcsOperand::make_zero(false);
    } else {
      const int mant_lo = (5 - skip[L]) * G.block;
      const int e_r = e_p[L] + mant_lo - G.align_const();
      if (e_r > PcsConfig::kExpMax) {
        r = PcsOperand::make_inf(mant.as_cs().is_value_negative());
      } else if (e_r < PcsConfig::kExpMin) {
        if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
        r = PcsOperand::make_zero(mant.as_cs().is_value_negative());
      } else {
        r = PcsOperand(mant, tail, e_r, FpClass::Normal, false);
      }
    }
    out[L] = pcs_to_ieee(r, kBinary64, rm);
  }
}

}  // namespace csfma
