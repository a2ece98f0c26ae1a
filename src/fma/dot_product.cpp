#include "fma/dot_product.hpp"

#include <algorithm>
#include <climits>

#include "fma/cs_datapath.hpp"

namespace csfma {

namespace {

/// The largest product's msb is anchored at the highest window bit a
/// PCS-FMA product reaches (C's significand msb times B's port msb, one
/// above for a carry), leaving the same guard headroom the PCS-FMA adder
/// has; the sum of up to 2^13 terms cannot overflow the 385b signed window.
constexpr int kAnchorMsb =
    kPaperPcs.product_offset() + kPaperPcs.sig_msb_digit() + 53;

/// Arithmetic shift right on the full 512-bit workspace.
WideUint<8> asr(const WideUint<8>& v, int k) {
  const bool neg = v.bit(WideUint<8>::kBits - 1);
  if (k >= WideUint<8>::kBits) return neg ? ~WideUint<8>() : WideUint<8>();
  WideUint<8> r = v >> k;
  if (neg) r = r | ~WideUint<8>::mask(WideUint<8>::kBits - k);
  return r;
}

}  // namespace

PcsOperand PcsDotProduct::dot(
    const std::vector<std::pair<PFloat, PFloat>>& terms) {
  // ---- exception side-wires ----
  bool any_nan = false, pos_inf = false, neg_inf = false;
  for (const auto& [a, b] : terms) {
    if (a.is_nan() || b.is_nan()) any_nan = true;
    if (a.is_inf() || b.is_inf()) {
      if (a.is_zero() || b.is_zero()) {
        any_nan = true;  // inf * 0
      } else {
        (a.sign() != b.sign() ? neg_inf : pos_inf) = true;
      }
    }
  }
  if (any_nan || (pos_inf && neg_inf)) return PcsOperand::make_nan();
  if (pos_inf) return PcsOperand::make_inf(false);
  if (neg_inf) return PcsOperand::make_inf(true);

  // ---- exact products with their lsb exponents ----
  struct Prod {
    WideUint<4> mag;  // |sig_a * sig_b|, up to 106 bits
    bool neg;
    int lsb_exp;
  };
  // Accumulator-sized stack workspace for the common case; heap beyond.
  Prod prods_stack[64];
  std::vector<Prod> prods_heap;
  Prod* prods = prods_stack;
  if (terms.size() > 64) {
    prods_heap.resize(terms.size());
    prods = prods_heap.data();
  }
  int n_prods = 0;
  int max_msb = INT_MIN;
  // An all-zero sum is -0 only if every product is -0 (IEEE, nearest).
  bool all_negative = !terms.empty();
  for (const auto& [a, b] : terms) {
    all_negative = all_negative && a.sign() != b.sign();
    if (!a.is_normal() || !b.is_normal()) continue;  // zero terms drop out
    Prod& p = prods[n_prods++];
    p.mag = a.sig().mul_full<2>(b.sig());
    p.neg = a.sign() != b.sign();
    p.lsb_exp = (a.exp() - a.format().frac_bits) +
                (b.exp() - b.format().frac_bits);
    max_msb = std::max(max_msb, p.lsb_exp + p.mag.bit_width() - 1);
  }
  if (n_prods == 0) return PcsOperand::make_zero(all_negative);

  // ---- align into the shared window and reduce with one CSA tree ----
  const int w0 = max_msb - kAnchorMsb;  // exponent of window bit 0
  const CsWord wmask = CsWord::mask(kPaperPcs.adder_width());
  CsWord rows_stack[64];
  std::vector<CsWord> rows_heap;
  CsWord* rows = rows_stack;
  if (n_prods > 64) {
    rows_heap.resize((size_t)n_prods);
    rows = rows_heap.data();
  }
  for (int i = 0; i < n_prods; ++i) {
    const Prod& p = prods[i];
    const int sh = p.lsb_exp - w0;
    // Far-below terms truncate off the window bottom (fused-accumulator
    // behaviour); the arithmetic shift keeps the sign fill.
    if ((p.mag.word(2) | p.mag.word(3) | (p.mag.word(1) >> 62)) == 0) {
      // Fast placement for magnitudes below 2^126 (every standard-format
      // product): place/shift the two magnitude words directly, then
      // negate within the window — identical to the full-width
      // sign-extend-shift-truncate formulation since -(m << sh) = (-m) << sh
      // (mod 2^W) and asr(-m, k) = -ceil(m / 2^k).
      const unsigned __int128 mag =
          ((unsigned __int128)p.mag.word(1) << 64) | p.mag.word(0);
      CsWord row;
      if (sh >= 0) {
        std::uint64_t* rw = row.data();
        const std::uint64_t m0 = (std::uint64_t)mag;
        const std::uint64_t m1 = (std::uint64_t)(mag >> 64);
        const int wi = sh >> 6, b = sh & 63;
        rw[wi] = m0 << b;
        if (b != 0) {
          rw[wi + 1] = (m0 >> (64 - b)) | (m1 << b);
          rw[wi + 2] = m1 >> (64 - b);
        } else {
          rw[wi + 1] = m1;
        }
      } else {
        const int k = -sh;
        unsigned __int128 q;
        if (k >= 128) {
          // Magnitudes are < 2^126 < 2^k: floor is 0, ceil is 1.
          q = p.neg ? 1 : 0;
        } else if (p.neg) {
          q = (mag + (((unsigned __int128)1 << k) - 1)) >> k;  // ceil
        } else {
          q = mag >> k;  // floor
        }
        row.set_word(0, (std::uint64_t)q);
        row.set_word(1, (std::uint64_t)(q >> 64));
      }
      if (p.neg) row = -row;
      rows[i] = row & wmask;
    } else {
      WideUint<8> v(p.mag);
      if (p.neg) v = -v;
      WideUint<8> placed = sh >= 0 ? (v << sh) : asr(v, -sh);
      rows[i] = CsWord(placed) & wmask;
    }
  }
  CsNum acc = reduce_rows_inplace(kPaperPcs.adder_width(), rows, n_prods,
                                  &tree_stats_);
  if (probes_) {
    probes_[UnitProbe::DotSum].observe(acc.sum());
    probes_[UnitProbe::DotCarry].observe(acc.carry());
  }

  // The PCS-FMA back end at the paper geometry: carry reduction, ZD, block
  // mux and exponent update.  Window bit 0 has exponent w0, the scale an
  // FMA gives it when its product exponent is w0 + sig_msb + align_const.
  const cs::Datapath d = cs::pcs_datapath(kPaperPcs);
  cs::Lane lane{};
  lane.e_p = w0 + kPaperPcs.sig_msb_digit() + d.align_const();
  UnitProbes unobserved(nullptr);
  cs::Sinks sinks{unobserved, nullptr, false, nullptr};
  return cs::finish(cs::PcsResult{kPaperPcs}, d, lane,
                    cs::normalize(d, sinks, lane, acc), nullptr);
}

PFloat PcsDotProduct::dot_ieee(
    const std::vector<std::pair<PFloat, PFloat>>& terms, Round rm) {
  return pcs_to_ieee(dot(terms), kBinary64, rm);
}

}  // namespace csfma
