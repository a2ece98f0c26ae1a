#include "cs/csa_tree.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"

namespace csfma {

namespace {

/// `n` elements of scratch: a stack array up to `N`, the heap beyond.
template <class T, int N>
class Scratch {
 public:
  explicit Scratch(int n) {
    if (n > N) {
      heap_.resize((std::size_t)n);
      ptr_ = heap_.data();
    }
  }
  T* data() { return ptr_; }

 private:
  T stack_[N];
  std::vector<T> heap_;
  T* ptr_ = stack_;
};

/// Rows up to which the tree and the tile table live on the stack (the
/// PCS multiplier has 21, a binary64 bit-serial multiplier 53).
constexpr int kStackRows = 64;

/// The Wallace tree, one 64-bit word column at a time.  The 3:2 schedule
/// depends only on the row count, so word q of every level depends only on
/// word q of that level's inputs and on one carry bit per compressor: the
/// top majority bit the compressor produced at word q-1.  Running the whole
/// schedule per column therefore yields the planes of the row-at-a-time
/// tree bit for bit, while each row exists only as its current word.
///
/// `row_words(q, w)` writes word q of the n input rows to w[0..n).  Words
/// below `q_begin` must be zero in every row (their columns produce zero
/// planes and no carries) and are skipped.  Bits at and above `width` may
/// be set in the top word: carries only move up, so masking the two output
/// planes there equals truncating every row first.
template <class RowWords>
CsNum reduce_columns(int width, int n, int q_begin, const RowWords& row_words,
                     CsaTreeStats* stats) {
  if (stats != nullptr) *stats = csa_tree_stats(n, width);
  if (n == 0) return CsNum::zero(width);

  // w[0..n): the current column's rows, rewritten front-to-back per level
  // (a triple at i,i+1,i+2 lands as sum, carry at o,o+1 with o <= i).
  // cin: one carry bit per compressor; n > 2 rows need n - 2 compressors.
  const int n_comp = std::max(n - 2, 0);
  Scratch<std::uint64_t, 2 * kStackRows> scratch(n + n_comp);
  std::uint64_t* w = scratch.data();
  std::uint64_t* cin = w + n;
  std::fill(cin, cin + n_comp, std::uint64_t{0});

  const int nwords = (width + 63) / 64;
  const std::uint64_t top_mask =
      width % 64 == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (width % 64)) - 1;
  CsWord sum, carry;
  for (int q = q_begin; q < nwords; ++q) {
    row_words(q, w);
    int m = n, k = 0;
    while (m > 2) {
      int i = 0, o = 0;
      for (; i + 3 <= m; i += 3, o += 2, ++k) {
        const std::uint64_t a = w[i], b = w[i + 1], c = w[i + 2];
        const std::uint64_t maj = (a & b) | (c & (a | b));
        w[o] = a ^ b ^ c;
        w[o + 1] = (maj << 1) | cin[k];
        cin[k] = maj >> 63;  // past the top word it falls off (mod 2^W)
      }
      for (; i < m; ++i, ++o) w[o] = w[i];
      m = o;
    }
    const std::uint64_t mask = q == nwords - 1 ? top_mask : ~std::uint64_t{0};
    sum.data()[q] = w[0] & mask;
    if (m > 1) carry.data()[q] = w[1] & mask;
  }
  return CsNum(width, sum, carry);
}

}  // namespace

int csa_levels_for_rows(int n) {
  int levels = 0;
  while (n > 2) {
    n = (n / 3) * 2 + (n % 3);
    ++levels;
  }
  return levels;
}

CsaTreeStats csa_tree_stats(int rows, int width) {
  CsaTreeStats st;
  st.rows = rows;
  for (int m = rows; m > 2; m = (m / 3) * 2 + (m % 3)) {
    st.compressors += (m / 3) * width;
    ++st.levels;
  }
  return st;
}

CsNum reduce_rows(int width, const std::vector<CsWord>& rows,
                  CsaTreeStats* stats) {
  CSFMA_CHECK(width >= 1 && width <= kCsWordBits);
  std::vector<CsWord> cur;
  cur.reserve(rows.size());
  for (const auto& r : rows) cur.push_back(r.truncated(width));
  return reduce_rows_inplace(width, cur.data(), (int)cur.size(), stats);
}

CsNum reduce_rows_inplace(int width, const CsWord* rows, int n,
                          CsaTreeStats* stats) {
  CSFMA_CHECK(width >= 1 && width <= kCsWordBits);
  CSFMA_CHECK(n >= 0);
  for (int i = 0; i < n; ++i)
    CSFMA_CHECK_MSG(rows[i].fits(width), "row " << i << " wider than the tree");
  return reduce_columns(
      width, n, 0,
      [rows, n](int q, std::uint64_t* w) {
        for (int i = 0; i < n; ++i) w[i] = rows[i].data()[q];
      },
      stats);
}

CsNum multiply_cs_by_binary(const CsNum& multiplicand, const CsWord& multiplier,
                            int multiplier_width, int out_width,
                            CsaTreeStats* stats) {
  CSFMA_CHECK(multiplier_width >= 1);
  CSFMA_CHECK(out_width >= multiplicand.width());
  CSFMA_CHECK(out_width <= kCsWordBits);
  CSFMA_CHECK((multiplier & ~CsWord::mask(multiplier_width)).is_zero());

  // The multiplicand's planes are assimilated to the signed value first.
  // In the FCS-FMA hardware this is what the DSP48E1 *pre-adders* do,
  // chunk-wise and carry-free thanks to the format's no-wrap guard bits
  // (Sec. III-H: "converting them to plain binary format, without the risk
  // of a sign-changing overflow"); per-plane sign extension would be
  // unsound for a redundant two's-complement operand.  The value-level
  // result is identical; fpga/ charges the pre-adder structures separately.
  const CsWord m = multiplicand.signed_value().truncated(out_width);

  // One row per multiplier bit position, m << i where the bit is set.  Rows
  // for zero bits are kept so the tree structure (depth, compressor count)
  // is data-independent, as it is in the netlist.
  const std::uint64_t* mw = m.data();
  return reduce_columns(
      out_width, multiplier_width, 0,
      [&](int q, std::uint64_t* w) {
        for (int i = 0; i < multiplier_width; ++i) {
          const int wi = q - (i >> 6), sh = i & 63;
          std::uint64_t v = 0;
          if (multiplier.bit(i) && wi >= 0) {
            v = mw[wi] << sh;
            if (sh != 0 && wi >= 1) v |= mw[wi - 1] >> (64 - sh);
          }
          w[i] = v;
        }
      },
      stats);
}

CsNum multiply_dsp_tiled(const CsNum& multiplicand, const CsWord& multiplier,
                         int multiplier_width, int cand_chunk, int mult_chunk,
                         int out_width, int offset,
                         CsaTreeStats* stats) {
  CSFMA_CHECK(offset >= 0 &&
              offset + multiplicand.width() + multiplier_width <= out_width + 1);
  CSFMA_CHECK(out_width <= kCsWordBits);
  CSFMA_CHECK((multiplier & ~CsWord::mask(multiplier_width)).is_zero());
  // Assimilate the multiplicand planes (DSP pre-adder step), then slice its
  // two's-complement representation.
  const DspTiling t{multiplicand.width(), multiplier_width, cand_chunk,
                    mult_chunk};
  Scratch<std::int64_t, kStackRows> prod(t.rows());
  dsp_tile_products(t, multiplicand.to_binary(), multiplier.data()[0],
                    prod.data());
  return reduce_tile_products(t, prod.data(), out_width, offset, stats);
}

void dsp_tile_products(const DspTiling& t, const CsWord& cand_bits,
                       std::uint64_t multiplier, std::int64_t* prod) {
  CSFMA_CHECK(t.cand_chunk >= 2 && t.cand_chunk <= 30);
  CSFMA_CHECK(t.mult_chunk >= 2 && t.mult_chunk <= 30);
  CSFMA_CHECK(t.mult_width >= 1 && t.mult_width <= 63);
  CSFMA_CHECK((multiplier >> t.mult_width) == 0);
  // All slices are unsigned except the multiplicand's top one, which
  // carries the sign.
  const int n_cand = t.cand_tiles(), n_mult = t.mult_tiles();
  std::int64_t b_val[32];  // mult_width <= 63, mult_chunk >= 2
  for (int i = 0; i < n_mult; ++i) {
    const int b_lo = i * t.mult_chunk;
    const int b_len = std::min(t.mult_chunk, t.mult_width - b_lo);
    b_val[i] = (std::int64_t)((multiplier >> b_lo) &
                              ((std::uint64_t{1} << b_len) - 1));
  }
  for (int j = 0; j < n_cand; ++j) {
    const int c_lo = j * t.cand_chunk;
    const int c_len = std::min(t.cand_chunk, t.cand_width - c_lo);
    std::int64_t c_val =
        (std::int64_t)wide_read_bits(cand_bits.data(), c_lo, c_len);
    if (j == n_cand - 1 && ((c_val >> (c_len - 1)) & 1))
      c_val -= (std::int64_t)1 << c_len;
    for (int i = 0; i < n_mult; ++i) *prod++ = c_val * b_val[i];
  }
}

CsNum reduce_tile_products(const DspTiling& t, const std::int64_t* prod,
                           int out_width, int offset, CsaTreeStats* stats) {
  CSFMA_CHECK(offset >= 0 && out_width <= kCsWordBits);
  // One row per DSP tile: its exact (<= 30+30 bit) product placed at bit
  // offset + weight with sign fill above.  The row is never materialised
  // at full width; each tile keeps the words it can take.
  struct Tile {
    std::uint64_t word[4];  // zero, the product's two words, the sign fill
    int lo;                 // w >> 6: row word lo + d is word[d + 1]
  };
  const int total = t.rows();
  Scratch<Tile, kStackRows> tiles(total);
  Tile* tile = tiles.data();
  for (int r = 0; r < total; ++r) {
    const std::int64_t p = prod[r];
    const int w = offset + t.weight(r);
    const int sh = w & 63;
    const std::uint64_t fill = (std::uint64_t)(p >> 63);
    tile[r] = Tile{{0, (std::uint64_t)p << sh,
                    sh != 0 ? (std::uint64_t)(p >> (64 - sh)) : fill, fill},
                   w >> 6};
  }
  // Every tile sits at or above `offset`: the columns below are all zero.
  const Tile* rows = tiles.data();
  return reduce_columns(
      out_width, total, offset >> 6,
      [rows, total](int q, std::uint64_t* w) {
        for (int r = 0; r < total; ++r)
          w[r] = rows[r].word[std::clamp(q - rows[r].lo + 1, 0, 3)];
      },
      stats);
}

}  // namespace csfma
