#include "cs/csa_tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace csfma {
namespace {

TEST(CsaTree, LevelsFormula) {
  EXPECT_EQ(csa_levels_for_rows(0), 0);
  EXPECT_EQ(csa_levels_for_rows(2), 0);
  EXPECT_EQ(csa_levels_for_rows(3), 1);
  EXPECT_EQ(csa_levels_for_rows(4), 2);
  EXPECT_EQ(csa_levels_for_rows(6), 3);
  EXPECT_EQ(csa_levels_for_rows(9), 4);
  // 53 partial products (binary64 multiplier): Dadda heights run
  // 2,3,4,6,9,13,19,28,42,63 — nine 3:2 levels reach two rows.
  EXPECT_EQ(csa_levels_for_rows(53), 9);
}

TEST(CsaTree, ReduceMatchesPlainSum) {
  Rng rng(30);
  for (int trial = 0; trial < 2000; ++trial) {
    int w = (int)rng.next_int(8, 200);
    int n = (int)rng.next_int(0, 20);
    std::vector<CsWord> rows;
    CsWord expect;
    for (int i = 0; i < n; ++i) {
      rows.push_back(rng.next_wide_bits<7>(w));
      expect = (expect + rows.back()).truncated(w);
    }
    CsaTreeStats stats;
    CsNum r = reduce_rows(w, rows, &stats);
    EXPECT_EQ(r.to_binary(), expect);
    EXPECT_EQ(stats.rows, n);
    EXPECT_EQ(stats.levels, csa_levels_for_rows(n));
  }
}

TEST(CsaTree, ReduceDegenerateCases) {
  CsNum z = reduce_rows(16, {});
  EXPECT_TRUE(z.to_binary().is_zero());
  CsNum one = reduce_rows(16, {CsWord(7ull)});
  EXPECT_EQ(one.to_binary().lo64(), 7u);
  EXPECT_TRUE(one.is_binary());
}

TEST(CsaTree, MultiplySmallExhaustive) {
  // Exhaustive 6x5-bit signed x unsigned multiply against host arithmetic.
  for (int m = -32; m < 32; ++m) {
    for (unsigned b = 0; b < 32; ++b) {
      CsNum c = CsNum::from_signed(7, m < 0, CsWord((std::uint64_t)(m < 0 ? -m : m)));
      CsNum p = multiply_cs_by_binary(c, CsWord(b), 5, 12);
      std::int64_t expect = (std::int64_t)m * (std::int64_t)b;
      std::uint64_t got = p.to_binary().lo64();
      std::uint64_t want = (std::uint64_t)expect & 0xFFF;
      EXPECT_EQ(got, want) << m << " * " << b;
    }
  }
}

TEST(CsaTree, MultiplyRedundantMultiplicand) {
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    int wc = (int)rng.next_int(4, 40);
    int wb = (int)rng.next_int(1, 20);
    CsNum c(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
    CsWord b = rng.next_wide_bits<7>(wb);
    int wo = wc + wb;
    CsNum p = multiply_cs_by_binary(c, b, wb, wo);
    // Reference: signed value of c times b, mod 2^wo.
    CsWord ref = (c.signed_value().truncated(wo) * b).truncated(wo);
    EXPECT_EQ(p.to_binary(), ref) << c.to_digit_string();
  }
}

TEST(CsaTree, MultiplyPaperWidths) {
  // The PCS-FMA multiplier: 110b CS multiplicand x 53b binary multiplier
  // into a 163b window (Sec. III-D).
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    CsNum c(110, rng.next_wide_bits<7>(110), rng.next_wide_bits<7>(110));
    CsWord b = rng.next_wide_bits<7>(53) | CsWord::bit_at(52);  // implied 1
    CsaTreeStats stats;
    CsNum p = multiply_cs_by_binary(c, b, 53, 163, &stats);
    CsWord ref = (c.signed_value().truncated(163) * b).truncated(163);
    EXPECT_EQ(p.to_binary(), ref);
    // Tree height depends only on the 53 multiplier rows.
    EXPECT_EQ(stats.rows, 53);
    EXPECT_EQ(stats.levels, csa_levels_for_rows(53));
  }
}

TEST(CsaTree, TreeDepthIndependentOfMultiplicandWidth) {
  // Sec. III-D: widening C must not deepen the tree.
  CsaTreeStats narrow, wide;
  Rng rng(33);
  CsNum c54(54, rng.next_wide_bits<7>(54), CsWord());
  CsNum c110(110, rng.next_wide_bits<7>(110), CsWord());
  CsWord b = rng.next_wide_bits<7>(53) | CsWord::bit_at(52);
  multiply_cs_by_binary(c54, b, 53, 107, &narrow);
  multiply_cs_by_binary(c110, b, 53, 163, &wide);
  EXPECT_EQ(narrow.levels, wide.levels);
  EXPECT_EQ(narrow.rows, wide.rows);
}


// ---- multiply_dsp_tiled and the column-wise tree ----

/// The row-at-a-time Wallace tree, transcribed independently of the
/// library: full-width rows, each level rewriting the array front to back,
/// the carry plane's top majority bit dropped at the window edge.
CsNum row_tree(int width, std::vector<CsWord> rows) {
  const CsWord wmask = CsWord::mask(width);
  for (auto& r : rows) r &= wmask;
  int n = (int)rows.size();
  if (n == 0) return CsNum::zero(width);
  while (n > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= n; i += 3, o += 2) {
      const CsWord a = rows[i], b = rows[i + 1], c = rows[i + 2];
      rows[o] = a ^ b ^ c;
      rows[o + 1] = (((a & b) | (a & c) | (b & c)) << 1) & wmask;
    }
    for (; i < n; ++i, ++o) rows[o] = rows[i];
    n = o;
  }
  return CsNum(width, rows[0], n > 1 ? rows[1] : CsWord());
}

/// The tree geometry for n rows of `width` bits: levels and 3:2 columns.
CsaTreeStats tree_stats(int n, int width) {
  CsaTreeStats s;
  s.rows = n;
  for (int m = n; m > 2; m = (m / 3) * 2 + (m % 3)) {
    s.compressors += (m / 3) * width;
    ++s.levels;
  }
  return s;
}

/// Signed value of C times unsigned B, placed at `offset`, mod 2^width.
CsWord tiled_oracle(const CsNum& c, const CsWord& b, int offset, int width) {
  const WideUint<14> prod = c.signed_value().mul_full(b);
  return CsWord(prod << offset).truncated(width);
}

std::uint64_t fnv_planes(std::uint64_t h, const CsNum& p) {
  for (const CsWord* plane : {&p.sum(), &p.carry()}) {
    for (int q = 0; q < CsWord::kWords; ++q) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (plane->word(q) >> (8 * byte)) & 0xFF;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(CsaTree, DspTiledMatchesWideProduct) {
  Rng rng(34);
  for (int trial = 0; trial < 3000; ++trial) {
    const int wc = (int)rng.next_int(2, 200);
    const int wb = (int)rng.next_int(1, 63);
    const int cand = (int)rng.next_int(2, 30);
    const int mult = (int)rng.next_int(2, 30);
    const int min_w = wc + wb - 1;
    const int width = (int)rng.next_int(min_w, kCsWordBits);
    const int offset = (int)rng.next_int(0, width + 1 - wc - wb);
    CsNum c(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
    const CsWord b = rng.next_wide_bits<7>(wb);
    CsaTreeStats stats;
    const CsNum p =
        multiply_dsp_tiled(c, b, wb, cand, mult, width, offset, &stats);
    ASSERT_EQ(p.width(), width);
    EXPECT_EQ(p.to_binary(), tiled_oracle(c, b, offset, width))
        << "wc=" << wc << " wb=" << wb << " chunks=" << cand << "/" << mult
        << " width=" << width << " offset=" << offset;
    const int rows = ((wc + cand - 1) / cand) * ((wb + mult - 1) / mult);
    const CsaTreeStats want = tree_stats(rows, width);
    EXPECT_EQ(stats.rows, rows);
    EXPECT_EQ(stats.levels, csa_levels_for_rows(rows));
    EXPECT_EQ(stats.levels, want.levels);
    EXPECT_EQ(stats.compressors, want.compressors);
  }
}

TEST(CsaTree, DspTiledPaperShapesGoldenPlanes) {
  // FNV-1a digests of the sum and carry planes over a seeded operand set,
  // recorded from the row-at-a-time tree that built every tile row at full
  // width: the column-wise evaluation must reproduce the multiplier planes
  // bit for bit, not only their value.
  struct Shape {
    const char* name;
    int wc, width, offset;
    std::uint64_t digest;
    int rows, levels, compressors;
  };
  const Shape shapes[] = {
      {"pcs", 110, 385, 110, 0x261ab9a7222f2d94ull, 21, 7, 19 * 385},
      {"fcs", 87, 377, 87, 0x7b70c5c8d3efd13full, 18, 6, 16 * 377},
      {"classic", 54, 161, 0, 0x47ee78bc877d9332ull, 12, 5, 10 * 161},
  };
  for (const Shape& sh : shapes) {
    Rng rng(35);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 256; ++i) {
      CsNum c(sh.wc, rng.next_wide_bits<7>(sh.wc),
              rng.next_wide_bits<7>(sh.wc));
      const CsWord b = rng.next_wide_bits<7>(53) | CsWord::bit_at(52);
      CsaTreeStats stats;
      const CsNum p =
          multiply_dsp_tiled(c, b, 53, 17, 24, sh.width, sh.offset, &stats);
      h = fnv_planes(h, p);
      ASSERT_EQ(p.to_binary(), tiled_oracle(c, b, sh.offset, sh.width))
          << sh.name;
      EXPECT_EQ(stats.rows, sh.rows) << sh.name;
      EXPECT_EQ(stats.levels, sh.levels) << sh.name;
      EXPECT_EQ(stats.compressors, sh.compressors) << sh.name;
    }
    EXPECT_EQ(h, sh.digest) << sh.name << " digest 0x" << std::hex << h;
  }
}

TEST(CsaTree, DspTiledWindowEdges) {
  // Output windows at and next to the 64-bit word boundaries and the full
  // 448-bit workspace, with the product's top tile reaching the window top
  // and offsets straddling a word boundary.
  Rng rng(36);
  for (int width : {63, 64, 65, 127, 128, 129, 447, 448}) {
    for (int trial = 0; trial < 200; ++trial) {
      const int wb = (int)rng.next_int(1, std::min(63, width - 1));
      const int wc = (int)rng.next_int(2, std::min(200, width + 1 - wb));
      const int slack = width + 1 - wc - wb;
      const int offset = trial % 2 == 0 ? slack : (int)rng.next_int(0, slack);
      CsNum c(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
      const CsWord b = rng.next_wide_bits<7>(wb);
      const int cand = (int)rng.next_int(2, 30);
      const int mult = (int)rng.next_int(2, 30);
      const CsNum p = multiply_dsp_tiled(c, b, wb, cand, mult, width, offset);
      EXPECT_EQ(p.to_binary(), tiled_oracle(c, b, offset, width))
          << "width=" << width << " wc=" << wc << " wb=" << wb
          << " offset=" << offset;
    }
  }
}

TEST(CsaTree, ColumnTreeMatchesRowTreeAtWordEdges) {
  // Planes, not only values, against the row-at-a-time transcription, for
  // widths at and next to 64/128/448 and row counts 0..3 plus a few past
  // the 64 rows the tree keeps on the stack.
  Rng rng(37);
  for (int width : {1, 63, 64, 65, 127, 128, 129, 447, 448}) {
    for (int n : {0, 1, 2, 3, 4, 21, 53, 64, 65, 100, 200}) {
      std::vector<CsWord> rows;
      CsWord expect;
      for (int i = 0; i < n; ++i) {
        rows.push_back(rng.next_wide_bits<7>(width));
        expect = (expect + rows.back()).truncated(width);
      }
      CsaTreeStats stats;
      const CsNum got = reduce_rows(width, rows, &stats);
      const CsNum want = row_tree(width, rows);
      EXPECT_EQ(got.sum(), want.sum()) << "width=" << width << " n=" << n;
      EXPECT_EQ(got.carry(), want.carry()) << "width=" << width << " n=" << n;
      EXPECT_EQ(got.to_binary(), expect);
      const CsaTreeStats ts = tree_stats(n, width);
      EXPECT_EQ(stats.rows, n);
      EXPECT_EQ(stats.levels, ts.levels);
      EXPECT_EQ(stats.compressors, ts.compressors);

      CsaTreeStats arr_stats;
      const CsNum arr =
          reduce_rows_inplace(width, rows.data(), n, &arr_stats);
      EXPECT_EQ(arr.sum(), want.sum());
      EXPECT_EQ(arr.carry(), want.carry());
      EXPECT_EQ(arr_stats.compressors, ts.compressors);
    }
  }
}

TEST(CsaTree, ReduceRowsTruncatesWideRows) {
  // The vector overload truncates its rows to the window; bits above it
  // must not leak into either plane.
  Rng rng(38);
  for (int width : {5, 64, 100, 448}) {
    std::vector<CsWord> rows, narrow;
    for (int i = 0; i < 7; ++i) {
      rows.push_back(rng.next_wide_bits<7>(kCsWordBits));
      narrow.push_back(rows.back().truncated(width));
    }
    const CsNum got = reduce_rows(width, rows);
    const CsNum want = row_tree(width, narrow);
    EXPECT_EQ(got.sum(), want.sum()) << width;
    EXPECT_EQ(got.carry(), want.carry()) << width;
  }
}

TEST(CsaTree, ReduceRowsInplaceReadsRowsOnly) {
  Rng rng(39);
  std::vector<CsWord> rows;
  for (int i = 0; i < 21; ++i) rows.push_back(rng.next_wide_bits<7>(385));
  const std::vector<CsWord> before = rows;
  const CsNum r = reduce_rows_inplace(385, rows.data(), (int)rows.size());
  EXPECT_TRUE(rows == before);
  const CsNum again = reduce_rows_inplace(385, rows.data(), (int)rows.size());
  EXPECT_EQ(r.sum(), again.sum());
  EXPECT_EQ(r.carry(), again.carry());
  // A row wider than the window is a caller error, not silently truncated.
  rows[5].set_bit(385, true);
  EXPECT_THROW(reduce_rows_inplace(385, rows.data(), (int)rows.size()),
               CheckError);
}

TEST(CsaTree, MultiplyCsByBinaryWideMultiplier) {
  // More multiplier bits than the 64 rows kept on the stack.
  Rng rng(40);
  for (int i = 0; i < 50; ++i) {
    const int wc = (int)rng.next_int(4, 100);
    const int wb = (int)rng.next_int(60, 200);
    CsNum c(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
    const CsWord b = rng.next_wide_bits<7>(wb);
    const int wo = std::min(kCsWordBits, wc + wb);
    CsaTreeStats stats;
    const CsNum p = multiply_cs_by_binary(c, b, wb, wo, &stats);
    EXPECT_EQ(p.to_binary(), tiled_oracle(c, b, 0, wo));
    EXPECT_EQ(stats.rows, wb);
    EXPECT_EQ(stats.levels, csa_levels_for_rows(wb));
  }
}

}  // namespace
}  // namespace csfma
