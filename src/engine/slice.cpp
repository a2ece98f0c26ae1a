#include "engine/slice.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace csfma::slice {

namespace {

inline std::uint64_t lanes_mask(int n) {
  return n >= kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

void transpose64(std::uint64_t m[kLanes]) {
  // Masked block-swap transpose (Hacker's Delight 7-3 family), oriented so
  // that element (r, c) = bit c of m[r]: at each level, block (r, c+j) of
  // rows with bit j clear swaps with block (r+j, c) — the high half of
  // m[k] trades places with the low half of m[k+j].
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < kLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

void pack_words(const std::uint64_t* lanes, int stride_words, int n,
                int width_bits, std::uint64_t* planes) {
  CSFMA_CHECK(n >= 0 && n <= kLanes && width_bits >= 0);
  CSFMA_CHECK(stride_words * 64 >= width_bits);
  std::uint64_t tmp[kLanes];
  const int wcols = (width_bits + 63) / 64;
  for (int wc = 0; wc < wcols; ++wc) {
    for (int L = 0; L < n; ++L) tmp[L] = lanes[L * stride_words + wc];
    for (int L = n; L < kLanes; ++L) tmp[L] = 0;
    transpose64(tmp);
    const int nb = width_bits - wc * 64 < 64 ? width_bits - wc * 64 : 64;
    std::uint64_t* p = planes + wc * 64;
    for (int b = 0; b < nb; ++b) p[b] = tmp[b];
  }
}

void unpack_words(const std::uint64_t* planes, int width_bits, int n,
                  std::uint64_t* lanes, int stride_words) {
  CSFMA_CHECK(n >= 0 && n <= kLanes && width_bits >= 0);
  CSFMA_CHECK(stride_words * 64 >= width_bits);
  std::uint64_t tmp[kLanes];
  const int wcols = (width_bits + 63) / 64;
  for (int wc = 0; wc < wcols; ++wc) {
    const int nb = width_bits - wc * 64 < 64 ? width_bits - wc * 64 : 64;
    const std::uint64_t* p = planes + wc * 64;
    for (int b = 0; b < nb; ++b) tmp[b] = p[b];
    for (int b = nb; b < kLanes; ++b) tmp[b] = 0;  // bits past width read 0
    transpose64(tmp);
    for (int L = 0; L < n; ++L) lanes[L * stride_words + wc] = tmp[L];
  }
}

void compress3(int width, const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* c, std::uint64_t* out_s,
               std::uint64_t* out_c) {
  // Majority shifts up one bit position; the top majority drops off the
  // window, exactly like compress3's (maj << 1).truncated(width).
  std::uint64_t prev_maj = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t ai = a[i], bi = b[i], ci = c[i];
    out_s[i] = ai ^ bi ^ ci;
    out_c[i] = prev_maj;
    prev_maj = (ai & bi) | (ci & (ai | bi));
  }
}

void reduce_tiles(int width, int n, const int* lo, const std::uint64_t* tiles,
                  std::uint64_t* scratch, std::uint64_t* out_s,
                  std::uint64_t* out_c) {
  CSFMA_CHECK(width >= 1 && n >= 2);
  for (int r = 0; r < n; ++r) {
    const std::uint64_t* tp = tiles + r * 64;
    std::uint64_t* row = scratch + r * width;
    const int b0 = lo[r] < width ? lo[r] : width;
    const int b1 = lo[r] + 64 < width ? lo[r] + 64 : width;
    for (int b = 0; b < b0; ++b) row[b] = 0;
    for (int b = b0; b < b1; ++b) row[b] = tp[b - b0];
    for (int b = b1; b < width; ++b) row[b] = tp[63];
  }
  // Each level compresses rows (i, i+1, i+2) into (o, o+1) with o <= i and
  // moves the leftovers down: reduce_rows' schedule, row for row.
  while (n > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= n; i += 3, o += 2) {
      const std::uint64_t* ra = scratch + i * width;
      const std::uint64_t* rb = ra + width;
      const std::uint64_t* rc = rb + width;
      std::uint64_t* os = scratch + o * width;
      std::uint64_t* oc = os + width;
      std::uint64_t prev_maj = 0;
      for (int b = 0; b < width; ++b) {
        const std::uint64_t x = ra[b], y = rb[b], z = rc[b];
        os[b] = x ^ y ^ z;  // reads precede writes: o <= i, o+1 <= i+1
        oc[b] = prev_maj;
        prev_maj = (x & y) | (z & (x | y));  // top majority drops (mod 2^W)
      }
    }
    for (; i < n; ++i, ++o) {
      if (o != i) std::copy(scratch + i * width, scratch + (i + 1) * width,
                            scratch + o * width);
    }
    n = o;
  }
  std::copy(scratch, scratch + width, out_s);
  std::copy(scratch + width, scratch + 2 * width, out_c);
}

void carry_reduce(int width, int group, const std::uint64_t* s,
                  const std::uint64_t* c, std::uint64_t* out_s,
                  std::uint64_t* out_c) {
  CSFMA_CHECK(group >= 1 && group <= width);
  for (int i = 0; i < width; ++i) out_c[i] = 0;
  for (int lo = 0; lo < width; lo += group) {
    const int len = lo + group <= width ? group : width - lo;
    // Plane-form ripple adder over the segment: per lane this assimilates
    // the group's sum+carry digits, matching the scalar segment addition.
    std::uint64_t carry = 0;
    for (int j = 0; j < len; ++j) {
      const std::uint64_t a = s[lo + j], b = c[lo + j];
      out_s[lo + j] = a ^ b ^ carry;
      carry = (a & b) | (carry & (a | b));
    }
    if (lo + group < width) out_c[lo + group] = carry;
  }
}

void assimilate(int width, const std::uint64_t* s, const std::uint64_t* c,
                std::uint64_t* out) {
  std::uint64_t carry = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t a = s[i], b = c[i];
    out[i] = a ^ b ^ carry;
    carry = (a & b) | (carry & (a | b));
  }
}

void count_skippable_blocks(int width, int block, int max_skip,
                            const std::uint64_t* s, const std::uint64_t* c,
                            std::uint64_t* alive_after) {
  CSFMA_CHECK(block >= 2 && block <= 63);
  CSFMA_CHECK(width % block == 0);
  CSFMA_CHECK(max_skip >= 0 && max_skip <= width / block - 1);
  // Digit predicates per plane position: Z (digit 0), X (digit 1),
  // T (digit 2).  Each step's skip decision depends only on fixed plane
  // positions, so steps evaluate independently; the cumulative AND
  // replicates the scalar while-loop (a lane stops at its first
  // non-skippable block).
  std::uint64_t alive = ~std::uint64_t{0};
  for (int step = 1; step <= max_skip; ++step) {
    const int lo = width - block * step;
    // Prefix-of-zeros below each in-block position (exclusive).
    std::uint64_t pz[64];
    std::uint64_t run_z = ~std::uint64_t{0};
    for (int j = 0; j < block; ++j) {
      pz[j] = run_z;
      run_z &= ~(s[lo + j] | c[lo + j]);
    }
    // Descending scan: suffix-of-ones above each position, plus the
    // all-zero / all-ones / ones-then-2-then-zeros block patterns.
    std::uint64_t all_zero = ~std::uint64_t{0};
    std::uint64_t all_ones = ~std::uint64_t{0};
    std::uint64_t suffix_ones = ~std::uint64_t{0};
    std::uint64_t otz = 0;
    for (int j = block - 1; j >= 0; --j) {
      const std::uint64_t sj = s[lo + j], cj = c[lo + j];
      const std::uint64_t x = sj ^ cj, t = sj & cj, z = ~(sj | cj);
      otz |= suffix_ones & t & pz[j];
      suffix_ones &= x;
      all_zero &= z;
      all_ones &= x;
    }
    // Fig 10.d safeguards on the first two digits of the next block.
    const std::uint64_t s1 = s[lo - 1], c1 = c[lo - 1];
    const std::uint64_t x1 = s1 ^ c1, t1 = s1 & c1, z1 = ~(s1 | c1);
    const std::uint64_t z2 = ~(s[lo - 2] | c[lo - 2]);
    const std::uint64_t skip = ((all_zero | otz) & z1 & z2) |
                               (all_ones & (x1 | (t1 & z2)));
    alive &= skip;
    alive_after[step - 1] = alive;
  }
}

void leading_sign_run(int width, const std::uint64_t* bin, int n,
                      std::uint16_t* run) {
  CSFMA_CHECK(width >= 1 && n >= 0 && n <= kLanes);
  const std::uint64_t sign = bin[width - 1];
  std::uint64_t undecided = lanes_mask(n);
  for (int L = 0; L < n; ++L) run[L] = (std::uint16_t)(width - 1);
  for (int b = width - 2; b >= 0 && undecided != 0; --b) {
    std::uint64_t newly = (bin[b] ^ sign) & undecided;
    undecided &= ~newly;
    while (newly != 0) {
      const int L = std::countr_zero(newly);
      newly &= newly - 1;
      run[L] = (std::uint16_t)(width - 2 - b);
    }
  }
}

}  // namespace csfma::slice
