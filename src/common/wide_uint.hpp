// Fixed-width multi-word unsigned integers.
//
// The carry-save FMA datapaths of the paper manipulate very wide words:
// 163b products, 385b (PCS) and 377c (FCS) aligned sums.  WideUint<W> is a
// W*64-bit unsigned integer with wrap-around (mod 2^(64W)) semantics, plus
// the helpers the bit-accurate simulators need: single-bit access, field
// extraction, shifts, full-width multiplication and two's-complement views.
//
// The type is a plain value type (trivially copyable, constexpr-friendly
// where practical) so simulators can treat wires as values.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <compare>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace csfma {

template <int W>
class WideUint {
  static_assert(W >= 1);

 public:
  static constexpr int kWords = W;
  static constexpr int kBits = 64 * W;

  constexpr WideUint() : w_{} {}
  constexpr WideUint(std::uint64_t lo) : w_{} { w_[0] = lo; }  // NOLINT(runtime/explicit)

  /// Widening / narrowing conversion between word counts. Narrowing keeps the
  /// low words (mod 2^(64W)), mirroring hardware truncation.
  template <int W2>
  constexpr explicit WideUint(const WideUint<W2>& o) : w_{} {
    for (int i = 0; i < (W < W2 ? W : W2); ++i) w_[i] = o.word(i);
  }

  static constexpr WideUint zero() { return WideUint(); }
  static constexpr WideUint one() { return WideUint(1); }

  /// All-ones in the low `bits` positions.
  static constexpr WideUint mask(int bits) {
    CSFMA_CHECK(bits >= 0 && bits <= kBits);
    WideUint r;
    int full = bits / 64, rem = bits % 64;
    for (int i = 0; i < full; ++i) r.w_[i] = ~std::uint64_t{0};
    if (rem != 0) r.w_[full] = (~std::uint64_t{0}) >> (64 - rem);
    return r;
  }

  /// 1 << pos.
  static constexpr WideUint bit_at(int pos) {
    CSFMA_CHECK(pos >= 0 && pos < kBits);
    WideUint r;
    r.w_[pos / 64] = std::uint64_t{1} << (pos % 64);
    return r;
  }

  constexpr std::uint64_t word(int i) const {
    CSFMA_CHECK(i >= 0 && i < W);
    return w_[i];
  }
  constexpr void set_word(int i, std::uint64_t v) {
    CSFMA_CHECK(i >= 0 && i < W);
    w_[i] = v;
  }
  constexpr std::uint64_t lo64() const { return w_[0]; }

  /// Raw little-endian word storage, for the bit-sliced transpose layer and
  /// the word-walking kernels (engine/slice.hpp, cs/pcs.cpp): the layout is
  /// part of the type's contract (word i holds bits [64i, 64i+64)).
  constexpr const std::uint64_t* data() const { return w_.data(); }
  constexpr std::uint64_t* data() { return w_.data(); }

  constexpr bool bit(int pos) const {
    CSFMA_CHECK(pos >= 0 && pos < kBits);
    return (w_[pos / 64] >> (pos % 64)) & 1u;
  }
  constexpr void set_bit(int pos, bool v) {
    CSFMA_CHECK(pos >= 0 && pos < kBits);
    std::uint64_t m = std::uint64_t{1} << (pos % 64);
    if (v)
      w_[pos / 64] |= m;
    else
      w_[pos / 64] &= ~m;
  }

  constexpr bool is_zero() const {
    for (auto x : w_)
      if (x != 0) return false;
    return true;
  }

  // ---- arithmetic (mod 2^(64W)) ----

  friend constexpr WideUint operator+(const WideUint& a, const WideUint& b) {
    WideUint r;
    unsigned __int128 carry = 0;
    for (int i = 0; i < W; ++i) {
      unsigned __int128 s = (unsigned __int128)a.w_[i] + b.w_[i] + carry;
      r.w_[i] = (std::uint64_t)s;
      carry = s >> 64;
    }
    return r;
  }
  friend constexpr WideUint operator-(const WideUint& a, const WideUint& b) {
    WideUint r;
    unsigned __int128 borrow = 0;
    for (int i = 0; i < W; ++i) {
      unsigned __int128 d = (unsigned __int128)a.w_[i] - b.w_[i] - borrow;
      r.w_[i] = (std::uint64_t)d;
      borrow = (d >> 64) & 1;
    }
    return r;
  }
  constexpr WideUint operator-() const { return WideUint() - *this; }

  WideUint& operator+=(const WideUint& o) { return *this = *this + o; }
  WideUint& operator-=(const WideUint& o) { return *this = *this - o; }

  // ---- bitwise ----

  friend constexpr WideUint operator&(const WideUint& a, const WideUint& b) {
    WideUint r;
    for (int i = 0; i < W; ++i) r.w_[i] = a.w_[i] & b.w_[i];
    return r;
  }
  friend constexpr WideUint operator|(const WideUint& a, const WideUint& b) {
    WideUint r;
    for (int i = 0; i < W; ++i) r.w_[i] = a.w_[i] | b.w_[i];
    return r;
  }
  friend constexpr WideUint operator^(const WideUint& a, const WideUint& b) {
    WideUint r;
    for (int i = 0; i < W; ++i) r.w_[i] = a.w_[i] ^ b.w_[i];
    return r;
  }
  constexpr WideUint operator~() const {
    WideUint r;
    for (int i = 0; i < W; ++i) r.w_[i] = ~w_[i];
    return r;
  }
  WideUint& operator&=(const WideUint& o) { return *this = *this & o; }
  WideUint& operator|=(const WideUint& o) { return *this = *this | o; }
  WideUint& operator^=(const WideUint& o) { return *this = *this ^ o; }

  // ---- shifts (shift count may be any value in [0, kBits]; larger counts
  //      yield zero, as a hardware shifter of that width would) ----

  friend constexpr WideUint operator<<(const WideUint& a, int n) {
    CSFMA_CHECK(n >= 0);
    if (n >= kBits) return WideUint();
    WideUint r;
    int wsh = n / 64, bsh = n % 64;
    for (int i = W - 1; i >= 0; --i) {
      std::uint64_t v = 0;
      if (i - wsh >= 0) v = a.w_[i - wsh] << bsh;
      if (bsh != 0 && i - wsh - 1 >= 0) v |= a.w_[i - wsh - 1] >> (64 - bsh);
      r.w_[i] = v;
    }
    return r;
  }
  friend constexpr WideUint operator>>(const WideUint& a, int n) {
    CSFMA_CHECK(n >= 0);
    if (n >= kBits) return WideUint();
    WideUint r;
    int wsh = n / 64, bsh = n % 64;
    for (int i = 0; i < W; ++i) {
      std::uint64_t v = 0;
      if (i + wsh < W) v = a.w_[i + wsh] >> bsh;
      if (bsh != 0 && i + wsh + 1 < W) v |= a.w_[i + wsh + 1] << (64 - bsh);
      r.w_[i] = v;
    }
    return r;
  }
  WideUint& operator<<=(int n) { return *this = *this << n; }
  WideUint& operator>>=(int n) { return *this = *this >> n; }

  // ---- comparison (unsigned) ----

  friend constexpr bool operator==(const WideUint& a, const WideUint& b) {
    return a.w_ == b.w_;
  }
  friend constexpr std::strong_ordering operator<=>(const WideUint& a,
                                                    const WideUint& b) {
    for (int i = W - 1; i >= 0; --i) {
      if (a.w_[i] != b.w_[i])
        return a.w_[i] < b.w_[i] ? std::strong_ordering::less
                                 : std::strong_ordering::greater;
    }
    return std::strong_ordering::equal;
  }

  // ---- multiplication ----

  /// Full-width schoolbook product (no truncation).
  template <int W2>
  constexpr WideUint<W + W2> mul_full(const WideUint<W2>& b) const {
    WideUint<W + W2> r;
    for (int i = 0; i < W; ++i) {
      std::uint64_t carry = 0;
      for (int j = 0; j < W2; ++j) {
        unsigned __int128 cur = (unsigned __int128)w_[i] * b.word(j) +
                                r.word(i + j) + carry;
        r.set_word(i + j, (std::uint64_t)cur);
        carry = (std::uint64_t)(cur >> 64);
      }
      // Propagate the final carry upward.
      int k = i + W2;
      while (carry != 0 && k < W + W2) {
        unsigned __int128 cur = (unsigned __int128)r.word(k) + carry;
        r.set_word(k, (std::uint64_t)cur);
        carry = (std::uint64_t)(cur >> 64);
        ++k;
      }
    }
    return r;
  }

  /// Truncating product (mod 2^(64W)).
  friend constexpr WideUint operator*(const WideUint& a, const WideUint& b) {
    return WideUint(a.template mul_full<W>(b));
  }

  // ---- bit scans ----

  /// Number of leading zero bits (kBits when zero).
  constexpr int countl_zero() const {
    for (int i = W - 1; i >= 0; --i)
      if (w_[i] != 0) return (W - 1 - i) * 64 + std::countl_zero(w_[i]);
    return kBits;
  }
  /// Number of trailing zero bits (kBits when zero).
  constexpr int countr_zero() const {
    for (int i = 0; i < W; ++i)
      if (w_[i] != 0) return i * 64 + std::countr_zero(w_[i]);
    return kBits;
  }
  constexpr int popcount() const {
    int n = 0;
    for (auto x : w_) n += std::popcount(x);
    return n;
  }
  /// Position of the most significant set bit + 1 (0 when zero).
  constexpr int bit_width() const { return kBits - countl_zero(); }

  // ---- field helpers ----

  /// Extract bits [lo, lo+len) as the low bits of the result.
  constexpr WideUint extract(int lo, int len) const {
    CSFMA_CHECK(lo >= 0 && len >= 0 && lo + len <= kBits);
    return (*this >> lo) & mask(len);
  }
  /// Extract a field of at most 64 bits.
  constexpr std::uint64_t extract64(int lo, int len) const {
    CSFMA_CHECK(len <= 64);
    return extract(lo, len).lo64();
  }
  /// Deposit the low `len` bits of `v` at position `lo`.
  constexpr WideUint deposit(int lo, int len, const WideUint& v) const {
    CSFMA_CHECK(lo >= 0 && len >= 0 && lo + len <= kBits);
    WideUint field = (v & mask(len)) << lo;
    return (*this & ~(mask(len) << lo)) | field;
  }

  /// Keep only the low `bits` positions.
  constexpr WideUint truncated(int bits) const { return *this & mask(bits); }

  /// True when no bit at or above position `bits` is set: the word-wise
  /// form of (*this & ~mask(bits)).is_zero(), without building a mask.
  constexpr bool fits(int bits) const {
    CSFMA_CHECK(bits >= 0 && bits <= kBits);
    int i = bits / 64;
    if (bits % 64 != 0) {
      if ((w_[i] >> (bits % 64)) != 0) return false;
      ++i;
    }
    for (; i < W; ++i)
      if (w_[i] != 0) return false;
    return true;
  }

  // ---- two's-complement views over a `width`-bit window ----

  /// Sign bit of the value interpreted as two's complement in `width` bits.
  constexpr bool sign_bit(int width) const {
    CSFMA_CHECK(width >= 1 && width <= kBits);
    return bit(width - 1);
  }
  /// Sign-extend the `width`-bit window to the full kBits.
  constexpr WideUint sext(int width) const {
    CSFMA_CHECK(width >= 1 && width <= kBits);
    WideUint t = truncated(width);
    if (t.bit(width - 1)) t |= ~mask(width);
    return t;
  }
  /// Magnitude of the two's-complement value in the `width`-bit window.
  constexpr WideUint abs_signed(int width) const {
    WideUint s = sext(width);
    return s.bit(kBits - 1) ? -s : s;
  }

  /// Approximate conversion for diagnostics / error metrics.
  double to_double() const {
    double r = 0.0;
    for (int i = W - 1; i >= 0; --i) r = r * 18446744073709551616.0 + (double)w_[i];
    return r;
  }

  std::string to_hex() const {
    static const char* digits = "0123456789abcdef";
    std::string s = "0x";
    bool started = false;
    for (int i = W - 1; i >= 0; --i) {
      for (int nib = 15; nib >= 0; --nib) {
        unsigned d = (w_[i] >> (4 * nib)) & 0xF;
        if (d != 0) started = true;
        if (started) s.push_back(digits[d]);
      }
    }
    if (!started) s.push_back('0');
    return s;
  }

 private:
  std::array<std::uint64_t, W> w_;
};

// ---- raw word-array field helpers ----
//
// The hot-path kernels (cs/pcs.cpp carry reduction, cs/csa_tree.cpp row
// placement, engine/slice.hpp transposes) walk WideUint storage through
// data() and need sub-word field access without building full-width masks.
// Fields of up to 64 bits span at most two adjacent words.

/// Read bits [lo, lo+len) of a little-endian word array; 1 <= len <= 64.
/// The caller guarantees the array covers bit lo+len-1.
constexpr std::uint64_t wide_read_bits(const std::uint64_t* w, int lo,
                                       int len) {
  const int wi = lo >> 6, sh = lo & 63;
  std::uint64_t v = w[wi] >> sh;
  if (sh != 0 && sh + len > 64) v |= w[wi + 1] << (64 - sh);
  return len == 64 ? v : v & ((std::uint64_t{1} << len) - 1);
}

/// OR the low `len` bits of `v` into a word array at bit position `lo`;
/// 1 <= len <= 64.  The destination bits must be zero (deposit-into-fresh
/// semantics — exactly how the kernels build their outputs).
constexpr void wide_or_bits(std::uint64_t* w, int lo, int len,
                            std::uint64_t v) {
  if (len != 64) v &= (std::uint64_t{1} << len) - 1;
  const int wi = lo >> 6, sh = lo & 63;
  w[wi] |= v << sh;
  if (sh != 0 && sh + len > 64) w[wi + 1] |= v >> (64 - sh);
}

/// Schoolbook restoring division: returns {quotient, remainder}.
/// O(kBits) wide-word steps — ample for simulation workloads.
template <int W>
constexpr std::pair<WideUint<W>, WideUint<W>> divmod(const WideUint<W>& n,
                                                     const WideUint<W>& d) {
  CSFMA_CHECK_MSG(!d.is_zero(), "division by zero");
  WideUint<W> q, rem;
  for (int i = n.bit_width() - 1; i >= 0; --i) {
    rem = (rem << 1) | (n.bit(i) ? WideUint<W>::one() : WideUint<W>::zero());
    if (rem >= d) {
      rem -= d;
      q.set_bit(i, true);
    }
  }
  return {q, rem};
}

// The widths the FMA datapaths use most.
using U64 = WideUint<1>;
using U128 = WideUint<2>;
using U192 = WideUint<3>;
using U256 = WideUint<4>;
using U448 = WideUint<7>;
using U512 = WideUint<8>;

}  // namespace csfma
