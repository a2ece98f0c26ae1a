#include "cs/cs_num.hpp"

#include "common/check.hpp"

namespace csfma {

CsNum::CsNum(int width, CsWord sum, CsWord carry)
    : width_(width), sum_(sum), carry_(carry) {
  CSFMA_CHECK_MSG(width >= 1 && width <= kCsWordBits, "CS width out of range");
  CSFMA_CHECK_MSG(sum_.fits(width), "sum plane overflow");
  CSFMA_CHECK_MSG(carry_.fits(width), "carry plane overflow");
}

CsNum CsNum::from_binary(int width, CsWord bits) {
  return CsNum(width, bits.truncated(width), CsWord());
}

CsNum CsNum::from_signed(int width, bool negative, CsWord magnitude) {
  CSFMA_CHECK_MSG(magnitude.bit_width() < width, "magnitude does not fit");
  CsWord bits = negative ? (-magnitude).truncated(width) : magnitude;
  return from_binary(width, bits);
}

int CsNum::digit(int i) const {
  CSFMA_CHECK(i >= 0 && i < width_);
  return (sum_.bit(i) ? 1 : 0) + (carry_.bit(i) ? 1 : 0);
}

CsWord CsNum::to_binary() const { return (sum_ + carry_).truncated(width_); }

CsWord CsNum::signed_value() const { return to_binary().sext(width_); }

bool CsNum::is_value_negative() const { return to_binary().bit(width_ - 1); }

bool CsNum::is_value_zero() const { return to_binary().is_zero(); }

CsWord CsNum::magnitude() const { return to_binary().abs_signed(width_); }

CsNum CsNum::shifted_left(int n) const {
  CSFMA_CHECK(n >= 0);
  return CsNum(width_, (sum_ << n).truncated(width_),
               (carry_ << n).truncated(width_));
}

CsNum CsNum::shifted_right_logical(int n) const {
  CSFMA_CHECK(n >= 0);
  return CsNum(width_, sum_ >> n, carry_ >> n);
}

CsNum CsNum::windowed(int new_width) const {
  return CsNum(new_width, sum_.truncated(new_width), carry_.truncated(new_width));
}

CsNum CsNum::extract_digits(int lo, int len) const {
  CSFMA_CHECK(lo >= 0 && len >= 1 && lo + len <= width_);
  return CsNum(len, sum_.extract(lo, len), carry_.extract(lo, len));
}

std::string CsNum::to_digit_string() const {
  std::string s;
  s.reserve((size_t)width_);
  for (int i = width_ - 1; i >= 0; --i) s.push_back((char)('0' + digit(i)));
  return s;
}

CsNum compress3(int width, const CsWord& a, const CsWord& b, const CsWord& c) {
  CsWord s = a ^ b ^ c;
  CsWord maj = (a & b) | (a & c) | (b & c);
  return CsNum(width, s.truncated(width), (maj << 1).truncated(width));
}

CsNum cs_add_binary(const CsNum& a, const CsWord& b) {
  CSFMA_CHECK((b & ~CsWord::mask(a.width())).is_zero());
  return compress3(a.width(), a.sum(), a.carry(), b);
}

CsNum cs_add_cs(const CsNum& a, const CsNum& b) {
  CSFMA_CHECK(a.width() == b.width());
  CsNum t = compress3(a.width(), a.sum(), a.carry(), b.sum());
  return compress3(a.width(), t.sum(), t.carry(), b.carry());
}

CsNum cs_negate(const CsNum& a) {
  const int w = a.width();
  CsWord ns = (~a.sum()).truncated(w);
  CsWord nc = (~a.carry()).truncated(w);
  // -x = ~S + ~C + 2 (two's complement of both planes, each contributing +1).
  CsNum t = compress3(w, ns, nc, CsWord(2));
  return t;
}

}  // namespace csfma
