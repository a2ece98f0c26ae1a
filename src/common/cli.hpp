// Strict number parsing for command-line flags and positionals.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace csfma {

/// Parse `s` as an unsigned decimal count into *out.  The whole string must
/// be digits whose value fits in T: empty input, a sign, blanks, trailing
/// text and overflow all return false and leave *out untouched.
template <class T>
bool parse_count(std::string_view s, T* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace csfma
