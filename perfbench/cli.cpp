#include <cstdlib>
#include <set>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Largest request size (ops or chains) the CLI accepts.
constexpr std::uint64_t kMaxSize = 65536;

bool all_digits(const std::string& s) {
  return !s.empty() && s.size() <= 19 &&
         s.find_first_not_of("0123456789") == std::string::npos;
}

/// A positive decimal number: digits with at most one '.'.
bool positive_decimal(const std::string& s, double* out) {
  if (s.empty() || s.size() > 32 ||
      s.find_first_not_of("0123456789.") != std::string::npos ||
      s.find('.') != s.rfind('.') || s == ".")
    return false;
  *out = std::strtod(s.c_str(), nullptr);
  return *out > 0.0;
}

}  // namespace

std::string usage() {
  std::string u =
      "usage: csfma_perfbench --workload <name> [--seed <n>] [--seconds <s>]\n"
      "                       [--trace 0|1] [--size <n>] [--record-references]\n"
      "workloads:";
  for (const char* w : kWorkloads) u += std::string(" ") + w;
  return u + "\n";
}

std::optional<Options> parse_args(const std::vector<std::string>& args,
                                  std::string* err) {
  Options o;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--record-references") {
      o.record = true;
      continue;
    }
    static const std::set<std::string> kValued = {
        "--workload", "--seed", "--seconds", "--trace", "--size"};
    if (!kValued.count(flag)) {
      *err = "unknown argument '" + flag + "'";
      return std::nullopt;
    }
    if (!seen.insert(flag).second) {
      *err = flag + " given twice";
      return std::nullopt;
    }
    if (i + 1 >= args.size()) {
      *err = flag + " needs a value";
      return std::nullopt;
    }
    const std::string& v = args[++i];
    bool ok = true;
    if (flag == "--workload") {
      ok = false;
      for (const char* w : kWorkloads) ok = ok || v == w;
      o.workload = v;
    } else if (flag == "--seed") {
      ok = all_digits(v);
      if (ok) o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ok = positive_decimal(v, &o.seconds) && o.seconds <= 3600.0;
    } else if (flag == "--trace") {
      ok = v == "0" || v == "1";
      o.trace = v == "1";
    } else {
      ok = all_digits(v);
      if (ok) o.size = std::strtoull(v.c_str(), nullptr, 10);
      ok = ok && o.size > 0 && o.size <= kMaxSize;
    }
    if (!ok) {
      *err = "invalid value '" + v + "' for " + flag;
      return std::nullopt;
    }
  }
  if (o.workload.empty()) {
    *err = "--workload is required";
    return std::nullopt;
  }
  return o;
}

}  // namespace perfbench
