#include "inputs.hpp"

#include <bit>
#include <limits>

#include "common/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using csfma::PFloat;

csfma::OperandTriple ieee_triple(std::uint64_t seed, std::uint64_t index) {
  csfma::Rng rng(seed ^ ((index + 1) * 0x9e3779b97f4a7c15ULL));
  const int kind = (int)rng.next_below(1000);
  double v[3];
  for (double& x : v) x = rng.next_fp_in_exp_range(-8, 8);
  if (kind < kSpecialPerMille) {
    const double specials[3] = {0.0, std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
    const double s = specials[rng.next_below(3)];
    v[rng.next_below(3)] = rng.next_bool() ? -s : s;
  } else if (kind < kSpecialPerMille + kNearCancelPerMille) {
    // A ~ -(B*C): the exact sum cancels to a few ulps of the product.
    const double p = -(v[1] * v[2]);
    const std::int64_t nudge = rng.next_int(-3, 3);
    v[0] = std::bit_cast<double>(std::bit_cast<std::int64_t>(p) + nudge);
  }
  return {PFloat::from_double(csfma::kBinary64, v[0]),
          PFloat::from_double(csfma::kBinary64, v[1]),
          PFloat::from_double(csfma::kBinary64, v[2])};
}

std::vector<csfma::OperandTriple> ieee_triples(std::uint64_t seed,
                                               std::uint64_t first,
                                               std::uint64_t n) {
  std::vector<csfma::OperandTriple> out;
  out.reserve((std::size_t)n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(ieee_triple(seed, first + i));
  return out;
}

void replay_chain(csfma::FmaUnit& unit, const csfma::ChainSource& src,
                  std::uint64_t chain, csfma::Round rm, PFloat* out) {
  const std::size_t opc = (std::size_t)src.ops_per_chain();
  std::vector<csfma::ChainedOp> ops(opc);
  std::vector<csfma::FmaOperand> natives(opc);
  src.fill_chain(chain, ops.data());
  for (std::size_t j = 0; j < opc; ++j) {
    const csfma::ChainedOp& op = ops[j];
    const csfma::FmaOperand a =
        op.a_ref >= 0 ? natives[(std::size_t)op.a_ref] : unit.lift(op.a);
    const csfma::FmaOperand c =
        op.c_ref >= 0 ? natives[(std::size_t)op.c_ref] : unit.lift(op.c);
    natives[j] = unit.fma(a, op.b, c);
    out[j] = unit.lower(natives[j], rm);
  }
}

RunDigest digest_of(const csfma::BatchResult& r) {
  RunDigest d;
  Fnv64 results;
  for (const PFloat& v : r.results)
    results.u64(std::bit_cast<std::uint64_t>(v.to_double()));
  d.results_fnv = results.value();
  d.toggles = r.activity.total_toggles();
  Fnv64 h;
  for (const auto& [stage, st] : r.activity.stage_totals()) {
    h.bytes(stage);
    h.byte(0);
    h.u64(st.toggles);
    h.u64(st.observations);
  }
  d.stages_fnv = h.value();
  return d;
}

}  // namespace perfbench
