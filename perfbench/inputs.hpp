// Seeded inputs and output digests shared by the workloads and the
// per-layer probes.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/sim_engine.hpp"

namespace perfbench {

/// Triple `index` of the batch_ieee stream: a pure function of (seed,
/// index), seeded per index like RandomTripleSource.  Exponents are uniform
/// in [-8, 8]; 1% of triples carry one special operand (a signed zero, an
/// infinity or a NaN) and 5% are near-cancelling (A = -(B*C) moved by a few
/// ulps).
csfma::OperandTriple ieee_triple(std::uint64_t seed, std::uint64_t index);
std::vector<csfma::OperandTriple> ieee_triples(std::uint64_t seed,
                                               std::uint64_t first,
                                               std::uint64_t n);

inline constexpr int kSpecialPerMille = 10;
inline constexpr int kNearCancelPerMille = 50;

/// The Sec. IV-B recurrence depth every chained request uses.
inline constexpr int kRecurrenceDepth = 18;

/// Re-execute chain `chain` of `src` with lift / fma / lower on `unit`,
/// wiring native results forward exactly as SimEngine::run_chained does;
/// out[0..ops_per_chain()) receives the IEEE readouts.
void replay_chain(csfma::FmaUnit& unit, const csfma::ChainSource& src,
                  std::uint64_t chain, csfma::Round rm, csfma::PFloat* out);

/// Fingerprints of one engine run: FNV-1a over the binary64 bit patterns of
/// the results (as bench/engine_throughput does), the merged toggle total,
/// and FNV-1a over the merged per-stage toggle/observation totals.
struct RunDigest {
  std::uint64_t results_fnv = 0;
  std::uint64_t toggles = 0;
  std::uint64_t stages_fnv = 0;
  bool operator==(const RunDigest&) const = default;
};
RunDigest digest_of(const csfma::BatchResult& r);

}  // namespace perfbench
