#include "fma/pcs_fma.hpp"

#include "common/check.hpp"
#include "fma/cs_datapath.hpp"

namespace csfma {

namespace {

using cs::Route;

/// The shared front end; A wholly left of the adder window — the product
/// cannot influence even the rounding tail — leaves after the multiplier.
Route front_end(const cs::Datapath& d, const PcsOperand& a, const PFloat& b,
                const PcsOperand& c, bool events, cs::Lane& l) {
  const Route route = cs::front_end(d, a, b, c, events, l);
  if (route == Route::Datapath && l.a_msb >= d.adder_width())
    return Route::PassThrough;
  return route;
}

}  // namespace

PcsFma::PcsFma(PcsConfig geometry, ActivityRecorder* activity,
               const IntrospectHooks* hooks)
    : geom_(geometry), probes_(activity), hooks_(hooks) {
  geom_.validate();
  CSFMA_CHECK(cs::pcs_datapath(geom_).tiling.rows() <= cs::kMaxTiles &&
              geom_.adder_blocks() <= cs::kMaxBlocks);
}

PcsOperand PcsFma::fma(const PcsOperand& a, const PFloat& b,
                       const PcsOperand& c) {
  CSFMA_CHECK_MSG(a.geometry() == geom_ && c.geometry() == geom_,
                  "operand geometry differs from the unit's");
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  const cs::Datapath d = cs::pcs_datapath(geom_);
  cs::Lane lane;
  const Route route = front_end(d, a, b, c, events != nullptr, lane);
  cs::Sinks sinks{probes_, hooks_ != nullptr ? hooks_->tap : nullptr,
                  events != nullptr, &mul_stats_};
  return cs::one_lane(cs::PcsResult{geom_}, d, route, lane, a, b, c, sinks,
                      events, last_zd_skip_);
}

PFloat PcsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                        Round rm) {
  PcsOperand r = fma(ieee_to_pcs(a, geom_), b, ieee_to_pcs(c, geom_));
  return pcs_to_ieee(r, kBinary64, rm);
}

void PcsFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                            PFloat* out, const FmaBatchHooks& hooks) {
  cs::run_batch(cs::PcsResult{geom_}, cs::pcs_datapath(geom_), front_end,
                probes_, hooks_ != nullptr ? hooks_->tap : nullptr,
                &mul_stats_, last_zd_skip_, ops, n, out, hooks);
}

}  // namespace csfma
