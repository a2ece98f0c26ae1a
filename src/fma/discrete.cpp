#include "fma/discrete.hpp"

#include "introspect/signal_tap.hpp"

namespace csfma {

void DiscreteMulAdd::probe(UnitProbe p, const PFloat& v) {
  if (probes_) probes_[p].observe(v.to_bits());
  if (hooks_ != nullptr && hooks_->tap != nullptr) {
    SignalTap* tap = hooks_->tap;
    tap->begin_stage(UnitProbes::stage(p));
    tap->tap(UnitProbes::name(p), v.to_bits(), 64);
  }
}

PFloat DiscreteMulAdd::mul(const PFloat& a, const PFloat& b) {
  PFloat r = PFloat::mul(a, b, kBinary64, Round::NearestEven);
  probe(UnitProbe::MulOut, r);
  return r;
}

PFloat DiscreteMulAdd::add(const PFloat& a, const PFloat& b) {
  PFloat r = PFloat::add(a, b, kBinary64, Round::NearestEven);
  probe(UnitProbe::AddOut, r);
  return r;
}

PFloat DiscreteMulAdd::mul_add(const PFloat& a, const PFloat& b,
                               const PFloat& c) {
  return add(a, mul(b, c));
}

}  // namespace csfma
