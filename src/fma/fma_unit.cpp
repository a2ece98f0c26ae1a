#include "fma/fma_unit.hpp"

#include "common/check.hpp"
#include "fma/classic_fma.hpp"
#include "fma/discrete.hpp"
#include "fma/fcs_fma.hpp"
#include "fma/pcs_fma.hpp"
#include "introspect/event_log.hpp"

namespace csfma {

const char* to_string(UnitKind kind) {
  switch (kind) {
    case UnitKind::Discrete:
      return "discrete";
    case UnitKind::Classic:
      return "classic";
    case UnitKind::Pcs:
      return "pcs";
    case UnitKind::Fcs:
      return "fcs";
  }
  return "?";
}

const char* to_string(LatencyClass lc) {
  switch (lc) {
    case LatencyClass::DiscretePair:
      return "discrete-pair";
    case LatencyClass::FusedClassic:
      return "fused-classic";
    case LatencyClass::CarrySave:
      return "carry-save";
  }
  return "?";
}

const PFloat& FmaOperand::ieee() const {
  CSFMA_CHECK_MSG(is_ieee(), "FmaOperand does not hold an IEEE value");
  return std::get<PFloat>(v_);
}

const PcsOperand& FmaOperand::pcs() const {
  CSFMA_CHECK_MSG(is_pcs(), "FmaOperand does not hold a PCS operand");
  return std::get<PcsOperand>(v_);
}

const FcsOperand& FmaOperand::fcs() const {
  CSFMA_CHECK_MSG(is_fcs(), "FmaOperand does not hold an FCS operand");
  return std::get<FcsOperand>(v_);
}

PFloat FmaUnit::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                         Round rm) {
  return lower(fma(lift(a), b, lift(c)), rm);
}

void FmaUnit::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                             PFloat* out, const FmaBatchHooks& hooks) {
  for (std::size_t i = 0; i < n; ++i) {
    if (hooks.events != nullptr) {
      hooks.events->begin_op(hooks.base_index + i, ops[i].a.to_bits().lo64(),
                             ops[i].b.to_bits().lo64(),
                             ops[i].c.to_bits().lo64());
    }
    out[i] = fma_ieee(ops[i].a, ops[i].b, ops[i].c, hooks.rm);
  }
}

namespace {

/// Shared base for the two IEEE-boundary units: native format == IEEE.
class IeeeUnitBase : public FmaUnit {
 public:
  FmaOperand lift(const PFloat& v) const override { return FmaOperand(v); }
  PFloat lower(const FmaOperand& v, Round rm) const override {
    // The unit already rounded to binary64; re-rounding is exact.
    return v.ieee().round_to(kBinary64, rm);
  }
};

class DiscreteUnit final : public IeeeUnitBase {
 public:
  DiscreteUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, hooks) {}
  UnitKind kind() const override { return UnitKind::Discrete; }
  std::string_view name() const override { return "Xilinx CoreGen"; }
  LatencyClass latency_class() const override {
    return LatencyClass::DiscretePair;
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.mul_add(a.ieee(), b, c.ieee()));
  }

 private:
  DiscreteMulAdd unit_;
};

class ClassicUnit final : public IeeeUnitBase {
 public:
  ClassicUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, hooks) {}
  UnitKind kind() const override { return UnitKind::Classic; }
  std::string_view name() const override { return "FloPoCo FPPipeline"; }
  LatencyClass latency_class() const override {
    return LatencyClass::FusedClassic;
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.fma(a.ieee(), b, c.ieee()));
  }

 private:
  ClassicFma unit_;
};

class PcsUnit final : public FmaUnit {
 public:
  PcsUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, hooks) {}
  UnitKind kind() const override { return UnitKind::Pcs; }
  std::string_view name() const override { return "PCS-FMA"; }
  LatencyClass latency_class() const override {
    return LatencyClass::CarrySave;
  }
  FmaOperand lift(const PFloat& v) const override {
    return FmaOperand(ieee_to_pcs(v));
  }
  PFloat lower(const FmaOperand& v, Round rm) const override {
    return pcs_to_ieee(v.pcs(), kBinary64, rm);
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.fma(a.pcs(), b, c.pcs()));
  }
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                  Round rm) override {
    return unit_.fma_ieee(a, b, c, rm);
  }
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks) override {
    unit_.fma_ieee_batch(ops, n, out, hooks);
  }

 private:
  PcsFma unit_;
};

class FcsUnit final : public FmaUnit {
 public:
  FcsUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, FcsSelect::EarlyLza, hooks) {}
  UnitKind kind() const override { return UnitKind::Fcs; }
  std::string_view name() const override { return "FCS-FMA"; }
  LatencyClass latency_class() const override {
    return LatencyClass::CarrySave;
  }
  FmaOperand lift(const PFloat& v) const override {
    return FmaOperand(ieee_to_fcs(v));
  }
  PFloat lower(const FmaOperand& v, Round rm) const override {
    return fcs_to_ieee(v.fcs(), kBinary64, rm);
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.fma(a.fcs(), b, c.fcs()));
  }
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                  Round rm) override {
    return unit_.fma_ieee(a, b, c, rm);
  }
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks) override {
    unit_.fma_ieee_batch(ops, n, out, hooks);
  }

 private:
  FcsFma unit_;
};

}  // namespace

std::unique_ptr<FmaUnit> make_fma_unit(UnitKind kind,
                                       ActivityRecorder* activity,
                                       const IntrospectHooks* hooks) {
  switch (kind) {
    case UnitKind::Discrete:
      return std::make_unique<DiscreteUnit>(activity, hooks);
    case UnitKind::Classic:
      return std::make_unique<ClassicUnit>(activity, hooks);
    case UnitKind::Pcs:
      return std::make_unique<PcsUnit>(activity, hooks);
    case UnitKind::Fcs:
      return std::make_unique<FcsUnit>(activity, hooks);
  }
  CSFMA_CHECK_MSG(false, "unknown UnitKind");
  return nullptr;
}

}  // namespace csfma
