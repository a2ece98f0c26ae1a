// Activity-probe handles of the multiply-add units.
//
// Every unit output that feeds the energy model is an ActivityProbe in the
// unit's ActivityRecorder, named "<stage>.<signal>" and labelled with its
// pipeline stage.  Looking a probe up by name costs two strings and a map
// search; a PCS operation observes nine probes.  UnitProbes resolves each
// probe once, on its first observation, and keeps the pointer in a slot
// indexed by UnitProbe: later observations cost one load.
//
// Resolution is lazy on purpose: a probe is created when the datapath
// first reaches it, exactly as the by-name lookup did, so a run that never
// reaches a stage (classic's add/norm on an all-special stream, say) leaves
// no zero-count probe in probes() or to_json().  The recorder keeps its
// probes in a std::map, so a resolved pointer stays valid as probes are
// added; the recorder must outlive the unit, as before.
#pragma once

#include <array>
#include <cstddef>

#include "common/activity.hpp"

namespace csfma {

/// The probes of all units; each unit observes its own subset.
enum class UnitProbe {
  MulSum,        // "mul.sum"        mul      PCS, FCS, classic
  MulCarry,      // "mul.carry"      mul      PCS, FCS, classic
  AShift,        // "ashift"         align    PCS, FCS
  AddSum,        // "add.sum"        add      PCS, FCS, classic
  AddCarry,      // "add.carry"      add      PCS, FCS, classic
  CreduceSum,    // "creduce.sum"    creduce  PCS
  CreduceCarry,  // "creduce.carry"  creduce  PCS
  MuxSum,        // "mux.sum"        mux      PCS, FCS
  MuxCarry,      // "mux.carry"      mux      PCS, FCS
  Norm,          // "norm"           norm     classic
  MulOut,        // "mul.out"        mul      discrete
  AddOut,        // "add.out"        add      discrete
  DotSum,        // "dot.sum"        (none)   fused dot product
  DotCarry,      // "dot.carry"      (none)   fused dot product
  kCount
};

class UnitProbes {
 public:
  explicit UnitProbes(ActivityRecorder* recorder) : recorder_(recorder) {}

  /// False when the unit has no recorder: callers skip the observation.
  explicit operator bool() const { return recorder_ != nullptr; }

  /// The probe for `p`, resolved through the recorder on first use.
  /// Requires a recorder.
  ActivityProbe& operator[](UnitProbe p) {
    ActivityProbe*& slot = slots_[(std::size_t)p];
    if (slot == nullptr) {
      const Name& n = kNames[(std::size_t)p];
      slot = &recorder_->probe(n.name, n.stage);
    }
    return *slot;
  }

  /// The report name and stage label of `p` (also the SignalTap names).
  static const char* name(UnitProbe p) { return kNames[(std::size_t)p].name; }
  static const char* stage(UnitProbe p) {
    return kNames[(std::size_t)p].stage;
  }

 private:
  struct Name {
    const char* name;
    const char* stage;  // "" = unattributed
  };
  static constexpr Name kNames[(std::size_t)UnitProbe::kCount] = {
      {"mul.sum", "mul"},         {"mul.carry", "mul"},
      {"ashift", "align"},        {"add.sum", "add"},
      {"add.carry", "add"},       {"creduce.sum", "creduce"},
      {"creduce.carry", "creduce"}, {"mux.sum", "mux"},
      {"mux.carry", "mux"},       {"norm", "norm"},
      {"mul.out", "mul"},         {"add.out", "add"},
      {"dot.sum", ""},            {"dot.carry", ""},
  };

  ActivityRecorder* recorder_;
  std::array<ActivityProbe*, (std::size_t)UnitProbe::kCount> slots_{};
};

}  // namespace csfma
