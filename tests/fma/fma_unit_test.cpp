// The unified FmaUnit interface: factory wiring, metadata, and agreement
// of the adapters with the concrete unit simulators they wrap.
#include "fma/fma_unit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fma/classic_fma.hpp"
#include "fma/discrete.hpp"
#include "fma/fcs_fma.hpp"
#include "fma/pcs_fma.hpp"

namespace csfma {
namespace {

PFloat rand_op(Rng& rng) {
  return PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
}

TEST(FmaUnit, FactoryCoversEveryKindWithStableMetadata) {
  for (UnitKind kind : kAllUnitKinds) {
    auto unit = make_fma_unit(kind);
    ASSERT_NE(unit, nullptr) << to_string(kind);
    EXPECT_EQ(unit->kind(), kind);
    EXPECT_FALSE(unit->name().empty());
  }
  EXPECT_EQ(make_fma_unit(UnitKind::Discrete)->latency_class(),
            LatencyClass::DiscretePair);
  EXPECT_EQ(make_fma_unit(UnitKind::Classic)->latency_class(),
            LatencyClass::FusedClassic);
  EXPECT_EQ(make_fma_unit(UnitKind::Pcs)->latency_class(),
            LatencyClass::CarrySave);
  EXPECT_EQ(make_fma_unit(UnitKind::Fcs)->latency_class(),
            LatencyClass::CarrySave);
}

TEST(FmaUnit, AdaptersAgreeWithConcreteUnits) {
  Rng rng(300);
  auto discrete = make_fma_unit(UnitKind::Discrete);
  auto classic = make_fma_unit(UnitKind::Classic);
  auto pcs = make_fma_unit(UnitKind::Pcs);
  auto fcs = make_fma_unit(UnitKind::Fcs);
  DiscreteMulAdd discrete_ref;
  ClassicFma classic_ref;
  PcsFma pcs_ref;
  FcsFma fcs_ref;
  for (int i = 0; i < 500; ++i) {
    PFloat a = rand_op(rng), b = rand_op(rng), c = rand_op(rng);
    const Round rm = Round::HalfAwayFromZero;
    EXPECT_TRUE(PFloat::same_value(discrete->fma_ieee(a, b, c, rm),
                                   discrete_ref.mul_add(a, b, c)));
    EXPECT_TRUE(PFloat::same_value(classic->fma_ieee(a, b, c, rm),
                                   classic_ref.fma(a, b, c)));
    EXPECT_TRUE(PFloat::same_value(pcs->fma_ieee(a, b, c, rm),
                                   pcs_ref.fma_ieee(a, b, c, rm)));
    EXPECT_TRUE(PFloat::same_value(fcs->fma_ieee(a, b, c, rm),
                                   fcs_ref.fma_ieee(a, b, c, rm)));
  }
}

TEST(FmaUnit, LiftLowerRoundTripsIeeeValues) {
  Rng rng(301);
  for (UnitKind kind : kAllUnitKinds) {
    auto unit = make_fma_unit(kind);
    for (int i = 0; i < 200; ++i) {
      PFloat v = rand_op(rng);
      PFloat back = unit->lower(unit->lift(v), Round::NearestEven);
      EXPECT_TRUE(PFloat::same_value(back, v))
          << to_string(kind) << " " << v.to_double();
    }
  }
}

TEST(FmaUnit, NativeChainMatchesExplicitPcsChain) {
  // The lift/fma/lower view wires the same datapath a hand-written
  // PcsOperand chain does.
  Rng rng(302);
  auto unit = make_fma_unit(UnitKind::Pcs);
  PcsFma ref;
  for (int i = 0; i < 50; ++i) {
    PFloat a = rand_op(rng), b1 = rand_op(rng), c = rand_op(rng),
           b2 = rand_op(rng), d = rand_op(rng);
    // Two chained ops through the interface...
    FmaOperand acc = unit->fma(unit->lift(a), b1, unit->lift(c));
    acc = unit->fma(acc, b2, unit->lift(d));
    PFloat got = unit->lower(acc, Round::HalfAwayFromZero);
    // ...and through the concrete unit.
    PcsOperand r = ref.fma(ieee_to_pcs(a), b1, ieee_to_pcs(c));
    r = ref.fma(r, b2, ieee_to_pcs(d));
    PFloat want = pcs_to_ieee(r, kBinary64, Round::HalfAwayFromZero);
    EXPECT_TRUE(PFloat::same_value(got, want));
  }
}

TEST(FmaUnit, OperandUnwrapIsTypeChecked) {
  auto pcs = make_fma_unit(UnitKind::Pcs);
  FmaOperand v = pcs->lift(PFloat::from_double(kBinary64, 1.5));
  EXPECT_TRUE(v.is_pcs());
  EXPECT_FALSE(v.is_ieee());
  EXPECT_FALSE(v.is_fcs());
}

TEST(FmaUnit, ActivityRecorderReceivesToggles) {
  Rng rng(303);
  for (UnitKind kind : kAllUnitKinds) {
    ActivityRecorder rec;
    auto unit = make_fma_unit(kind, &rec);
    for (int i = 0; i < 16; ++i) {
      unit->fma_ieee(rand_op(rng), rand_op(rng), rand_op(rng),
                     Round::NearestEven);
    }
    EXPECT_GT(rec.total_toggles(), 0u) << to_string(kind);
  }
}

/// The recorder JSON after running `ops` through `kind`: through one unit
/// (batched or per operation), or through a fresh unit per operation,
/// whose probe handles all start unresolved, so that every observation
/// looks its probe up by name.
std::string activity_json(UnitKind kind, const std::vector<OperandTriple>& ops,
                          const char* mode) {
  ActivityRecorder rec;
  std::unique_ptr<FmaUnit> unit = make_fma_unit(kind, &rec);
  if (std::string(mode) == "batch") {
    std::vector<PFloat> out(ops.size());
    unit->fma_ieee_batch(ops.data(), ops.size(), out.data(), FmaBatchHooks{});
    return rec.to_json();
  }
  for (const OperandTriple& t : ops) {
    if (std::string(mode) == "fresh") unit = make_fma_unit(kind, &rec);
    unit->fma_ieee(t.a, t.b, t.c, Round::NearestEven);
  }
  return rec.to_json();
}

TEST(FmaUnit, ProbeHandlesMatchFreshLookups) {
  const auto d = [](double v) { return PFloat::from_double(kBinary64, v); };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Every product has a NaN, infinite or zero factor: no carry-save or
  // classic datapath stage is reached.
  std::vector<OperandTriple> special;
  for (double a : {nan, inf, -inf, 0.0, 1.5})
    for (double b : {nan, inf, 0.0, -0.0, 3.0})
      for (double c : {nan, -inf, 0.0}) special.push_back({d(a), d(b), d(c)});
  // The addend is far above the product: classic multiplies but never
  // reaches its adder or normalizer.
  std::vector<OperandTriple> far;
  for (int i = 0; i < 8; ++i)
    far.push_back({d(std::ldexp(1.0, 90 + i)), d(1.25 + i), d(-0.75 - i)});
  Rng rng(305);
  std::vector<OperandTriple> mixed = special;
  for (const OperandTriple& t : far) mixed.push_back(t);
  for (int i = 0; i < 64; ++i)
    mixed.push_back({rand_op(rng), rand_op(rng), rand_op(rng)});

  for (UnitKind kind : kAllUnitKinds) {
    for (const auto* ops : {&special, &far, &mixed}) {
      const std::string fresh = activity_json(kind, *ops, "fresh");
      EXPECT_EQ(activity_json(kind, *ops, "one"), fresh) << to_string(kind);
      EXPECT_EQ(activity_json(kind, *ops, "batch"), fresh) << to_string(kind);
    }
    if (kind != UnitKind::Discrete) {
      // Nothing reached, nothing recorded: not even zero-count probes.
      EXPECT_EQ(activity_json(kind, special, "one"), ActivityRecorder().to_json())
          << to_string(kind);
    }
  }
  ActivityRecorder rec;
  auto classic = make_fma_unit(UnitKind::Classic, &rec);
  for (const OperandTriple& t : far)
    classic->fma_ieee(t.a, t.b, t.c, Round::NearestEven);
  EXPECT_EQ(rec.probes().count("mul.sum"), 1u);
  EXPECT_EQ(rec.probes().count("add.sum"), 0u);
  EXPECT_EQ(rec.probes().count("norm"), 0u);
}

TEST(FmaUnit, NarrowBMatchesWidenedBinary64) {
  // B may be binary64 or narrower.  A narrower B must give exactly the
  // result of the same value widened to binary64, in both carry-save units
  // and through both batch backends: the unit's override (the sliced
  // kernel for PCS) and the base per-operation loop (the scalar backend).
  EXPECT_EQ(PcsFma()
                .fma_ieee(PFloat::zero(kBinary64, false),
                          PFloat::from_double(FloatFormat{8, 23}, 0.25),
                          PFloat::from_double(kBinary64, 1.0),
                          Round::NearestEven)
                .to_double(),
            0.25);
  Rng rng(304);
  for (const FloatFormat& fmt : {FloatFormat{8, 23}, FloatFormat{3, 2}}) {
    std::vector<OperandTriple> narrow(256), widened(256);
    for (std::size_t i = 0; i < narrow.size(); ++i) {
      narrow[i].a = rand_op(rng);
      narrow[i].c = rand_op(rng);
      // Every encoding of the 6-bit format (specials included); binary32
      // values from the test range.
      narrow[i].b =
          fmt.total_bits() == 6
              ? PFloat::from_bits(fmt, U128(rng.next_below(64)))
              : PFloat::from_double(fmt, rng.next_fp_in_exp_range(-8, 8));
      widened[i] = narrow[i];
      widened[i].b = narrow[i].b.round_to(kBinary64, Round::NearestEven);
    }
    for (UnitKind kind : {UnitKind::Pcs, UnitKind::Fcs}) {
      auto unit = make_fma_unit(kind);
      std::vector<PFloat> ref(narrow.size()), batch(narrow.size()),
          loop(narrow.size());
      FmaBatchHooks hooks;
      hooks.rm = Round::HalfAwayFromZero;
      unit->FmaUnit::fma_ieee_batch(widened.data(), widened.size(), ref.data(),
                                    hooks);
      unit->fma_ieee_batch(narrow.data(), narrow.size(), batch.data(), hooks);
      unit->FmaUnit::fma_ieee_batch(narrow.data(), narrow.size(), loop.data(),
                                    hooks);
      for (std::size_t i = 0; i < narrow.size(); ++i) {
        ASSERT_EQ(batch[i].to_bits(), ref[i].to_bits())
            << to_string(kind) << " batch, B=" << narrow[i].b.to_string();
        ASSERT_EQ(loop[i].to_bits(), ref[i].to_bits())
            << to_string(kind) << " loop, B=" << narrow[i].b.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace csfma
