#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/catalog.h"
#include "pin/dynamics.h"
#include "tests/test_util.h"

namespace imdpp::pin {
namespace {

/// 3 items: 0-1 complementary (0.6), 0-2 substitutable (0.5).
std::unique_ptr<kg::RelevanceModel> ThreeItemRel() {
  std::vector<float> c{0, 0.6f, 0,  //
                       0.6f, 0, 0,  //
                       0, 0, 0};
  std::vector<float> s{0, 0, 0.5f,  //
                       0, 0, 0,     //
                       0.5f, 0, 0};
  return testutil::MakeRelevance(3, c, s);
}

TEST(UserState, AddHasAdopted) {
  UserState st(70, {1.0f});
  EXPECT_FALSE(st.Has(0));
  EXPECT_TRUE(st.Add(0));
  EXPECT_FALSE(st.Add(0));  // idempotent
  EXPECT_TRUE(st.Has(0));
  EXPECT_TRUE(st.Add(69));  // second bitset word
  EXPECT_TRUE(st.Has(69));
  ASSERT_EQ(st.Adopted().size(), 2u);
  EXPECT_EQ(st.Adopted()[0], 0);
  EXPECT_EQ(st.Adopted()[1], 69);
}

TEST(UserState, AdoptedStaysSorted) {
  UserState st(10, {});
  st.Add(5);
  st.Add(1);
  st.Add(9);
  EXPECT_EQ(st.Adopted(), (std::vector<kg::ItemId>{1, 5, 9}));
}

TEST(PersonalItemNetwork, WeightedRelevance) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  std::vector<float> w{0.5f, 1.0f};  // wmeta for [C, S]
  EXPECT_NEAR(pin.RelC(w, 0, 1), 0.3, 1e-6);   // 0.5 * 0.6
  EXPECT_NEAR(pin.RelS(w, 0, 2), 0.5, 1e-6);   // 1.0 * 0.5
  EXPECT_NEAR(pin.RelNet(w, 0, 2), -0.5, 1e-6);
  EXPECT_DOUBLE_EQ(pin.RelC(w, 0, 0), 0.0);  // self-relevance is zero
}

TEST(PersonalItemNetwork, RelevanceClippedTo1) {
  std::vector<float> c{0, 0.9f, 0.9f, 0};
  std::vector<float> s(4, 0.0f);
  auto rel = testutil::MakeRelevance(2, c, s);
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  std::vector<float> w{2.0f, 0.0f};  // weights beyond 1 still clip result
  EXPECT_DOUBLE_EQ(pin.RelC(w, 0, 1), 1.0);
}

TEST(PersonalItemNetwork, UpdateWeightsGrowsOnEvidence) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.meta_learning_rate = 0.5;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.2f, 0.2f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{1};
  pin.UpdateWeights(st, newly);
  // Complementary meta saw evidence s(0,1)=0.6: w += 0.5*0.6*(1-0.2).
  EXPECT_NEAR(st.wmeta()[0], 0.2 + 0.5 * 0.6 * 0.8, 1e-5);
  // Substitutable meta saw s(0,1)=0 evidence: unchanged.
  EXPECT_NEAR(st.wmeta()[1], 0.2, 1e-6);
}

TEST(PersonalItemNetwork, FirstAdoptionLearnsFromPairsWithin) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.meta_learning_rate = 1.0;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.0f, 0.0f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{0, 1};  // both new (e.g. a seeded bundle)
  pin.UpdateWeights(st, newly);
  EXPECT_NEAR(st.wmeta()[0], 0.6, 1e-5);  // evidence = s(0,1|C) = 0.6
}

TEST(PersonalItemNetwork, SingleFirstAdoptionNoUpdate) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.3f, 0.3f});
  st.Add(0);
  std::vector<kg::ItemId> newly{0};
  pin.UpdateWeights(st, newly);
  EXPECT_FLOAT_EQ(st.wmeta()[0], 0.3f);
}

TEST(PersonalItemNetwork, ZeroLearningRateFreezes) {
  auto rel = ThreeItemRel();
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {0.3f, 0.3f});
  st.Add(0);
  st.Add(1);
  std::vector<kg::ItemId> newly{1};
  pin.UpdateWeights(st, newly);
  EXPECT_FLOAT_EQ(st.wmeta()[0], 0.3f);
}

TEST(PreferenceModel, ComplementBoostsSubstitutePenalizes) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.pref_gain = 1.0;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  // Item 1 is complementary to adopted 0: base 0.2 + 0.6 = 0.8.
  EXPECT_NEAR(pref.Eval(st, 0.2, 1), 0.8, 1e-6);
  // Item 2 is substitutable to adopted 0: base 0.6 - 0.5 = 0.1.
  EXPECT_NEAR(pref.Eval(st, 0.6, 2), 0.1, 1e-6);
}

TEST(PreferenceModel, AdoptedItemHasZeroPreference) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(1);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.9, 1), 0.0);
}

TEST(PreferenceModel, FrozenGainReturnsBase) {
  auto rel = ThreeItemRel();
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.42, 1), 0.42);
}

TEST(PreferenceModel, ClipsToUnitInterval) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.pref_gain = 5.0;
  PersonalItemNetwork pin(*rel, params);
  PreferenceModel pref(pin);
  UserState st(3, {1.0f, 1.0f});
  st.Add(0);
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.5, 1), 1.0);  // boosted beyond 1
  EXPECT_DOUBLE_EQ(pref.Eval(st, 0.1, 2), 0.0);  // penalized below 0
}

TEST(InfluenceModel, SimilarityGrowsWithSharedAdoptions) {
  PerceptionParams params;
  InfluenceModel inf(params);
  UserState a(4, {0.5f}), b(4, {0.5f});
  double sim0 = inf.Similarity(a, b);
  a.Add(0);
  b.Add(0);
  double sim1 = inf.Similarity(a, b);
  EXPECT_GT(sim1, sim0);
}

TEST(InfluenceModel, EvalScalesBaseWeight) {
  PerceptionParams params;
  params.act_gain = 1.0;
  params.sim_adoption_weight = 1.0;  // pure Jaccard
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  // Jaccard = 1 -> strength doubles.
  EXPECT_NEAR(inf.Eval(0.3, a, b), 0.6, 1e-9);
}

TEST(InfluenceModel, CapEnforced) {
  PerceptionParams params;
  params.act_gain = 10.0;
  params.sim_adoption_weight = 1.0;
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  EXPECT_DOUBLE_EQ(inf.Eval(0.5, a, b), params.act_cap);
}

TEST(InfluenceModel, FrozenGainReturnsBase) {
  PerceptionParams params = PerceptionParams::FrozenDynamics();
  InfluenceModel inf(params);
  UserState a(4, {}), b(4, {});
  a.Add(0);
  b.Add(0);
  EXPECT_DOUBLE_EQ(inf.Eval(0.37, a, b), 0.37);
}

TEST(AssociationModel, ComplementTriggersSubstituteSuppresses) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  params.assoc_scale = 1.0;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {1.0f, 1.0f});
  // Promoted item 0 with pact=0.5, pref=0.8: y=1 complementary (net 0.6).
  EXPECT_NEAR(testutil::ExtraProb(pin, st, 0.5, 0.8, 0, 1), 0.5 * 0.8 * 0.6,
              1e-6);
  // y=2 substitutable (net -0.5): no extra adoption.
  EXPECT_DOUBLE_EQ(testutil::ExtraProb(pin, st, 0.5, 0.8, 0, 2), 0.0);
}

TEST(AssociationModel, AdoptedTargetExcluded) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  UserState st(3, {1.0f, 1.0f});
  st.Add(1);
  EXPECT_DOUBLE_EQ(testutil::ExtraProb(pin, st, 0.5, 0.8, 0, 1), 0.0);
}

TEST(Dynamics, BundlesAllModels) {
  auto rel = ThreeItemRel();
  PerceptionParams params;
  Dynamics dyn(*rel, params);
  EXPECT_EQ(&dyn.relevance(), rel.get());
  EXPECT_EQ(dyn.params().act_cap, params.act_cap);
}

// --- RelNetRow: the pair-major kernel's net relevance ----------------------

/// Weightings that exercise every branch of RelNet: all zero, all one,
/// weights of 2 (complementary and substitutable sums saturate past 1), and
/// random ones with roughly a quarter of the entries zeroed.
std::vector<std::vector<float>> TestWeightings(int metas, uint64_t seed) {
  std::vector<std::vector<float>> ws = {
      std::vector<float>(metas, 0.0f), std::vector<float>(metas, 1.0f),
      std::vector<float>(metas, 2.0f)};
  Rng rng(seed);
  for (int k = 0; k < 24; ++k) {
    std::vector<float> w(metas);
    for (float& v : w) {
      v = rng.NextBool(0.25) ? 0.0f : static_cast<float>(rng.NextUnit());
    }
    ws.push_back(std::move(w));
  }
  return ws;
}

/// RelNetRow == RelNet bit for bit: over every stored row pair (the
/// scores the simulator streams) and over every ordered pair x != y with
/// its scores gathered in RowMetaOrder() (which covers pairs the rows
/// leave out, e.g. every pair of an all-substitutable model). Returns how
/// many evaluations saturated r^C at 1.
int ExpectRelNetRowMatches(const kg::RelevanceModel& model) {
  PerceptionParams params;
  PersonalItemNetwork pin(model, params);
  const int metas = model.NumMetas();
  const std::span<const int> order = model.RowMetaOrder();
  int saturated = 0;
  for (const std::vector<float>& w : TestWeightings(metas, 5)) {
    for (kg::ItemId x = 0; x < model.NumItems(); ++x) {
      const kg::RelevanceModel::AssociationRow row = model.AssocRow(x);
      for (size_t i = 0; i < row.items.size(); ++i) {
        const double got =
            pin.RelNetRow(w, row.scores.subspan(i * metas, metas));
        const double want = pin.RelNet(w, x, row.items[i]);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "x=" << x << " y=" << row.items[i] << ": " << got
            << " vs " << want;
      }
      std::vector<float> scores(metas);
      for (kg::ItemId y = 0; y < model.NumItems(); ++y) {
        if (y == x) continue;
        for (int j = 0; j < metas; ++j) scores[j] = model.Score(order[j], x, y);
        const double got = pin.RelNetRow(w, scores);
        const double want = pin.RelNet(w, x, y);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "x=" << x << " y=" << y << ": " << got << " vs " << want;
        saturated += pin.RelC(w, x, y) == 1.0;
      }
    }
  }
  return saturated;
}

constexpr kg::RelationKind kC = kg::RelationKind::kComplementary;
constexpr kg::RelationKind kS = kg::RelationKind::kSubstitutable;

TEST(PersonalItemNetwork, RelNetRowMatchesRelNetFromMatrices) {
  const kg::RelevanceModel model =
      testutil::MakeRandomRelevance(12, {kS, kC, kS, kC, kC}, /*seed=*/3);
  EXPECT_GT(ExpectRelNetRowMatches(model), 0);
  EXPECT_GT(ExpectRelNetRowMatches(*ThreeItemRel()), 0);
}

TEST(PersonalItemNetwork, RelNetRowMatchesRelNetOnRestrictedModels) {
  const kg::RelevanceModel model =
      testutil::MakeRandomRelevance(10, {kC, kS, kS, kC, kS, kC}, /*seed=*/9);
  for (int k = 1; k <= model.NumMetas(); ++k) {
    SCOPED_TRACE(k);
    ExpectRelNetRowMatches(model.WithFirstMetas(k));
  }
  ExpectRelNetRowMatches(model.WithMetaSubset({4, 5, 1, 0}));  // reordered
  EXPECT_GT(ExpectRelNetRowMatches(model.WithMetaSubset({5, 0, 3})), 0);
  EXPECT_EQ(ExpectRelNetRowMatches(model.WithMetaSubset({2, 4, 1})), 0);
}

TEST(PersonalItemNetwork, RelNetRowMatchesRelNetFromKg) {
  const data::Dataset ds = data::MakeFig1Toy();
  ExpectRelNetRowMatches(*ds.relevance);
}

/// The simulator's coin-first rejection bound: for every stored row pair,
/// every test weighting and pulls on both sides of saturation,
/// Clip01(pull * RelNetRow) <= Clip01(pull * RelNetRowBound), compared as
/// exact doubles (not within a tolerance: a coin can land between two
/// adjacent doubles). Counts (saturated, unsaturated) bounds into `seen`.
void ExpectRowBoundHolds(const kg::RelevanceModel& model,
                         std::pair<int, int>& seen) {
  PerceptionParams params;
  PersonalItemNetwork pin(model, params);
  const int metas = model.NumMetas();
  std::vector<double> pulls = {1e-9, 0.05, 0.37, 0.5, 1.0, 1.5, 3.0, 40.0};
  Rng rng(17);
  for (int k = 0; k < 8; ++k) pulls.push_back(4.0 * rng.NextUnit());
  for (const std::vector<float>& w : TestWeightings(metas, 21)) {
    for (kg::ItemId x = 0; x < model.NumItems(); ++x) {
      const kg::RelevanceModel::AssociationRow row = model.AssocRow(x);
      const double bound = pin.RelNetRowBound(w, x);
      for (double pull : pulls) {
        const double pe_ub = Clip01(pull * bound);
        ++(pe_ub == 1.0 ? seen.first : seen.second);
        for (size_t i = 0; i < row.items.size(); ++i) {
          const double pe = Clip01(
              pull * pin.RelNetRow(w, row.scores.subspan(i * metas, metas)));
          EXPECT_LE(pe, pe_ub) << "x=" << x << " y=" << row.items[i]
                               << " pull=" << pull;
        }
      }
    }
  }
}

TEST(PersonalItemNetwork, RelNetRowBoundCoversEveryRowPair) {
  std::pair<int, int> seen{0, 0};
  const kg::RelevanceModel model =
      testutil::MakeRandomRelevance(12, {kS, kC, kS, kC, kC}, /*seed=*/3);
  ExpectRowBoundHolds(model, seen);
  for (int k = 1; k <= model.NumMetas(); ++k) {
    SCOPED_TRACE(k);
    ExpectRowBoundHolds(model.WithFirstMetas(k), seen);
  }
  ExpectRowBoundHolds(model.WithMetaSubset({4, 1, 0, 3}), seen);
  ExpectRowBoundHolds(*ThreeItemRel(), seen);
  ExpectRowBoundHolds(*data::MakeFig1Toy().relevance, seen);
  EXPECT_GT(seen.first, 0);   // pe_ub clipped to 1
  EXPECT_GT(seen.second, 0);  // pe_ub below 1
}

TEST(PersonalItemNetwork, RelNetRowBoundIsTightOnSinglePairRows) {
  // A row with one pair: its maximum is its own score, so with no
  // substitutable mass the bound equals the clipped r^C exactly.
  auto rel = ThreeItemRel();  // row 0 = {1}, row 1 = {0}
  PerceptionParams params;
  PersonalItemNetwork pin(*rel, params);
  const std::vector<float> w = {0.8f, 0.3f};
  EXPECT_EQ(pin.RelNetRowBound(w, 0), pin.RelC(w, 0, 1));
  EXPECT_EQ(pin.RelNetRowBound(w, 1), pin.RelNet(w, 1, 0));
  EXPECT_EQ(pin.RelNetRowBound(w, 2), 0.0);  // empty row
}

}  // namespace
}  // namespace imdpp::pin
