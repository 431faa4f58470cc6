// Sensitivity of prep::StructuralKey, the content hash that keys
// PrepCache (and, through RisSketchKey, RisSketchCache): a change to any
// one structural input — an edge, a row boundary, an initial weighting, a
// base preference, a relevance score or a meta's relation kind — must
// re-key, and the inputs the artifacts are valid across (budget, T, cost,
// importance, perception params) must not.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "api/session.h"
#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "prep/prep.h"
#include "test_util.h"

namespace imdpp::prep {
namespace {

using EdgeList = std::vector<std::tuple<int, int, double>>;

constexpr int kUsers = 4;
constexpr int kItems = 3;

const EdgeList& BaseEdges() {
  static const EdgeList edges = {
      {0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 0.75}, {3, 0, 0.125}};
  return edges;
}

/// Distinct row-major kItems x kItems scores (zero diagonal).
std::vector<float> Scores(float scale) {
  std::vector<float> m(static_cast<size_t>(kItems) * kItems, 0.0f);
  for (int x = 0; x < kItems; ++x) {
    for (int y = 0; y < kItems; ++y) {
      if (x != y) m[static_cast<size_t>(x) * kItems + y] = scale * (x + 2 * y);
    }
  }
  return m;
}

/// Relevance with a complementary first meta and a second meta of
/// `last_kind`; `last` overrides the second matrix when non-empty.
std::unique_ptr<kg::RelevanceModel> Relevance(
    kg::RelationKind last_kind = kg::RelationKind::kSubstitutable,
    std::vector<float> last = {}) {
  if (last.empty()) last = Scores(0.0625f);
  std::vector<kg::MetaGraph> metas = {
      {"C", kg::RelationKind::kComplementary, {}},
      {"S", last_kind, {}},
  };
  return std::make_unique<kg::RelevanceModel>(kg::RelevanceModel::FromMatrices(
      kItems, std::move(metas), {Scores(0.125f), std::move(last)}));
}

testutil::TinyWorld World(const EdgeList& edges = BaseEdges(),
                          std::unique_ptr<kg::RelevanceModel> rel = nullptr) {
  testutil::TinyWorldSpec spec;
  spec.num_items = kItems;
  spec.base_pref = 0.5;
  spec.wmeta0 = 0.25;
  return testutil::MakeWorld(kUsers, edges, spec,
                             rel ? std::move(rel) : Relevance());
}

uint64_t BaseKey() {
  static const uint64_t key = [] {
    testutil::TinyWorld w = World();
    return StructuralKey(w.problem);
  }();
  return key;
}

TEST(StructuralKey, StableForEqualContent) {
  testutil::TinyWorld w = World();
  EXPECT_EQ(StructuralKey(w.problem), BaseKey());
  EXPECT_EQ(StructuralKey(w.problem), StructuralKey(w.problem));
}

TEST(StructuralKey, ChangesWithOneEdgeWeight) {
  EdgeList edges = BaseEdges();
  std::get<2>(edges[1]) = 0.3;
  testutil::TinyWorld w = World(edges);
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, ChangesWithOneEdgeTarget) {
  EdgeList edges = BaseEdges();
  std::get<1>(edges[1]) = 3;
  testutil::TinyWorld w = World(edges);
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, ChangesWhenAnEdgeMovesToAnotherRow) {
  // 0->1, 1->2 and 0->1, 0->2 share the flat edge array [(1,.5), (2,.25)];
  // only the row offsets tell them apart.
  testutil::TinyWorld a = World({{0, 1, 0.5}, {1, 2, 0.25}});
  testutil::TinyWorld b = World({{0, 1, 0.5}, {0, 2, 0.25}});
  std::span<const graph::Edge> ea = a.graph->AllOutEdges();
  std::span<const graph::Edge> eb = b.graph->AllOutEdges();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].to, eb[i].to);
    ASSERT_EQ(ea[i].weight, eb[i].weight);
  }
  ASSERT_FALSE(std::ranges::equal(a.graph->OutOffsets(),
                                  b.graph->OutOffsets()));
  EXPECT_NE(StructuralKey(a.problem), StructuralKey(b.problem));
}

TEST(StructuralKey, ChangesWithOneInitialWeighting) {
  testutil::TinyWorld w = World();
  w.problem.wmeta0[3] += 0.125f;
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, ChangesWithOneBasePreference) {
  testutil::TinyWorld w = World();
  w.problem.base_pref.back() += 0.125f;
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, ChangesWithOneScoreInTheLastRelevanceMatrix) {
  std::vector<float> last = Scores(0.0625f);
  last[static_cast<size_t>(kItems) * kItems - 2] += 0.125f;
  testutil::TinyWorld w =
      World(BaseEdges(),
            Relevance(kg::RelationKind::kSubstitutable, std::move(last)));
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, ChangesWithOneMetaKind) {
  testutil::TinyWorld w =
      World(BaseEdges(), Relevance(kg::RelationKind::kComplementary));
  EXPECT_NE(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, IgnoresBudgetHorizonCostImportanceAndParams) {
  testutil::TinyWorld w = World();
  w.problem.budget += 50.0;
  w.problem.num_promotions += 3;
  w.problem.cost[2] += 1.0f;
  w.problem.importance[1] += 1.0;
  // RelC/RelS at w̄0, the MIOA regions and the clusters never read the
  // perception params.
  w.problem.params = pin::PerceptionParams::StaticPerception();
  EXPECT_EQ(StructuralKey(w.problem), BaseKey());
}

TEST(StructuralKey, EqualForDatasetsBuiltIndependentlyFromOneSpec) {
  const data::DatasetSpec spec{"scale-512", 1.0, 3};
  const data::Dataset first = data::DatasetRegistry::MakeOrDie(spec);
  const data::Dataset second = data::DatasetRegistry::MakeOrDie(spec);
  const uint64_t key = StructuralKey(first.MakeProblem(100.0, 2));
  EXPECT_EQ(StructuralKey(second.MakeProblem(300.0, 5)), key);
  const data::Dataset reseeded =
      data::DatasetRegistry::MakeOrDie({"scale-512", 1.0, 4});
  EXPECT_NE(StructuralKey(reseeded.MakeProblem(100.0, 2)), key);
}

TEST(PrepCache, RebuildsAfterMutableProblemChangesABasePreference) {
  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.num_threads = 0;
  api::CampaignSession session(data::MakeSmallAmazonSample(), cfg);
  session.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  EXPECT_EQ(session.Run("dysim").prep_builds, 1);
  const api::PlanResult warm = session.Run("dysim");
  EXPECT_EQ(warm.prep_builds, 0);
  EXPECT_EQ(warm.prep_reuses, 1);

  float& pref = session.mutable_problem().base_pref[7];
  pref = pref > 0.5f ? pref - 0.25f : pref + 0.25f;
  const api::PlanResult rebuilt = session.Run("dysim");
  EXPECT_EQ(rebuilt.prep_builds, 1);
  EXPECT_EQ(rebuilt.prep_reuses, 0);
}

}  // namespace
}  // namespace imdpp::prep
