// Shared builders for hand-crafted tiny problems used across the suite.
#ifndef IMDPP_TESTS_TEST_UTIL_H_
#define IMDPP_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diffusion/problem.h"
#include "graph/graph_builder.h"
#include "kg/relevance.h"
#include "pin/perception_params.h"
#include "pin/personal_item_network.h"
#include "pin/user_state.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace imdpp::testutil {

/// Owns the graph/relevance a Problem points into.
struct TinyWorld {
  std::unique_ptr<graph::SocialGraph> graph;
  std::unique_ptr<kg::RelevanceModel> relevance;
  diffusion::Problem problem;
};

/// Relevance model with one complementary and one substitutable meta,
/// built from explicit row-major matrices (values in [0,1], zero diagonal).
inline std::unique_ptr<kg::RelevanceModel> MakeRelevance(
    int num_items, std::vector<float> comp, std::vector<float> sub) {
  // Aggregate-initialized (not assigned element-wise): gcc 12's inliner
  // raises a spurious -Wrestrict on literal-into-vector-element string
  // assignment.
  std::vector<kg::MetaGraph> metas = {
      {"C", kg::RelationKind::kComplementary, {}},
      {"S", kg::RelationKind::kSubstitutable, {}},
  };
  return std::make_unique<kg::RelevanceModel>(kg::RelevanceModel::FromMatrices(
      num_items, std::move(metas), {std::move(comp), std::move(sub)}));
}

/// Relevance model with one meta per entry of `kinds`, in that order, and
/// pseudo-random sparse scores: each off-diagonal score is 0 with
/// probability 0.6, else uniform in (0, 1]. Reproducible per seed.
inline kg::RelevanceModel MakeRandomRelevance(
    int num_items, const std::vector<kg::RelationKind>& kinds,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<kg::MetaGraph> metas;
  std::vector<std::vector<float>> matrices;
  for (kg::RelationKind kind : kinds) {
    metas.push_back({std::to_string(metas.size()), kind, {}});
    std::vector<float> mat(static_cast<size_t>(num_items) * num_items, 0.0f);
    for (int x = 0; x < num_items; ++x) {
      for (int y = 0; y < num_items; ++y) {
        if (x == y || !rng.NextBool(0.4)) continue;
        mat[static_cast<size_t>(x) * num_items + y] =
            static_cast<float>(1.0 - rng.NextUnit());
      }
    }
    matrices.push_back(std::move(mat));
  }
  return kg::RelevanceModel::FromMatrices(num_items, std::move(metas),
                                          std::move(matrices));
}

/// All-zero relevance (items unrelated).
inline std::unique_ptr<kg::RelevanceModel> MakeZeroRelevance(int num_items) {
  std::vector<float> z(static_cast<size_t>(num_items) * num_items, 0.0f);
  return MakeRelevance(num_items, z, z);
}

/// Scalar oracle for factor (4), item associations (Sec. V-A): the
/// probability that u, promoted x over an edge of dynamic strength `pact`
/// with preference `ppref_x` for x, also adopts y:
///   Pext = clip01(assoc_scale * pact * ppref_x * max(0, r^C - r^S)).
/// Complementary relevance drives extra adoptions, substitutable relevance
/// suppresses them, and an item u already adopted is never triggered. The
/// simulator's pair-major kernel evaluates the same products in the same
/// left-to-right order.
inline double ExtraProb(const pin::PersonalItemNetwork& pin,
                        const pin::UserState& state, double pact,
                        double ppref_x, kg::ItemId x, kg::ItemId y) {
  const pin::PerceptionParams& params = pin.params();
  if (params.assoc_scale <= 0.0) return 0.0;
  if (state.Has(y)) return 0.0;
  const double net = pin.RelNet(state.wmeta(), x, y);
  if (net <= 0.0) return 0.0;
  return Clip01(params.assoc_scale * pact * ppref_x * net);
}

struct TinyWorldSpec {
  int num_items = 1;
  double base_pref = 1.0;
  double cost = 1.0;
  double budget = 100.0;
  int num_promotions = 1;
  double wmeta0 = 1.0;
  pin::PerceptionParams params = pin::PerceptionParams::FrozenDynamics();
};

/// Directed edge list (from, to, weight) -> full TinyWorld. All users share
/// the same base preference / cost for every item; importance is 1.
inline TinyWorld MakeWorld(
    int num_users,
    const std::vector<std::tuple<int, int, double>>& edges,
    const TinyWorldSpec& spec = {},
    std::unique_ptr<kg::RelevanceModel> relevance = nullptr) {
  TinyWorld w;
  graph::GraphBuilder b(num_users);
  for (const auto& [from, to, weight] : edges) b.AddEdge(from, to, weight);
  w.graph = std::make_unique<graph::SocialGraph>(b.Build());
  w.relevance = relevance ? std::move(relevance)
                          : MakeZeroRelevance(spec.num_items);

  diffusion::Problem& p = w.problem;
  p.graph = w.graph.get();
  p.relevance = w.relevance.get();
  p.params = spec.params;
  p.importance.assign(spec.num_items, 1.0);
  p.base_pref.assign(static_cast<size_t>(num_users) * spec.num_items,
                     static_cast<float>(spec.base_pref));
  p.cost.assign(static_cast<size_t>(num_users) * spec.num_items,
                static_cast<float>(spec.cost));
  p.wmeta0.assign(
      static_cast<size_t>(num_users) * w.relevance->NumMetas(),
      static_cast<float>(spec.wmeta0));
  p.budget = spec.budget;
  p.num_promotions = spec.num_promotions;
  return w;
}

/// 8 users, 6 items, four metas ordered [S, C, S, C], dynamics on. Most
/// related pairs are substitutable; some are complementary only, some
/// both; pairs (0,1), (2,3), (4,5) score 0.9 on both C metas, so their r^C
/// saturates past 1.
inline TinyWorld SubstituteHeavyToy() {
  constexpr int kItems = 6;
  std::vector<std::vector<float>> mats(4,
                                       std::vector<float>(kItems * kItems));
  for (int x = 0; x < kItems; ++x) {
    for (int y = 0; y < kItems; ++y) {
      if (x == y) continue;
      float* s0 = &mats[0][x * kItems + y];
      float* c1 = &mats[1][x * kItems + y];
      float* s2 = &mats[2][x * kItems + y];
      float* c3 = &mats[3][x * kItems + y];
      if ((x + y) % 2 == 1) *s0 = 0.3f + 0.1f * static_cast<float>(x * y % 4);
      if ((x / 2) == (y / 2)) *c1 = 0.9f;
      if (y - x == 2 || x - y == 3) *s2 = 0.5f;
      if ((x + 1) % kItems == y) *c3 = 0.9f;
    }
  }
  std::vector<kg::MetaGraph> metas = {
      {"S0", kg::RelationKind::kSubstitutable, {}},
      {"C1", kg::RelationKind::kComplementary, {}},
      {"S2", kg::RelationKind::kSubstitutable, {}},
      {"C3", kg::RelationKind::kComplementary, {}},
  };
  TinyWorldSpec spec;
  spec.num_items = kItems;
  spec.num_promotions = 3;
  spec.base_pref = 0.5;
  spec.wmeta0 = 0.6;
  spec.params = pin::PerceptionParams();
  spec.params.assoc_scale = 0.9;
  TinyWorld w = MakeWorld(
      8,
      {{0, 1, 0.7}, {1, 2, 0.6}, {2, 3, 0.8}, {3, 4, 0.5}, {4, 5, 0.9},
       {5, 6, 0.6}, {6, 7, 0.7}, {7, 0, 0.8}, {0, 4, 0.5}, {2, 6, 0.6},
       {5, 1, 0.7}, {3, 7, 0.4}, {1, 3, 0.6}, {6, 2, 0.5}},
      spec,
      std::make_unique<kg::RelevanceModel>(kg::RelevanceModel::FromMatrices(
          kItems, std::move(metas), std::move(mats))));
  // Distinct importances, so sigma also records which items were adopted.
  w.problem.importance = {1.0, 1.5, 2.25, 0.75, 3.0, 1.25};
  return w;
}

}  // namespace imdpp::testutil

#endif  // IMDPP_TESTS_TEST_UTIL_H_
