#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "data/catalog.h"
#include "kg/knowledge_graph.h"
#include "kg/meta_graph.h"
#include "kg/meta_graph_matcher.h"
#include "kg/relevance.h"
#include "tests/test_util.h"

namespace imdpp::kg {
namespace {

TEST(TypeRegistry, InternAndFind) {
  TypeRegistry reg;
  int16_t a = reg.Intern("ITEM");
  int16_t b = reg.Intern("FEATURE");
  EXPECT_EQ(reg.Intern("ITEM"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.Find("FEATURE"), b);
  EXPECT_EQ(reg.Find("MISSING"), -1);
  EXPECT_EQ(reg.Name(a), "ITEM");
  EXPECT_EQ(reg.Size(), 2);
}

TEST(KnowledgeGraph, ItemsGetDenseIds) {
  KnowledgeGraph g("ITEM");
  KgNodeId i0 = g.AddNode("ITEM", "a");
  KgNodeId f = g.AddNode("FEATURE", "blue");
  KgNodeId i1 = g.AddNode("ITEM", "b");
  EXPECT_EQ(g.NumItems(), 2);
  EXPECT_EQ(g.ItemOf(i0), 0);
  EXPECT_EQ(g.ItemOf(i1), 1);
  EXPECT_EQ(g.ItemOf(f), -1);
  EXPECT_EQ(g.ItemNode(1), i1);
  EXPECT_EQ(g.ItemLabel(0), "a");
}

TEST(KnowledgeGraph, EdgesStoredBothDirections) {
  KnowledgeGraph g("ITEM");
  KgNodeId a = g.AddNode("ITEM");
  KgNodeId f = g.AddNode("FEATURE");
  g.AddEdge(a, f, "SUPPORTS");
  ASSERT_EQ(g.EdgesOf(a).size(), 1u);
  ASSERT_EQ(g.EdgesOf(f).size(), 1u);
  EXPECT_TRUE(g.EdgesOf(a)[0].forward);
  EXPECT_FALSE(g.EdgesOf(f)[0].forward);
  EXPECT_EQ(g.NumEdges(), 1);
}

/// KG of Fig. 1(a): iPhone & AirPods support Bluetooth; iPhone & charger
/// support Qi; iPhone & AirPods are Apple-branded.
class Fig1Kg : public ::testing::Test {
 protected:
  void SetUp() override {
    iphone_ = g_.AddNode("ITEM", "iPhone");
    airpods_ = g_.AddNode("ITEM", "AirPods");
    charger_ = g_.AddNode("ITEM", "Charger");
    cable_ = g_.AddNode("ITEM", "Cable");
    KgNodeId bt = g_.AddNode("FEATURE", "Bluetooth");
    KgNodeId qi = g_.AddNode("FEATURE", "Qi");
    KgNodeId apple = g_.AddNode("BRAND", "Apple");
    g_.AddEdge(iphone_, bt, "SUPPORTS");
    g_.AddEdge(airpods_, bt, "SUPPORTS");
    g_.AddEdge(iphone_, qi, "SUPPORTS");
    g_.AddEdge(charger_, qi, "SUPPORTS");
    g_.AddEdge(iphone_, apple, "HAS_BRAND");
    g_.AddEdge(airpods_, apple, "HAS_BRAND");
  }
  KnowledgeGraph g_{"ITEM"};
  KgNodeId iphone_, airpods_, charger_, cable_;
};

TEST_F(Fig1Kg, SharedNeighborCounts) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  // iPhone & AirPods share exactly one feature (Bluetooth).
  EXPECT_EQ(matcher.CountInstances(m1, 0, 1), 1);
  // iPhone & Charger share Qi.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 2), 1);
  // AirPods & Charger share nothing.
  EXPECT_EQ(matcher.CountInstances(m1, 1, 2), 0);
  // Cable supports nothing.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 3), 0);
  // Diagonal is zero by definition.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 0), 0);
}

TEST_F(Fig1Kg, ConjunctionMetaRequiresAllLegs) {
  MetaGraph feat = SharedNeighborMeta(g_, "f", RelationKind::kComplementary,
                                      "SUPPORTS", "FEATURE");
  MetaGraph brand = SharedNeighborMeta(g_, "b", RelationKind::kComplementary,
                                       "HAS_BRAND", "BRAND");
  MetaGraph m3 =
      ConjunctionMeta("m3", RelationKind::kComplementary, {feat, brand});
  MetaGraphMatcher matcher(g_);
  // iPhone & AirPods: shared feature AND shared brand -> 1 joint instance.
  EXPECT_EQ(matcher.CountInstances(m3, 0, 1), 1);
  // iPhone & Charger: shared feature but no shared brand -> 0.
  EXPECT_EQ(matcher.CountInstances(m3, 0, 2), 0);
}

TEST_F(Fig1Kg, DirectEdgeMeta) {
  g_.AddEdge(iphone_, airpods_, "ALSO_BOUGHT");
  MetaGraph m = DirectEdgeMeta(g_, "ab", RelationKind::kComplementary,
                               "ALSO_BOUGHT");
  MetaGraphMatcher matcher(g_);
  EXPECT_EQ(matcher.CountInstances(m, 0, 1), 1);
  // Direction matters for direct edges.
  EXPECT_EQ(matcher.CountInstances(m, 1, 0), 0);
}

TEST_F(Fig1Kg, MultiEdgesCountAsMultipleInstances) {
  // A second shared feature doubles the count.
  KgNodeId nfc = g_.AddNode("FEATURE", "NFC");
  g_.AddEdge(iphone_, nfc, "SUPPORTS");
  g_.AddEdge(airpods_, nfc, "SUPPORTS");
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  EXPECT_EQ(matcher.CountInstances(m1, 0, 1), 2);
}

TEST_F(Fig1Kg, AllPairsMatchesSingle) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  std::vector<int64_t> all = matcher.CountAllPairs(m1);
  const int n = g_.NumItems();
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y = 0; y < n; ++y) {
      EXPECT_EQ(all[static_cast<size_t>(x) * n + y],
                matcher.CountInstances(m1, x, y))
          << x << "," << y;
    }
  }
}

TEST_F(Fig1Kg, RelevanceSaturation) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  RelevanceModel model = RelevanceModel::FromKg(g_, {m1}, /*kappa=*/2.0);
  // count 1 -> 1/3; count 0 -> 0.
  EXPECT_NEAR(model.Score(0, 0, 1), 1.0 / 3.0, 1e-6);
  EXPECT_FLOAT_EQ(model.Score(0, 1, 2), 0.0f);
  EXPECT_EQ(model.NumMetas(), 1);
  EXPECT_EQ(model.NumItems(), 4);
}

TEST_F(Fig1Kg, RelatedItemsSparse) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  RelevanceModel model = RelevanceModel::FromKg(g_, {m1}, 2.0);
  // iPhone relates to AirPods and Charger, not Cable.
  const std::vector<ItemId>& rel = model.RelatedItems(0);
  EXPECT_EQ(rel.size(), 2u);
  // Cable relates to nothing.
  EXPECT_TRUE(model.RelatedItems(3).empty());
}

TEST(RelevanceModel, FromMatricesAndSubset) {
  std::vector<MetaGraph> metas(2);
  metas[0].kind = RelationKind::kComplementary;
  metas[0].name = "c";
  metas[1].kind = RelationKind::kSubstitutable;
  metas[1].name = "s";
  std::vector<float> c{0, 0.5f, 0.5f, 0};
  std::vector<float> s{0, 0.2f, 0.2f, 0};
  RelevanceModel model = RelevanceModel::FromMatrices(2, metas, {c, s});
  EXPECT_FLOAT_EQ(model.Score(0, 0, 1), 0.5f);
  EXPECT_FLOAT_EQ(model.Score(1, 0, 1), 0.2f);

  RelevanceModel first = model.WithFirstMetas(1);
  EXPECT_EQ(first.NumMetas(), 1);
  EXPECT_EQ(first.KindOf(0), RelationKind::kComplementary);

  RelevanceModel sub = model.WithMetaSubset({1});
  EXPECT_EQ(sub.NumMetas(), 1);
  EXPECT_EQ(sub.KindOf(0), RelationKind::kSubstitutable);
  EXPECT_FLOAT_EQ(sub.Score(0, 0, 1), 0.2f);
}

TEST(Fig1Toy, CatalogToyHasExpectedRelevance) {
  data::Dataset ds = data::MakeFig1Toy();
  EXPECT_EQ(ds.NumItems(), 4);
  EXPECT_EQ(ds.NumUsers(), 3);
  // m1 (shared feature): iPhone-AirPods share Bluetooth -> positive score.
  EXPECT_GT(ds.relevance->Score(0, 0, 1), 0.0f);
  // iPhone-Charger share Qi.
  EXPECT_GT(ds.relevance->Score(0, 0, 2), 0.0f);
  // Substitutable meta (shared category): charger vs cable.
  int sub_meta = -1;
  for (int m = 0; m < ds.relevance->NumMetas(); ++m) {
    if (ds.relevance->KindOf(m) == RelationKind::kSubstitutable) sub_meta = m;
  }
  ASSERT_GE(sub_meta, 0);
  EXPECT_GT(ds.relevance->Score(sub_meta, 2, 3), 0.0f);
  EXPECT_FLOAT_EQ(ds.relevance->Score(sub_meta, 0, 1), 0.0f);
}

// --- Association rows -----------------------------------------------------

bool HasComplementaryScore(const RelevanceModel& model, ItemId x, ItemId y) {
  for (int m = 0; m < model.NumMetas(); ++m) {
    if (model.KindOf(m) == RelationKind::kComplementary &&
        model.Score(m, x, y) > 0.0f) {
      return true;
    }
  }
  return false;
}

/// The row contract: RowMetaOrder() lists the complementary metas then the
/// substitutable ones, each ascending; AssocRow(x) is RelatedItems(x)
/// filtered to pairs with a complementary score > 0, each pair carrying
/// its scores in RowMetaOrder(); RowComplementaryMax(x) holds each
/// complementary slot's maximum over those pairs (0 for an empty row).
/// Returns the number of related pairs the filter dropped.
int ExpectRowsMatchMatrices(const RelevanceModel& model) {
  const int metas = model.NumMetas();
  std::vector<int> want_order;
  for (RelationKind kind :
       {RelationKind::kComplementary, RelationKind::kSubstitutable}) {
    for (int m = 0; m < metas; ++m) {
      if (model.KindOf(m) == kind) want_order.push_back(m);
    }
  }
  const std::span<const int> order = model.RowMetaOrder();
  EXPECT_EQ(std::vector<int>(order.begin(), order.end()), want_order);
  int num_c = 0;
  for (int m = 0; m < metas; ++m) {
    num_c += model.KindOf(m) == RelationKind::kComplementary;
  }
  EXPECT_EQ(model.NumComplementaryMetas(), num_c);

  int dropped = 0;
  for (ItemId x = 0; x < model.NumItems(); ++x) {
    std::vector<ItemId> want;
    for (ItemId y : model.RelatedItems(x)) {
      if (HasComplementaryScore(model, x, y)) {
        want.push_back(y);
      } else {
        ++dropped;
      }
    }
    const RelevanceModel::AssociationRow row = model.AssocRow(x);
    EXPECT_EQ(std::vector<ItemId>(row.items.begin(), row.items.end()), want)
        << "x=" << x;
    if (row.scores.size() != want.size() * static_cast<size_t>(metas)) {
      ADD_FAILURE() << "x=" << x << ": " << row.scores.size() << " scores";
      continue;
    }
    std::vector<float> want_max(static_cast<size_t>(num_c), 0.0f);
    for (size_t i = 0; i < want.size(); ++i) {
      for (int j = 0; j < metas; ++j) {
        EXPECT_EQ(row.scores[i * metas + j],
                  model.Score(order[j], x, want[i]))
            << "x=" << x << " y=" << want[i] << " slot " << j;
      }
      for (int j = 0; j < num_c; ++j) {
        want_max[j] = std::max(want_max[j], model.Score(order[j], x, want[i]));
      }
    }
    const std::span<const float> got_max = model.RowComplementaryMax(x);
    EXPECT_EQ(std::vector<float>(got_max.begin(), got_max.end()), want_max)
        << "x=" << x;
  }
  return dropped;
}

constexpr RelationKind kC = RelationKind::kComplementary;
constexpr RelationKind kS = RelationKind::kSubstitutable;

TEST(RelevanceRows, FromMatricesMixedKindOrder) {
  const RelevanceModel model =
      testutil::MakeRandomRelevance(12, {kS, kC, kS, kC, kC}, /*seed=*/7);
  EXPECT_EQ(model.NumComplementaryMetas(), 3);
  // Substitute-only pairs exist and are dropped.
  EXPECT_GT(ExpectRowsMatchMatrices(model), 0);
  size_t pairs = 0;
  for (ItemId x = 0; x < model.NumItems(); ++x) {
    pairs += model.AssocRow(x).items.size();
  }
  EXPECT_GT(pairs, 0u);
}

TEST(RelevanceRows, FirstMetasAndSubsets) {
  const RelevanceModel model =
      testutil::MakeRandomRelevance(10, {kS, kC, kS, kC, kC}, /*seed=*/11);
  for (int k = 1; k <= model.NumMetas(); ++k) {
    SCOPED_TRACE(k);
    ExpectRowsMatchMatrices(model.WithFirstMetas(k));
  }
  // Reordered subset: its own meta indices, not the parent's.
  const RelevanceModel reordered = model.WithMetaSubset({4, 0, 3, 2});
  ExpectRowsMatchMatrices(reordered);
  EXPECT_EQ(std::vector<int>(reordered.RowMetaOrder().begin(),
                             reordered.RowMetaOrder().end()),
            (std::vector<int>{0, 2, 1, 3}));

  // All complementary: every related pair gets a row entry.
  const RelevanceModel all_c = model.WithMetaSubset({3, 1, 4});
  EXPECT_EQ(ExpectRowsMatchMatrices(all_c), 0);
  EXPECT_EQ(all_c.NumComplementaryMetas(), 3);

  // All substitutable: no pair can trigger an extra adoption.
  const RelevanceModel all_s = model.WithMetaSubset({2, 0});
  EXPECT_GT(ExpectRowsMatchMatrices(all_s), 0);
  EXPECT_EQ(all_s.NumComplementaryMetas(), 0);
  for (ItemId x = 0; x < all_s.NumItems(); ++x) {
    EXPECT_TRUE(all_s.AssocRow(x).items.empty());
    EXPECT_TRUE(all_s.RowComplementaryMax(x).empty());
  }
}

TEST(RelevanceRows, ComplementaryMaxIsPerSlotRowMaximum) {
  // Metas [S, C, C] over 3 items; row 0 has pairs (0,1) and (0,2), row 1
  // only substitutable scores (an empty row), row 2 the single pair (2,0).
  std::vector<MetaGraph> metas = {{"S", kS, {}}, {"C1", kC, {}}, {"C2", kC, {}}};
  const RelevanceModel model = RelevanceModel::FromMatrices(
      3, std::move(metas),
      {{0, 0.9f, 0.8f, 0.7f, 0, 0.6f, 0.5f, 0, 0},
       {0, 0.25f, 0.5f, 0, 0, 0, 0.125f, 0, 0},
       {0, 0.75f, 0, 0, 0, 0, 0, 0, 0}});
  ExpectRowsMatchMatrices(model);
  auto max_of = [&](ItemId x) {
    const std::span<const float> m = model.RowComplementaryMax(x);
    return std::vector<float>(m.begin(), m.end());
  };
  EXPECT_EQ(max_of(0), (std::vector<float>{0.5f, 0.75f}));
  EXPECT_EQ(max_of(1), (std::vector<float>{0.0f, 0.0f}));
  EXPECT_EQ(max_of(2), (std::vector<float>{0.125f, 0.0f}));
}

TEST_F(Fig1Kg, RelevanceRowsFromKg) {
  MetaGraph feature = SharedNeighborMeta(g_, "f", RelationKind::kComplementary,
                                         "SUPPORTS", "FEATURE");
  MetaGraph brand = SharedNeighborMeta(g_, "b", RelationKind::kSubstitutable,
                                       "HAS_BRAND", "BRAND");
  const RelevanceModel model = RelevanceModel::FromKg(g_, {brand, feature});
  ExpectRowsMatchMatrices(model);
  // iPhone's row: AirPods and Charger share a feature with it; the
  // substitutable brand meta's score rides along in the second slot.
  const RelevanceModel::AssociationRow row = model.AssocRow(iphone_);
  EXPECT_EQ(std::vector<ItemId>(row.items.begin(), row.items.end()),
            (std::vector<ItemId>{1, 2}));
  EXPECT_FLOAT_EQ(row.scores[0], model.Score(1, 0, 1));
  EXPECT_FLOAT_EQ(row.scores[1], model.Score(0, 0, 1));
  EXPECT_GT(row.scores[1], 0.0f);
  EXPECT_FLOAT_EQ(row.scores[3], 0.0f);  // iPhone-Charger: no shared brand
  EXPECT_TRUE(model.AssocRow(cable_).items.empty());
  EXPECT_EQ(model.RowComplementaryMax(cable_)[0], 0.0f);
  EXPECT_EQ(model.RowComplementaryMax(iphone_)[0],
            std::max(row.scores[0], row.scores[2]));
}

TEST(RelevanceRows, CatalogToyFromKg) {
  const data::Dataset ds = data::MakeFig1Toy();
  EXPECT_GT(ExpectRowsMatchMatrices(*ds.relevance), 0);
}

}  // namespace
}  // namespace imdpp::kg
