#include "kg/relevance.h"

#include <algorithm>

#include "kg/meta_graph_matcher.h"

namespace imdpp::kg {

RelevanceModel RelevanceModel::FromKg(const KnowledgeGraph& kg,
                                      std::vector<MetaGraph> metas,
                                      double kappa) {
  IMDPP_CHECK_GT(kappa, 0.0);
  RelevanceModel model;
  model.num_items_ = kg.NumItems();
  model.metas_ = std::move(metas);
  MetaGraphMatcher matcher(kg);
  for (const MetaGraph& m : model.metas_) {
    std::vector<int64_t> counts = matcher.CountAllPairs(m);
    std::vector<float> mat(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      double c = static_cast<double>(counts[i]);
      mat[i] = static_cast<float>(c / (c + kappa));
    }
    model.matrices_.push_back(std::move(mat));
  }
  model.BuildRelated();
  return model;
}

RelevanceModel RelevanceModel::FromMatrices(
    int num_items, std::vector<MetaGraph> metas,
    std::vector<std::vector<float>> matrices) {
  IMDPP_CHECK_EQ(metas.size(), matrices.size());
  RelevanceModel model;
  model.num_items_ = num_items;
  model.metas_ = std::move(metas);
  for (auto& mat : matrices) {
    IMDPP_CHECK_EQ(mat.size(),
                   static_cast<size_t>(num_items) * num_items);
    for (float v : mat) IMDPP_CHECK(v >= 0.0f && v <= 1.0f);
    model.matrices_.push_back(std::move(mat));
  }
  model.BuildRelated();
  return model;
}

void RelevanceModel::BuildRelated() {
  const int metas = NumMetas();
  row_meta_order_.clear();
  for (int m = 0; m < metas; ++m) {
    if (KindOf(m) == RelationKind::kComplementary) row_meta_order_.push_back(m);
  }
  num_complementary_ = static_cast<int>(row_meta_order_.size());
  for (int m = 0; m < metas; ++m) {
    if (KindOf(m) == RelationKind::kSubstitutable) row_meta_order_.push_back(m);
  }
  IMDPP_CHECK_EQ(row_meta_order_.size(), static_cast<size_t>(metas));

  related_.assign(num_items_, {});
  row_offsets_.assign(1, 0);
  row_items_.clear();
  row_scores_.clear();
  row_comp_max_.assign(
      static_cast<size_t>(num_items_) * static_cast<size_t>(num_complementary_),
      0.0f);
  for (ItemId x = 0; x < num_items_; ++x) {
    float* comp_max = row_comp_max_.data() +
                      static_cast<size_t>(x) * num_complementary_;
    for (ItemId y = 0; y < num_items_; ++y) {
      if (y == x) continue;
      bool any = false;
      bool complementary = false;
      for (int j = 0; j < metas; ++j) {
        if (Score(row_meta_order_[j], x, y) > 0.0f) {
          any = true;
          complementary = j < num_complementary_;
          break;
        }
      }
      if (any) related_[x].push_back(y);
      if (!complementary) continue;
      row_items_.push_back(y);
      for (int m : row_meta_order_) row_scores_.push_back(Score(m, x, y));
      for (int j = 0; j < num_complementary_; ++j) {
        comp_max[j] = std::max(comp_max[j], Score(row_meta_order_[j], x, y));
      }
    }
    row_offsets_.push_back(row_items_.size());
  }
  row_items_.shrink_to_fit();
  row_scores_.shrink_to_fit();
}

RelevanceModel RelevanceModel::WithMetaSubset(
    const std::vector<int>& indices) const {
  IMDPP_CHECK(!indices.empty());
  RelevanceModel model;
  model.num_items_ = num_items_;
  for (int i : indices) {
    IMDPP_CHECK(i >= 0 && i < NumMetas());
    model.metas_.push_back(metas_[i]);
    model.matrices_.push_back(matrices_[i]);
  }
  model.BuildRelated();
  return model;
}

RelevanceModel RelevanceModel::WithFirstMetas(int k) const {
  IMDPP_CHECK(k >= 1 && k <= NumMetas());
  RelevanceModel model;
  model.num_items_ = num_items_;
  model.metas_.assign(metas_.begin(), metas_.begin() + k);
  model.matrices_.assign(matrices_.begin(), matrices_.begin() + k);
  model.BuildRelated();
  return model;
}

}  // namespace imdpp::kg
