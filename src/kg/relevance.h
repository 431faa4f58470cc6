// Per-meta-graph item-item relevance s(x,y|m) in [0,1].
//
// The RelevanceModel owns one dense NumItems x NumItems float matrix per
// meta-graph plus the meta-graph's relationship kind. Personal relevance is
// a user-weighted combination of these matrices (pin/personal_item_network);
// this class only holds the *shared* KG-derived part, which never changes
// during a campaign.
#ifndef IMDPP_KG_RELEVANCE_H_
#define IMDPP_KG_RELEVANCE_H_

#include <span>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "kg/meta_graph.h"

namespace imdpp::kg {

class RelevanceModel {
 public:
  /// Builds s(x,y|m) = count / (count + kappa) from meta-graph instance
  /// counts over `kg`. `kappa > 0` controls saturation (default 2: one
  /// shared feature already gives s = 1/3, three give 0.6).
  static RelevanceModel FromKg(const KnowledgeGraph& kg,
                               std::vector<MetaGraph> metas,
                               double kappa = 2.0);

  /// Builds directly from caller-provided matrices (tests, toy examples).
  /// Each matrix is row-major num_items x num_items with values in [0,1].
  static RelevanceModel FromMatrices(int num_items,
                                     std::vector<MetaGraph> metas,
                                     std::vector<std::vector<float>> matrices);

  int NumItems() const { return num_items_; }
  int NumMetas() const { return static_cast<int>(metas_.size()); }

  const MetaGraph& Meta(int m) const { return metas_[m]; }
  RelationKind KindOf(int m) const { return metas_[m].kind; }

  /// s(x,y|m) in [0,1].
  float Score(int m, ItemId x, ItemId y) const {
    IMDPP_DCHECK(m >= 0 && m < NumMetas());
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    IMDPP_DCHECK(y >= 0 && y < num_items_);
    return matrices_[m][static_cast<size_t>(x) * num_items_ + y];
  }

  /// Meta m's whole row-major NumItems x NumItems matrix:
  /// Matrix(m)[x * NumItems() + y] == Score(m, x, y).
  std::span<const float> Matrix(int m) const {
    IMDPP_DCHECK(m >= 0 && m < NumMetas());
    return matrices_[m];
  }

  /// Items y with Score(m, x, y) > 0 for *any* meta m; precomputed sparse
  /// neighbor lists used by item-association and DR propagation loops.
  const std::vector<ItemId>& RelatedItems(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    return related_[x];
  }

  /// Restricts the model to its first `k` meta-graphs (sensitivity test,
  /// Fig. 13). k must be in [1, NumMetas()].
  RelevanceModel WithFirstMetas(int k) const;

  /// Restricts the model to an arbitrary meta-graph subset, in the given
  /// order. Indices must be valid and non-empty.
  RelevanceModel WithMetaSubset(const std::vector<int>& indices) const;

 private:
  RelevanceModel() = default;
  void BuildRelated();

  int num_items_ = 0;
  std::vector<MetaGraph> metas_;
  std::vector<std::vector<float>> matrices_;
  std::vector<std::vector<ItemId>> related_;
};

}  // namespace imdpp::kg

#endif  // IMDPP_KG_RELEVANCE_H_
