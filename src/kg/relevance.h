// Per-meta-graph item-item relevance s(x,y|m) in [0,1].
//
// The RelevanceModel owns one dense NumItems x NumItems float matrix per
// meta-graph plus the meta-graph's relationship kind. Personal relevance is
// a user-weighted combination of these matrices (pin/personal_item_network);
// this class only holds the *shared* KG-derived part, which never changes
// during a campaign. Alongside the matrices it keeps a pair-major copy of
// the complementary pairs (AssocRow), the layout the simulator's
// item-association loop streams.
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
  /// neighbor lists used by the DR propagation loops.
  const std::vector<ItemId>& RelatedItems(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    return related_[x];
  }

  /// Pair-major association row of item x: every y != x with a
  /// complementary score > 0, in ascending y, each carrying its NumMetas()
  /// scores contiguously in RowMetaOrder() — scores[i * NumMetas() + j] ==
  /// Score(RowMetaOrder()[j], x, items[i]). Pairs with no complementary
  /// score are left out: their r^C is 0, so r^C - r^S <= 0 and they can
  /// never trigger an extra adoption.
  struct AssociationRow {
    std::span<const ItemId> items;
    std::span<const float> scores;
  };
  AssociationRow AssocRow(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    const size_t begin = row_offsets_[static_cast<size_t>(x)];
    const size_t end = row_offsets_[static_cast<size_t>(x) + 1];
    const size_t metas = metas_.size();
    return {{row_items_.data() + begin, end - begin},
            {row_scores_.data() + begin * metas, (end - begin) * metas}};
  }

  /// Per complementary slot j < NumComplementaryMetas(), the largest
  /// score of slot j over AssocRow(x)'s pairs (0 for an empty row):
  /// RowComplementaryMax(x)[j] == max_i AssocRow(x).scores[i * NumMetas()
  /// + j]. With weightings >= 0 it bounds r^C of every pair in the row,
  /// which lets the simulator reject a pair's coin before scoring it.
  std::span<const float> RowComplementaryMax(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    const size_t num_c = static_cast<size_t>(num_complementary_);
    return {row_comp_max_.data() + static_cast<size_t>(x) * num_c, num_c};
  }

  /// Meta index behind each score slot of an association row: the
  /// complementary metas in ascending index, then the substitutable ones.
  std::span<const int> RowMetaOrder() const { return row_meta_order_; }
  /// Number of leading complementary slots in RowMetaOrder().
  int NumComplementaryMetas() const { return num_complementary_; }

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
  // Association rows (AssocRow): pairs of item x occupy
  // [row_offsets_[x], row_offsets_[x + 1]) of row_items_, and NumMetas()
  // times that range of row_scores_.
  std::vector<int> row_meta_order_;
  int num_complementary_ = 0;
  std::vector<size_t> row_offsets_;
  std::vector<ItemId> row_items_;
  std::vector<float> row_scores_;
  // RowComplementaryMax: NumComplementaryMetas() floats per item.
  std::vector<float> row_comp_max_;
};

}  // namespace imdpp::kg

#endif  // IMDPP_KG_RELEVANCE_H_
