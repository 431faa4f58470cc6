// Factor (1), relevance measurement: the personal item network
// G_PIN(u, ζ_t) and the update of personal meta-graph weightings.
//
// r^C(u,x,y) = clip01( Σ_{m ∈ {m^C}} Wmeta(u,m) * s(x,y|m) )
// r^S(u,x,y) = clip01( Σ_{m ∈ {m^S}} Wmeta(u,m) * s(x,y|m) )
//
// Weight update (after u's adoption decisions at a step): for each meta m,
// the *evidence* is the mean relevance s(a,b|m) over pairs of previously
// adopted items a and newly adopted items b (for a first adoption, pairs
// within the new items). Weights move by a saturating step
//   w += eta * evidence * (1 - w),
// mirroring Fig. 1(c)->(d): metas that connect what the user just adopted
// gain significance, bounded by 1.
#ifndef IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_
#define IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_

#include <span>
#include <vector>

#include "kg/relevance.h"
#include "pin/perception_params.h"
#include "pin/user_state.h"
#include "util/mathutil.h"

namespace imdpp::pin {

class PersonalItemNetwork {
 public:
  PersonalItemNetwork(const kg::RelevanceModel& relevance,
                      const PerceptionParams& params)
      : rel_(relevance), params_(params) {}

  /// Complementary relevance between x and y in the perception encoded by
  /// `wmeta`.
  double RelC(std::span<const float> wmeta, kg::ItemId x, kg::ItemId y) const {
    return Rel(wmeta, x, y, kg::RelationKind::kComplementary);
  }

  /// Substitutable relevance.
  double RelS(std::span<const float> wmeta, kg::ItemId x, kg::ItemId y) const {
    return Rel(wmeta, x, y, kg::RelationKind::kSubstitutable);
  }

  /// Net relevance r^C - r^S (can be negative).
  double RelNet(std::span<const float> wmeta, kg::ItemId x,
                kg::ItemId y) const {
    return RelC(wmeta, x, y) - RelS(wmeta, x, y);
  }

  /// RelNet(wmeta, x, y) for the pair whose NumMetas() scores sit in
  /// `scores`, laid out as one pair of RelevanceModel::AssocRow(x). Bit for
  /// bit the same value: the same float products wmeta[m] * s(x,y|m),
  /// summed into a double per kind in ascending m, then clipped.
  double RelNetRow(std::span<const float> wmeta,
                   std::span<const float> scores) const {
    const std::span<const int> order = rel_.RowMetaOrder();
    const size_t num_c = static_cast<size_t>(rel_.NumComplementaryMetas());
    IMDPP_DCHECK(scores.size() == order.size());
    IMDPP_DCHECK(wmeta.size() >= order.size());
    const double c =
        WeightedSum(wmeta, order.first(num_c), scores.first(num_c));
    const double s =
        WeightedSum(wmeta, order.subspan(num_c), scores.subspan(num_c));
    return Clip01(c) - Clip01(s);
  }

  /// Upper bound on RelNetRow(wmeta, ·) over every pair of
  /// RelevanceModel::AssocRow(x), for weightings >= 0: r^C with each
  /// complementary score raised to its row maximum
  /// (RelevanceModel::RowComplementaryMax), summed by the same WeightedSum.
  /// Exact as a bound, not just in real arithmetic: IEEE rounding is
  /// monotone, so no float product, partial double sum or clip can shrink
  /// when a score grows, and subtracting a clipped r^S >= 0 cannot grow
  /// RelNetRow past its clipped r^C.
  double RelNetRowBound(std::span<const float> wmeta, kg::ItemId x) const {
    const std::span<const float> comp_max = rel_.RowComplementaryMax(x);
    return Clip01(WeightedSum(
        wmeta, rel_.RowMetaOrder().first(comp_max.size()), comp_max));
  }

  /// Applies the weight update to `state` given the items newly adopted at
  /// this step. Call *after* the items were added to the adoption set.
  void UpdateWeights(UserState& state,
                     std::span<const kg::ItemId> newly_adopted) const;

  const kg::RelevanceModel& relevance() const { return rel_; }
  const PerceptionParams& params() const { return params_; }

 private:
  double Rel(std::span<const float> wmeta, kg::ItemId x, kg::ItemId y,
             kg::RelationKind kind) const;

  /// Σ_j wmeta[order[j]] * scores[j]: float products summed into a double
  /// in ascending j. RelNetRow and RelNetRowBound share it, so the bound
  /// runs the very operation sequence of the sum it bounds.
  static double WeightedSum(std::span<const float> wmeta,
                            std::span<const int> order,
                            std::span<const float> scores) {
    double sum = 0.0;
    for (size_t j = 0; j < order.size(); ++j) {
      sum += wmeta[static_cast<size_t>(order[j])] * scores[j];
    }
    return sum;
  }

  const kg::RelevanceModel& rel_;
  const PerceptionParams& params_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_
