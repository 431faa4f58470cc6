// Factor (2), preference estimation: Ppref(u, y, ζ_t).
//
// Following the cross-elasticity reading of Sec. III / V-A, a user's
// preference for a not-yet-adopted item y is the base preference shifted by
// the mean pull of the user's adopted items — complementary ones raise it,
// substitutable ones lower it — all through the *personal* item network:
//
//   Ppref(u,y) = clip01( base(u,y) + pref_gain *
//                        mean_{a ∈ A(u)} (r^C(u,a,y) - r^S(u,a,y)) )
//
// Already-adopted items have preference 0 (they cannot be promoted again).
#ifndef IMDPP_PIN_PREFERENCE_MODEL_H_
#define IMDPP_PIN_PREFERENCE_MODEL_H_

#include "pin/personal_item_network.h"

namespace imdpp::pin {

class PreferenceModel {
 public:
  explicit PreferenceModel(const PersonalItemNetwork& pin) : pin_(pin) {}

  /// `base_pref` is the user's static initial preference for y in [0,1].
  double Eval(const UserState& state, double base_pref, kg::ItemId y) const;

  /// Same but ignoring the adoption check (used when scoring hypothetical
  /// adoptions).
  double EvalUnchecked(const UserState& state, double base_pref,
                       kg::ItemId y) const;

 private:
  const PersonalItemNetwork& pin_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_PREFERENCE_MODEL_H_
