// Tunable coefficients of the four dynamic factors (Sec. V-A). The paper
// delegates these to learned models (SemRec/RelSUE, RSC/RCF, DeepInf, CKE);
// we substitute closed-form rules with the same monotone couplings, and
// these parameters expose the coupling strengths. `FrozenDynamics()` turns
// all couplings off, which recovers the static setting of Lemma 1 /
// Theorem 4 (Ppref, Pact, Pext fixed at their initial values) — used by the
// property tests for submodularity.
#ifndef IMDPP_PIN_PERCEPTION_PARAMS_H_
#define IMDPP_PIN_PERCEPTION_PARAMS_H_

namespace imdpp::pin {

struct PerceptionParams {
  /// Learning rate of the saturating meta-graph weight update
  /// (relevance measurement, factor 1).
  double meta_learning_rate = 0.4;

  /// Weight of the adopted-item relevance term in preference estimation
  /// (factor 2): Ppref = clip01(base + pref_gain * mean_a (r^C - r^S)),
  /// the mean taken over the user's adopted items a.
  double pref_gain = 0.8;

  /// Influence learning (factor 3): Pact = clip(base * (1 + act_gain*sim)).
  double act_gain = 0.6;
  /// Hard cap on any dynamic influence strength.
  double act_cap = 0.95;
  /// Mixing of adoption-set Jaccard vs. Wmeta cosine in user similarity.
  /// Weighted toward Jaccard: Wmeta vectors are all-positive, so their
  /// cosine is high even between strangers and would inflate every edge.
  double sim_adoption_weight = 0.8;

  /// Item associations (factor 4):
  /// Pext = clip01(assoc_scale * Pact * Ppref(x) * max(0, r^C - r^S)).
  double assoc_scale = 0.4;

  /// Memberwise equality — lets CampaignSession::SetProblem detect a
  /// no-op reconfiguration.
  friend bool operator==(const PerceptionParams&,
                         const PerceptionParams&) = default;

  /// Returns a copy with every dynamic coupling disabled; Ppref/Pact stay
  /// at their base values and no extra adoptions happen.
  static PerceptionParams FrozenDynamics() {
    PerceptionParams p;
    p.meta_learning_rate = 0.0;
    p.pref_gain = 0.0;
    p.act_gain = 0.0;
    p.assoc_scale = 0.0;
    return p;
  }

  /// Frozen perception but with associations still active (used by the
  /// hardness-construction style tests where Pext is prescribed).
  static PerceptionParams StaticPerception() {
    PerceptionParams p = FrozenDynamics();
    p.assoc_scale = 0.8;
    return p;
  }
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_PERCEPTION_PARAMS_H_
