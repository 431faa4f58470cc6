#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "data/catalog.h"
#include "diffusion/campaign_simulator.h"
#include "tests/test_util.h"

namespace imdpp::diffusion {
namespace {

using testutil::MakeRelevance;
using testutil::MakeWorld;
using testutil::TinyWorld;
using testutil::TinyWorldSpec;

/// Deterministic-cascade spec: edge weights 1, preferences 1, dynamics off,
/// influence cap lifted so p = 1 exactly.
TinyWorldSpec DetSpec(int items = 1, int promotions = 1) {
  TinyWorldSpec s;
  s.num_items = items;
  s.num_promotions = promotions;
  s.params = pin::PerceptionParams::FrozenDynamics();
  s.params.act_cap = 1.0;
  return s;
}

TEST(CampaignSimulator, DeterministicChainFullCascade) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);  // seed + two hops, importance 1
  EXPECT_EQ(o.adoptions, 3);
}

TEST(CampaignSimulator, ZeroPreferenceBlocksPropagation) {
  TinyWorldSpec s = DetSpec();
  s.base_pref = 0.0;
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, s);
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 1.0);  // only the seed adopts
}

TEST(CampaignSimulator, NoSeedsNoAdoptions) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}}, DetSpec(1, 3));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({}, 0).sigma, 0.0);
}

TEST(CampaignSimulator, ImportanceWeighting) {
  TinyWorldSpec s = DetSpec(2);
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, s);
  w.problem.importance = {3.0, 0.5};
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 6.0);
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 1, 1}}, 0).sigma, 1.0);
}

TEST(CampaignSimulator, ReseedingDoesNotDoubleCount) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec(1, 2));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}, {0, 0, 2}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
}

TEST(CampaignSimulator, SecondPromotionStartsFromFirstState) {
  // 0 -> 1 (item 0), separate island 2 -> 3.
  TinyWorld w =
      MakeWorld(4, {{0, 1, 1.0}, {2, 3, 1.0}}, DetSpec(1, 2));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}, {2, 0, 2}}, 0);
  EXPECT_DOUBLE_EQ(o.sigma, 4.0);
}

TEST(CampaignSimulator, SeedOutsidePromotionRangeAborts) {
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, DetSpec(1, 1));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DEATH(sim.RunSample({{0, 0, 2}}, 0), "promotion");
}

TEST(CampaignSimulator, ExtraAdoptionViaAssociation) {
  // Two items, 0-1 strongly complementary; promoting 0 to user 1 also
  // triggers item 1 with probability 1 under assoc_scale = 1.
  std::vector<float> c{0, 1.0f, 1.0f, 0};
  std::vector<float> s(4, 0.0f);
  TinyWorldSpec spec = DetSpec(2);
  spec.params.assoc_scale = 1.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, spec, MakeRelevance(2, c, s));
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0);
  // Seed adopts item 0; user 1 adopts item 0 (promotion) + item 1 (extra).
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
}

TEST(CampaignSimulator, SubstitutableSuppressesExtraAdoption) {
  std::vector<float> c(4, 0.0f);
  std::vector<float> s{0, 1.0f, 1.0f, 0};
  TinyWorldSpec spec = DetSpec(2);
  spec.params.assoc_scale = 1.0;
  TinyWorld w = MakeWorld(2, {{0, 1, 1.0}}, spec, MakeRelevance(2, c, s));
  CampaignSimulator sim(w.problem, {});
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 2.0);
}

TEST(CampaignSimulator, MarketMaskRestrictsSigma) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  std::vector<uint8_t> mask{0, 0, 1};
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, &mask);
  EXPECT_DOUBLE_EQ(o.sigma, 3.0);
  EXPECT_DOUBLE_EQ(o.sigma_market, 1.0);
}

TEST(CampaignSimulator, KeepStatesReflectsAdoptions) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, nullptr, true);
  ASSERT_EQ(o.states.size(), 3u);
  EXPECT_TRUE(o.states[0].Has(0));
  EXPECT_TRUE(o.states[2].Has(0));
}

TEST(CampaignSimulator, InitialStatesSkipReAdoption) {
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> init;
  for (int u = 0; u < 3; ++u) init.emplace_back(1, std::vector<float>{1.0f});
  init[1].Add(0);  // user 1 already owns the item
  SampleOutcome o = sim.RunSample({{0, 0, 1}}, 0, nullptr, true, &init);
  // User 1 cannot be promoted again and never re-propagates: only the seed
  // adopts (user 2 is unreachable because 1 never "newly adopts").
  EXPECT_DOUBLE_EQ(o.sigma, 1.0);
  EXPECT_TRUE(o.states[1].Has(0));
}

TEST(CampaignSimulator, SampleDeterminism) {
  TinyWorld w = MakeWorld(4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}},
                          DetSpec());
  CampaignSimulator sim(w.problem, {});
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, i).sigma,
                     sim.RunSample({{0, 0, 1}}, i).sigma);
  }
}

TEST(CampaignSimulator, SamplesVary) {
  TinyWorld w = MakeWorld(4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}},
                          DetSpec());
  CampaignSimulator sim(w.problem, {});
  double first = sim.RunSample({{0, 0, 1}}, 0).sigma;
  bool varied = false;
  for (uint64_t i = 1; i < 32 && !varied; ++i) {
    varied = sim.RunSample({{0, 0, 1}}, i).sigma != first;
  }
  EXPECT_TRUE(varied);
}

TEST(CampaignSimulator, HalfProbabilityEdgeEmpiricalRate) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  int adopted = 0;
  const int n = 2000;
  for (uint64_t i = 0; i < n; ++i) {
    adopted += sim.RunSample({{0, 0, 1}}, i).adoptions - 1;
  }
  EXPECT_NEAR(adopted / static_cast<double>(n), 0.5, 0.05);
}

TEST(CampaignSimulator, LinearThresholdDeterministicWhenSaturated) {
  TinyWorldSpec spec = DetSpec();
  TinyWorld w = MakeWorld(3, {{0, 1, 1.0}, {1, 2, 1.0}}, spec);
  CampaignConfig cfg;
  cfg.model = DiffusionModel::kLinearThreshold;
  CampaignSimulator sim(w.problem, cfg);
  // Accumulated mass 1.0 >= any threshold in [0,1): full cascade.
  EXPECT_DOUBLE_EQ(sim.RunSample({{0, 0, 1}}, 0).sigma, 3.0);
}

TEST(CampaignSimulator, LinearThresholdAccumulatesAcrossNeighbors) {
  // Two weak parents (0.4 each) of user 2; either alone rarely crosses the
  // threshold, both together always cross 0.8.
  TinyWorldSpec spec = DetSpec();
  TinyWorld w = MakeWorld(3, {{0, 2, 0.4}, {1, 2, 0.4}}, spec);
  CampaignConfig cfg;
  cfg.model = DiffusionModel::kLinearThreshold;
  CampaignSimulator sim(w.problem, cfg);
  int both = 0, solo = 0;
  const int n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    both += sim.RunSample({{0, 0, 1}, {1, 0, 1}}, i).adoptions == 3;
    solo += sim.RunSample({{0, 0, 1}}, i).adoptions == 2;
  }
  EXPECT_NEAR(both / static_cast<double>(n), 0.8, 0.07);
  EXPECT_NEAR(solo / static_cast<double>(n), 0.4, 0.07);
}

TEST(CampaignSimulator, LikelihoodPiAggregatesInfluence) {
  // 0 adopted item; 1 is a neighbor with pref 0.6 for it.
  TinyWorldSpec spec = DetSpec();
  spec.base_pref = 0.6;
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, spec);
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 2; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  double pi = sim.LikelihoodPi(states, {1});
  EXPECT_NEAR(pi, 0.5 * 0.6, 1e-6);  // AIS(1,0) * Ppref(1,0)
}

TEST(CampaignSimulator, LikelihoodPiSkipsAdoptedItems) {
  TinyWorld w = MakeWorld(2, {{0, 1, 0.5}}, DetSpec());
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 2; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  states[1].Add(0);  // market user already owns the item
  EXPECT_DOUBLE_EQ(sim.LikelihoodPi(states, {1}), 0.0);
}

TEST(CampaignSimulator, LikelihoodPiIcCombinesParents) {
  // Two adopter parents with strengths 0.5 and 0.5: AIS = 1 - 0.25 = 0.75.
  TinyWorldSpec spec = DetSpec();
  spec.base_pref = 1.0;
  TinyWorld w = MakeWorld(3, {{0, 2, 0.5}, {1, 2, 0.5}}, spec);
  CampaignSimulator sim(w.problem, {});
  std::vector<pin::UserState> states;
  for (int u = 0; u < 3; ++u) {
    states.emplace_back(1, std::vector<float>{1.0f});
  }
  states[0].Add(0);
  states[1].Add(0);
  EXPECT_NEAR(sim.LikelihoodPi(states, {2}), 0.75, 1e-6);
}

TEST(CampaignSimulator, DynamicInfluenceStrengthensWithSimilarity) {
  // 1 -> 2 has base weight 0.3. When user 1 and 2 share adopted item 1,
  // the dynamic strength grows, so item-0 promotions succeed more often.
  TinyWorldSpec spec;  // dynamics ON
  spec.num_items = 2;
  spec.params = pin::PerceptionParams();
  spec.params.act_gain = 2.0;
  spec.params.pref_gain = 0.0;
  spec.params.assoc_scale = 0.0;
  spec.params.meta_learning_rate = 0.0;
  spec.base_pref = 1.0;
  TinyWorld w = MakeWorld(3, {{1, 2, 0.3}}, spec);
  CampaignSimulator sim(w.problem, {});
  // Without shared history: rate ~0.3.
  int plain = 0, boosted = 0;
  const int n = 800;
  for (uint64_t i = 0; i < n; ++i) {
    plain += sim.RunSample({{1, 0, 1}}, i).adoptions == 2;
  }
  // Pre-adopt item 1 for both users via initial states.
  std::vector<pin::UserState> init;
  for (int u = 0; u < 3; ++u) {
    init.emplace_back(2, std::vector<float>{1.0f, 1.0f});
  }
  init[1].Add(1);
  init[2].Add(1);
  for (uint64_t i = 0; i < n; ++i) {
    SampleOutcome o = sim.RunSample({{1, 0, 1}}, i, nullptr, false, &init);
    boosted += o.adoptions == 2;
  }
  EXPECT_GT(boosted, plain + 50);
}

// --- Kernel golden values --------------------------------------------------
// Exact outcomes of fixed realizations, captured as hex-float literals from
// the scalar association loop (RelatedItems x ExtraProb, now the oracle in
// tests/test_util.h) that the pair-major relevance-row kernel replaced, on
// a catalog dataset and on a substitute-heavy toy whose metas are listed
// out of kind order.
// A kernel that draws a different coin, or skips or adds one, moves these
// values; a one-ulp change in a probability usually does not, which is why
// pin_test pins RelNetRow against RelNet bit for bit.
//
// The kYelpHot / kToyHot rows rerun both worlds at a high assoc_scale
// (kHotYelpAssocScale, kHotToyAssocScale), where the coin-first rejection
// bound pe_ub = clip01(pull * RelNetRowBound) clips to 1 on part of the
// edges (about 5% on yelp-like, 60% on the toy) and many extra adoptions
// fire. They were captured from the pair-major kernel as it stood before
// the coin-hash prefixes and coin-first rejection.

enum GoldenWorld { kYelp, kToy, kYelpHot, kToyHot };
constexpr double kHotYelpAssocScale = 10.0;
constexpr double kHotToyAssocScale = 3.0;
constexpr DiffusionModel kIC = DiffusionModel::kIndependentCascade;
constexpr DiffusionModel kLT = DiffusionModel::kLinearThreshold;
constexpr bool kAligned = true;
constexpr bool kRoundKeyed = false;
constexpr bool kMasked = true;
constexpr bool kNoMask = false;

struct GoldenRow {
  GoldenWorld world;
  DiffusionModel model;
  bool aligned;  ///< align_from_round = 1 instead of round-keyed coins
  bool masked;   ///< market mask u % 3 != 0
  uint64_t sample;
  double sigma;
  double sigma_market;
  int adoptions;
};

// clang-format off
const GoldenRow kGoldenRows[] = {
    {kYelp, kIC, kRoundKeyed, kNoMask, 0, 0x1.09c8619382147p+4, 0x0p+0, 10},
    {kYelp, kIC, kRoundKeyed, kNoMask, 5, 0x1.fd9e29e29a66cp+4, 0x0p+0, 20},
    {kYelp, kIC, kRoundKeyed, kMasked, 0, 0x1.09c8619382147p+4, 0x1.97d61c2d62368p+3, 10},
    {kYelp, kIC, kRoundKeyed, kMasked, 5, 0x1.fd9e29e29a66cp+4, 0x1.72649f2d2a62p+4, 20},
    {kYelp, kIC, kAligned, kNoMask, 0, 0x1.8793e5cbf42b1p+5, 0x0p+0, 27},
    {kYelp, kIC, kAligned, kNoMask, 5, 0x1.5e608b3ce0d12p+4, 0x0p+0, 13},
    {kYelp, kIC, kAligned, kMasked, 0, 0x1.8793e5cbf42b1p+5, 0x1.2528434a12ff2p+5, 27},
    {kYelp, kIC, kAligned, kMasked, 5, 0x1.5e608b3ce0d12p+4, 0x1.bc08ef6f7c0e2p+3, 13},
    {kYelp, kLT, kRoundKeyed, kNoMask, 0, 0x1.a6cd65afc258ap+4, 0x0p+0, 16},
    {kYelp, kLT, kRoundKeyed, kNoMask, 5, 0x1.b26aebd01bc64p+5, 0x0p+0, 29},
    {kYelp, kLT, kRoundKeyed, kMasked, 0, 0x1.a6cd65afc258ap+4, 0x1.5b3fefebd7811p+4, 16},
    {kYelp, kLT, kRoundKeyed, kMasked, 5, 0x1.b26aebd01bc64p+5, 0x1.0807e3204c5c9p+5, 29},
    {kYelp, kLT, kAligned, kNoMask, 0, 0x1.10c3c4c4460d9p+5, 0x0p+0, 22},
    {kYelp, kLT, kAligned, kNoMask, 5, 0x1.4b75c851821fep+4, 0x0p+0, 12},
    {kYelp, kLT, kAligned, kMasked, 0, 0x1.10c3c4c4460d9p+5, 0x1.9244663e328d7p+4, 22},
    {kYelp, kLT, kAligned, kMasked, 5, 0x1.4b75c851821fep+4, 0x1.b3f34698d7b2p+3, 12},
    {kToy, kIC, kRoundKeyed, kNoMask, 0, 0x1.6cp+4, 0x0p+0, 14},
    {kToy, kIC, kRoundKeyed, kNoMask, 5, 0x1.46p+5, 0x0p+0, 25},
    {kToy, kIC, kRoundKeyed, kMasked, 0, 0x1.6cp+4, 0x1.cp+3, 14},
    {kToy, kIC, kRoundKeyed, kMasked, 5, 0x1.46p+5, 0x1.6cp+4, 25},
    {kToy, kIC, kAligned, kNoMask, 0, 0x1.fp+2, 0x0p+0, 4},
    {kToy, kIC, kAligned, kNoMask, 5, 0x1.ecp+4, 0x0p+0, 18},
    {kToy, kIC, kAligned, kMasked, 0, 0x1.fp+2, 0x1.2p+2, 4},
    {kToy, kIC, kAligned, kMasked, 5, 0x1.ecp+4, 0x1.3cp+4, 18},
    {kToy, kLT, kRoundKeyed, kNoMask, 0, 0x1.24p+4, 0x0p+0, 12},
    {kToy, kLT, kRoundKeyed, kNoMask, 5, 0x1.e8p+4, 0x0p+0, 21},
    {kToy, kLT, kRoundKeyed, kMasked, 0, 0x1.24p+4, 0x1.3p+3, 12},
    {kToy, kLT, kRoundKeyed, kMasked, 5, 0x1.e8p+4, 0x1.68p+4, 21},
    {kToy, kLT, kAligned, kNoMask, 0, 0x1.f8p+3, 0x0p+0, 9},
    {kToy, kLT, kAligned, kNoMask, 5, 0x1.9p+4, 0x0p+0, 16},
    {kToy, kLT, kAligned, kMasked, 0, 0x1.f8p+3, 0x1.cp+2, 9},
    {kToy, kLT, kAligned, kMasked, 5, 0x1.9p+4, 0x1.34p+4, 16},
    {kYelpHot, kIC, kRoundKeyed, kNoMask, 0, 0x1.b032bf8dbaa1p+12, 0x0p+0, 4353},
    {kYelpHot, kIC, kRoundKeyed, kNoMask, 5, 0x1.aa8fcdb7f3aa2p+12, 0x0p+0, 4322},
    {kYelpHot, kIC, kAligned, kNoMask, 0, 0x1.abdc8932fd8aap+12, 0x0p+0, 4308},
    {kYelpHot, kIC, kAligned, kNoMask, 5, 0x1.adb6d6b62f9eep+12, 0x0p+0, 4343},
    {kYelpHot, kLT, kRoundKeyed, kNoMask, 0, 0x1.b83d2130e8caep+12, 0x0p+0, 4434},
    {kYelpHot, kLT, kRoundKeyed, kNoMask, 5, 0x1.b83b906a49ec2p+12, 0x0p+0, 4445},
    {kYelpHot, kLT, kAligned, kNoMask, 0, 0x1.b313f1ff1b4c4p+12, 0x0p+0, 4392},
    {kYelpHot, kLT, kAligned, kNoMask, 5, 0x1.ba21babba535dp+12, 0x0p+0, 4458},
    {kToyHot, kIC, kRoundKeyed, kNoMask, 0, 0x1.11p+6, 0x0p+0, 41},
    {kToyHot, kIC, kRoundKeyed, kNoMask, 5, 0x1.fep+5, 0x0p+0, 39},
    {kToyHot, kIC, kAligned, kNoMask, 0, 0x1.fap+5, 0x0p+0, 38},
    {kToyHot, kIC, kAligned, kNoMask, 5, 0x1.fcp+5, 0x0p+0, 40},
    {kToyHot, kLT, kRoundKeyed, kNoMask, 0, 0x1.f4p+5, 0x0p+0, 39},
    {kToyHot, kLT, kRoundKeyed, kNoMask, 5, 0x1.08p+6, 0x0p+0, 41},
    {kToyHot, kLT, kAligned, kNoMask, 0, 0x1.08p+6, 0x0p+0, 40},
    {kToyHot, kLT, kAligned, kNoMask, 5, 0x1.bp+5, 0x0p+0, 34},
};
// clang-format on

constexpr const char* kWorldNames[] = {"kYelp", "kToy", "kYelpHot",
                                       "kToyHot"};

std::string GoldenLiteral(const GoldenRow& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%s, %s, %s, %s, %llu, %a, %a, %d},",
                kWorldNames[r.world],
                r.model == kIC ? "kIC" : "kLT",
                r.aligned ? "kAligned" : "kRoundKeyed",
                r.masked ? "kMasked" : "kNoMask",
                static_cast<unsigned long long>(r.sample), r.sigma,
                r.sigma_market, r.adoptions);
  return buf;
}

TEST(CampaignSimulatorGolden, OutcomesMatchScalarKernelBitForBit) {
  const data::Dataset yelp = data::MakeYelpLike(0.5);
  const Problem yelp_problem = yelp.MakeProblem(/*budget=*/500.0, 5);
  const TinyWorld toy = testutil::SubstituteHeavyToy();
  Problem yelp_hot = yelp_problem;
  yelp_hot.params.assoc_scale = kHotYelpAssocScale;
  TinyWorld toy_hot = testutil::SubstituteHeavyToy();
  toy_hot.problem.params.assoc_scale = kHotToyAssocScale;
  const Problem* problems[] = {&yelp_problem, &toy.problem, &yelp_hot,
                               &toy_hot.problem};
  const SeedGroup yelp_seeds{
      {0, 0, 1}, {14, 18, 1}, {52, 15, 2}, {111, 10, 3}, {7, 3, 5}};
  const SeedGroup toy_seeds{{0, 0, 1}, {3, 2, 1}, {5, 4, 2}, {1, 1, 3}};

  SimScratch scratch;
  for (const GoldenRow& want : kGoldenRows) {
    const Problem& problem = *problems[want.world];
    const bool yelp_world = want.world == kYelp || want.world == kYelpHot;
    CampaignConfig cfg;
    cfg.model = want.model;
    CampaignSimulator sim(problem, cfg);
    SeedSchedule sched(yelp_world ? yelp_seeds : toy_seeds, problem);
    std::vector<uint8_t> mask(static_cast<size_t>(problem.NumUsers()));
    for (size_t u = 0; u < mask.size(); ++u) mask[u] = u % 3 != 0;
    sim.Restore(nullptr, nullptr, scratch);
    sim.SimulateRounds(sched, want.sample, 1, sched.last_active_round(),
                       want.masked ? &mask : nullptr, scratch,
                       want.aligned ? 1 : kNoCoinAlignment);
    GoldenRow got = want;
    got.sigma = scratch.sigma();
    got.sigma_market = scratch.sigma_market();
    got.adoptions = scratch.adoptions();
    EXPECT_EQ(got.sigma, want.sigma) << GoldenLiteral(got);
    EXPECT_EQ(got.sigma_market, want.sigma_market) << GoldenLiteral(got);
    EXPECT_EQ(got.adoptions, want.adoptions) << GoldenLiteral(got);
  }
}

}  // namespace
}  // namespace imdpp::diffusion
