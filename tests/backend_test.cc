// Cross-backend gates for the σ-evaluation seam (ISSUE 7): the "ris"
// sketch backend must track the "mc" reference within a tolerance on
// every catalog dataset (it is a static first-order approximation, so the
// gate is ε-accuracy, not bit-identity), behave like a paired coverage
// estimator (monotone, deterministic), and reuse sketch artifacts through
// the shared cache exactly like the prep:: layer does.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "diffusion/ris_backend.h"
#include "diffusion/sigma_backend.h"
#include "pin/perception_params.h"
#include "prep/ris_sketch.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace imdpp::diffusion {
namespace {

/// The ε of the accuracy gate: "ris" freezes the dynamics at the initial
/// state, so it is biased low relative to full re-simulation (no
/// perception updates, no association adoptions) — the gate asserts the
/// bias stays a bounded fraction of σ, not that it vanishes.
constexpr double kRelTolerance = 0.8;
/// Sketches per set in this test: enough that sampling noise is small
/// against kRelTolerance on every catalog graph.
constexpr int kSketches = 8192;
constexpr int kMcSamples = 48;

data::Dataset CatalogDataset(const std::string& name) {
  // Scale the synthetic families down for test speed; fixed-size datasets
  // (toy, classrooms, amazon-100) ignore the scale.
  return data::DatasetRegistry::MakeOrDie({name, 0.2, 0});
}

/// A few structurally different seed groups, valid on any problem. Items
/// are picked by importance: an item with w_x = 0 roots no sketches at
/// all (and MC only credits it through associated adoptions), so zero-
/// importance items are not meaningful accuracy probes.
std::vector<SeedGroup> SeedGroupsFor(const Problem& problem) {
  const int n = problem.NumUsers();
  const int m = problem.NumItems();
  int hi = 0;  // argmax-importance item
  for (int x = 1; x < m; ++x) {
    if (problem.importance[static_cast<size_t>(x)] >
        problem.importance[static_cast<size_t>(hi)]) {
      hi = x;
    }
  }
  int other = hi;  // a second positive-importance item, if there is one
  for (int x = 0; x < m; ++x) {
    if (x != hi && problem.importance[static_cast<size_t>(x)] > 0.0) {
      other = x;
      break;
    }
  }
  std::vector<SeedGroup> groups;
  groups.push_back({{0, hi, 1}});
  if (n > 2) {
    groups.push_back({{n / 2, other, 1}});
    groups.push_back({{0, hi, 1}, {n / 3, other, 1}, {n - 1, hi, 1}});
  }
  return groups;
}

std::unique_ptr<SigmaBackend> MakeBackend(const std::string& name,
                                          const Problem& problem,
                                          const CampaignConfig& campaign) {
  SigmaBackendSpec spec;
  spec.name = name;
  spec.ris_sketches = kSketches;
  return MakeSigmaBackend(spec, problem, campaign, kMcSamples,
                          /*num_threads=*/2, util::MakeWorkerPool(2));
}

TEST(RisAccuracyGate, TracksMcWithinToleranceOnEveryCatalogDataset) {
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    data::Dataset dataset = CatalogDataset(name);
    Problem problem = dataset.MakeProblem(/*budget=*/100.0,
                                          /*num_promotions=*/2);
    CampaignConfig campaign;
    campaign.base_seed = 20260808;
    std::unique_ptr<SigmaBackend> mc = MakeBackend("mc", problem, campaign);
    std::unique_ptr<SigmaBackend> ris = MakeBackend("ris", problem, campaign);
    for (const SeedGroup& seeds : SeedGroupsFor(problem)) {
      SCOPED_TRACE(seeds.size());
      const double sigma_mc = mc->Sigma(seeds);
      const double sigma_ris = ris->Sigma(seeds);
      EXPECT_GT(sigma_ris, 0.0);
      // Relative gap against the larger of the two (symmetric, and robust
      // when either estimate is small).
      const double denom = std::max({sigma_mc, sigma_ris, 1e-9});
      EXPECT_LE(std::abs(sigma_ris - sigma_mc) / denom, kRelTolerance)
          << "mc=" << sigma_mc << " ris=" << sigma_ris;
    }
  }
}

TEST(RisBackend, MarketRestrictionIsConsistentWithSigma) {
  data::Dataset dataset = CatalogDataset("yelp-like");
  Problem problem = dataset.MakeProblem(/*budget=*/100.0,
                                        /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  std::unique_ptr<SigmaBackend> ris = MakeBackend("ris", problem, campaign);
  std::vector<UserId> everyone(static_cast<size_t>(problem.NumUsers()));
  for (int u = 0; u < problem.NumUsers(); ++u) {
    everyone[static_cast<size_t>(u)] = u;
  }
  const std::vector<UserId> half(everyone.begin(),
                                 everyone.begin() + everyone.size() / 2);
  for (const SeedGroup& seeds : SeedGroupsFor(problem)) {
    const double sigma = ris->Sigma(seeds);
    const MarketEval on_half = ris->EvalMarket(seeds, half);
    const MarketEval on_all = ris->EvalMarket(seeds, everyone);
    // EvalMarket's sigma is the same coverage count as Sigma's.
    EXPECT_DOUBLE_EQ(on_half.sigma, sigma);
    // A market restriction can only shrink σ; the full market recovers it.
    EXPECT_GE(on_half.sigma_market, 0.0);
    EXPECT_LE(on_half.sigma_market, sigma);
    EXPECT_DOUBLE_EQ(on_all.sigma_market, sigma);
    // No likelihood model on sketches.
    EXPECT_DOUBLE_EQ(on_half.pi, 0.0);
  }
}

TEST(RisBackend, PairedCoverageGainsAreMonotone) {
  data::Dataset dataset = data::MakeSmallAmazonSample();
  Problem problem = dataset.MakeProblem(/*budget=*/100.0,
                                        /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  std::unique_ptr<SigmaBackend> ris = MakeBackend("ris", problem, campaign);
  // Growing a seed group never loses coverage: every marginal gain on the
  // shared sketch set is >= 0 (the paired-estimate contract).
  SeedGroup group;
  double prev = 0.0;
  for (int u = 0; u < std::min(4, problem.NumUsers()); ++u) {
    group.push_back({u, 0, 1});
    const double sigma = ris->Sigma(group);
    EXPECT_GE(sigma, prev) << "seed " << u;
    prev = sigma;
  }
  // And identical queries are bit-identical (fresh backend, same spec).
  std::unique_ptr<SigmaBackend> again = MakeBackend("ris", problem, campaign);
  EXPECT_EQ(again->Sigma(group), prev);
}

TEST(RisSketchCache, SharedCacheBuildsOnceAndReKeysOnChange) {
  data::Dataset dataset = data::MakeSmallAmazonSample();
  Problem problem = dataset.MakeProblem(/*budget=*/100.0,
                                        /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  auto cache = std::make_shared<prep::RisSketchCache>();
  SigmaBackendSpec spec;
  spec.name = "ris";
  spec.ris_sketches = 512;
  spec.sketch_cache = cache;
  const SeedGroup seeds = {{0, 0, 1}};

  RisBackend first(problem, campaign, kMcSamples, /*num_threads=*/0, nullptr,
                   spec);
  RisBackend second(problem, campaign, kMcSamples, /*num_threads=*/0, nullptr,
                    spec);
  const double a = first.Sigma(seeds);
  const double b = second.Sigma(seeds);
  EXPECT_EQ(a, b);  // same artifact, same answer
  EXPECT_EQ(first.sketch_builds(), 1);
  EXPECT_EQ(second.sketch_builds(), 0);
  EXPECT_EQ(second.sketch_reuses(), 1);
  EXPECT_EQ(cache->builds(), 1);
  EXPECT_EQ(cache->reuses(), 1);

  // A different base seed is a different artifact: content-keyed re-build,
  // not a stale hit.
  CampaignConfig reseeded = campaign;
  reseeded.base_seed = 7;
  RisBackend third(problem, reseeded, kMcSamples, /*num_threads=*/0, nullptr,
                   spec);
  (void)third.Sigma(seeds);
  EXPECT_EQ(third.sketch_builds(), 1);
  EXPECT_EQ(cache->builds(), 2);
}

TEST(RisSketchSet, KeyCoversImportancesAndSamplingKnobs) {
  data::Dataset dataset = data::MakeSmallAmazonSample();
  Problem problem = dataset.MakeProblem(/*budget=*/100.0,
                                        /*num_promotions=*/2);
  CampaignConfig campaign;
  campaign.base_seed = 20260808;
  const uint64_t base = prep::RisSketchKey(problem, campaign, 512);
  EXPECT_EQ(prep::RisSketchKey(problem, campaign, 512), base);
  EXPECT_NE(prep::RisSketchKey(problem, campaign, 1024), base);
  CampaignConfig reseeded = campaign;
  reseeded.base_seed = 7;
  EXPECT_NE(prep::RisSketchKey(problem, reseeded, 512), base);
  Problem reweighted = problem;
  reweighted.importance[0] += 1.0;
  EXPECT_NE(prep::RisSketchKey(reweighted, campaign, 512), base);
  // Budget and horizon are deliberately excluded: sketch sets survive
  // budget/promotion sweeps.
  Problem rebudgeted = problem;
  rebudgeted.budget += 50.0;
  rebudgeted.num_promotions += 3;
  EXPECT_EQ(prep::RisSketchKey(rebudgeted, campaign, 512), base);
  // Every perception-params field is keyed: live-edge probabilities read
  // the params, so sketches built under one setting are stale under any
  // other.
  using Params = pin::PerceptionParams;
  for (double Params::*field :
       {&Params::meta_learning_rate, &Params::pref_gain, &Params::act_gain,
        &Params::act_cap, &Params::sim_adoption_weight,
        &Params::assoc_scale}) {
    Problem reparamed = problem;
    reparamed.params.*field += 0.125;
    EXPECT_NE(prep::RisSketchKey(reparamed, campaign, 512), base);
  }
  Problem frozen = problem;
  frozen.params = Params::FrozenDynamics();
  EXPECT_NE(prep::RisSketchKey(frozen, campaign, 512), base);
}

// A warm "ris" session switched to other perception params must build its
// sketches again and score exactly like a session that started under those
// params — never reuse sketches sampled under the old live-edge
// probabilities.
TEST(RisSketchCache, ParamsSwitchRebuildsAndMatchesColdSession) {
  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.num_threads = 0;
  cfg.eval.backend = "ris";
  cfg.eval.ris_sketches = 4096;
  const pin::PerceptionParams frozen = pin::PerceptionParams::FrozenDynamics();

  api::CampaignSession warm(data::MakeSmallAmazonSample(), cfg);
  warm.SetProblem(/*budget=*/100.0, /*num_promotions=*/2);
  const api::PlanResult before = warm.Run("dysim");
  ASSERT_TRUE(before.status.ok());
  warm.SetProblem(/*budget=*/100.0, /*num_promotions=*/2, frozen);
  const api::PlanResult switched = warm.Run("dysim");
  ASSERT_TRUE(switched.status.ok());
  EXPECT_GE(switched.metrics.Counter(util::metric::kRisSketchBuilds), 1);

  api::CampaignSession cold(data::MakeSmallAmazonSample(), cfg);
  cold.SetProblem(/*budget=*/100.0, /*num_promotions=*/2, frozen);
  const api::PlanResult reference = cold.Run("dysim");
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(switched.seeds, reference.seeds);
  EXPECT_EQ(switched.sigma, reference.sigma);
  EXPECT_EQ(warm.Sigma(reference.seeds), cold.Sigma(reference.seeds));
}

}  // namespace
}  // namespace imdpp::diffusion
