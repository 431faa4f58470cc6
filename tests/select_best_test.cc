// The fixed-count SelectBest reference loop reports candidates ×
// num_samples in samples_used on every evaluator: the engine-level
// argmax, a checkpointed MC evaluator, and the forwarding evaluator a
// backend without prefix reuse ("ris") hands out.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/sigma_backend.h"

namespace imdpp::diffusion {
namespace {

constexpr int kSamples = 16;

std::vector<SelectCandidate> Candidates() {
  return {{SeedGroup{{0, 0, 1}}, nullptr},
          {SeedGroup{{0, 0, 1}, {3, 1, 2}}, nullptr},
          {SeedGroup{{5, 2, 1}}, nullptr}};
}

void ExpectFixedSamplesUsed(ScheduleEval& eval, SelectOptions options) {
  const std::vector<SelectCandidate> candidates = Candidates();
  const SelectBestResult r = eval.SelectBest(candidates, options);
  EXPECT_GE(r.best_index, 0);
  EXPECT_EQ(r.samples_used,
            static_cast<int64_t>(candidates.size()) * kSamples);
}

TEST(ReferenceSelectBest, FixedCountBooksSamplesUsedOnEveryEvaluator) {
  data::Dataset ds = data::MakeSmallAmazonSample();
  Problem problem = ds.MakeProblem(/*budget=*/100.0, /*num_promotions=*/2);
  CampaignConfig campaign;
  std::vector<UserId> market{1, 2, 3, 5, 8};

  SelectOptions fixed;
  SelectOptions fixed_market;
  fixed_market.use_market = true;
  for (const char* name : {"mc", "ris"}) {
    SCOPED_TRACE(name);
    SigmaBackendSpec spec;
    spec.name = name;
    spec.ris_sketches = 512;
    std::unique_ptr<SigmaBackend> backend =
        MakeSigmaBackend(spec, problem, campaign, kSamples,
                         /*num_threads=*/0, nullptr);
    const std::vector<SelectCandidate> candidates = Candidates();
    EXPECT_EQ(backend->SelectBest(candidates, fixed).samples_used,
              static_cast<int64_t>(candidates.size()) * kSamples);
    std::unique_ptr<ScheduleEval> eval =
        backend->MakeScheduleEval({{0, 0, 1}}, market);
    ExpectFixedSamplesUsed(*eval, fixed);
    ExpectFixedSamplesUsed(*eval, fixed_market);
  }
  // Adaptive mode with a single candidate never races: it is the fixed
  // loop too, and books the same count.
  MonteCarloEngine engine(problem, campaign, kSamples, /*num_threads=*/0);
  CheckpointedEval ce(engine, {{0, 0, 1}}, market);
  SelectOptions single;
  single.adaptive.enabled = true;
  const SelectBestResult r = ce.SelectBest({Candidates()[0]}, single);
  EXPECT_EQ(r.samples_used, kSamples);
}

}  // namespace
}  // namespace imdpp::diffusion
