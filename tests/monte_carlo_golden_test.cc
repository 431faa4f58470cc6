// Golden values of the Monte-Carlo engine's exact outputs: σ̂, the market
// triple, expected-state checksums, SelectBest results and all seven work
// counters, for fixed estimate sequences on a catalog dataset and on a
// substitute-heavy toy, under IC and LT. The other engine tests compare
// one estimate path against another (checkpointed vs from-scratch, one
// thread count vs another), so a drift shared by every path would pass
// them; these literals pin the absolute bits. Rows print in literal form
// on mismatch, so a deliberate change can be re-recorded from the output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "data/catalog.h"
#include "diffusion/monte_carlo.h"
#include "tests/test_util.h"

namespace imdpp::diffusion {
namespace {

enum GoldenWorld { kYelp, kToy };
constexpr DiffusionModel kIC = DiffusionModel::kIndependentCascade;
constexpr DiffusionModel kLT = DiffusionModel::kLinearThreshold;

constexpr int kSamples = 64;
constexpr int kThreads = 2;

struct GoldenRow {
  GoldenWorld world;
  DiffusionModel model;
  const char* label;
  double value;
};

/// A problem plus the seed atoms and market every sequence draws from.
struct World {
  const Problem* problem;
  Seed a, b, c, d, e;
  std::vector<UserId> market;
};

AdaptiveEvalConfig Racing() {
  AdaptiveEvalConfig config;
  config.enabled = true;
  config.block_samples = 4;
  config.min_samples = 4;
  return config;
}

/// Fixed-order weighted sum over every expected-state entry: any changed
/// bit in a float entry moves the double sum.
double Checksum(const ExpectedState& es, const Problem& p) {
  double sum = 0.0;
  int64_t i = 0;
  for (UserId u = 0; u < p.NumUsers(); ++u) {
    for (ItemId x = 0; x < p.NumItems(); ++x) {
      sum += static_cast<double>(i++ % 13 + 1) * es.AdoptionProb(u, x);
    }
    for (float w : es.AvgWmeta(u)) {
      sum += static_cast<double>(i++ % 13 + 1) * w;
    }
  }
  return sum;
}

class Recorder {
 public:
  void Put(const std::string& label, double value) {
    rows_.push_back({label, value});
  }
  void Counters(const std::string& prefix, const MonteCarloEngine& engine) {
    Put(prefix + ".simulations", engine.num_simulations());
    Put(prefix + ".rounds_simulated", engine.num_rounds_simulated());
    Put(prefix + ".rounds_skipped", engine.num_rounds_skipped());
    Put(prefix + ".memo_hits", engine.num_memo_hits());
    Put(prefix + ".blocks_run", engine.num_blocks_run());
    Put(prefix + ".early_stops", engine.num_early_stops());
    Put(prefix + ".samples_saved", engine.num_samples_saved());
  }
  void Market(const std::string& prefix, const MarketEval& eval) {
    Put(prefix + ".sigma", eval.sigma);
    Put(prefix + ".sigma_market", eval.sigma_market);
    Put(prefix + ".pi", eval.pi);
  }
  void Select(const std::string& prefix, const SelectBestResult& r) {
    Put(prefix + ".best_index", r.best_index);
    Put(prefix + ".best_score", r.best_score);
    Put(prefix + ".samples_used", static_cast<double>(r.samples_used));
  }
  const std::vector<std::pair<std::string, double>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

/// The estimate sequences, in a fixed order; every value lands in `rec`.
void RunSequences(const World& w, const CampaignConfig& campaign,
                  Recorder& rec) {
  const Problem& p = *w.problem;
  const auto [a, b, c, d, e] = std::tie(w.a, w.b, w.c, w.d, w.e);

  {  // Plain engine estimates, including the empty group.
    MonteCarloEngine engine(p, campaign, kSamples, kThreads);
    rec.Put("engine.sigma.abcd", engine.Sigma({a, b, c, d}));
    rec.Put("engine.sigma.ae", engine.Sigma({a, e}));
    rec.Put("engine.sigma.empty", engine.Sigma({}));
    rec.Market("engine.market.abcd", engine.EvalMarket({a, b, c, d}, w.market));
    rec.Market("engine.market.empty", engine.EvalMarket({}, w.market));
    rec.Put("engine.expected.abcd",
            Checksum(engine.Expected({a, b, c, d}), p));
    rec.Put("engine.expected.empty", Checksum(engine.Expected({}), p));
    rec.Select("engine.fixed",
               engine.SelectBest({{{a}, nullptr}, {{b, c}, nullptr},
                                  {{e}, nullptr}},
                                 SelectOptions{}));
    rec.Counters("engine", engine);
  }
  {  // Checkpointed estimates across two rebases, memo on.
    MonteCarloEngine engine(p, campaign, kSamples, kThreads);
    engine.EnableSigmaMemo();
    CheckpointedEval ce(engine, {a, b}, w.market);
    rec.Put("ce.sigma.abc", ce.Sigma({a, b, c}));
    rec.Market("ce.market.abd", ce.EvalMarket({a, b, d}));
    rec.Put("ce.expected.abcd", Checksum(ce.Expected({a, b, c, d}), p));
    ce.Rebase({a, b, c});
    rec.Put("ce.sigma.abcd", ce.Sigma({a, b, c, d}));
    rec.Market("ce.market.abce", ce.EvalMarket({a, b, c, e}));
    rec.Put("ce.expected.abce", Checksum(ce.Expected({a, b, c, e}), p));
    rec.Put("ce.sigma.abc.memo", ce.Sigma({a, b, c}));
    ce.Rebase({e});
    rec.Put("ce.sigma.ed", ce.Sigma({e, d}));
    rec.Put("ce.expected.empty", Checksum(ce.Expected({}), p));
    rec.Counters("ce", engine);
  }
  const Seed a2{a.user, a.item, 2};
  const Seed a3{a.user, a.item, 3};
  {  // Engine-level adaptive race.
    MonteCarloEngine engine(p, campaign, kSamples, kThreads);
    SelectOptions options;
    options.adaptive = Racing();
    auto halved = [](const MarketEval& ev) { return 0.5 * ev.sigma - 1.0; };
    rec.Select("race.engine",
               engine.SelectBest({{{a}, halved},
                                  {{a2}, halved},
                                  {{a, b}, halved},
                                  {{c}, halved},
                                  {{b, d}, halved},
                                  {{a3}, halved},
                                  {{b, d}, halved},
                                  {{}, halved}},
                                 options));
    rec.Counters("race.engine", engine);
  }
  {  // Checkpointed races: market-scored, then σ-scored after a rebase.
    MonteCarloEngine engine(p, campaign, kSamples, kThreads);
    CheckpointedEval ce(engine, {a}, w.market);
    SelectOptions options;
    options.adaptive = Racing();
    options.use_market = true;
    auto mixed = [](const MarketEval& ev) {
      return ev.sigma_market + 0.25 * ev.pi;
    };
    rec.Select("race.ce.market", ce.SelectBest({{{a, b}, mixed},
                                                {{a, c}, mixed},
                                                {{a, e}, mixed},
                                                {{a, d}, mixed},
                                                {{a, b, d}, mixed},
                                                {{a, b, d}, mixed}},
                                               options));
    ce.Rebase({a, c});
    options.use_market = false;
    rec.Select("race.ce.sigma", ce.SelectBest({{{a, c, d}, nullptr},
                                               {{a, c, e}, nullptr},
                                               {{a, c, b}, nullptr},
                                               {{a, c}, nullptr},
                                               {{a, c, b}, nullptr}},
                                              options));
    rec.Counters("race.ce", engine);
  }
  {  // Race and estimates from an observed (non-initial) state.
    MonteCarloEngine engine(p, campaign, kSamples, kThreads);
    const std::vector<pin::UserState> init =
        engine.simulator().RunSample({a, b}, 7, nullptr, true).states;
    engine.SetInitialStates(&init);
    rec.Put("init.sigma.c", engine.Sigma({c}));
    SelectOptions options;
    options.adaptive = Racing();
    rec.Select("race.init", engine.SelectBest({{{c}, nullptr},
                                               {{d}, nullptr},
                                               {{c, e}, nullptr},
                                               {{e}, nullptr},
                                               {{c, e}, nullptr}},
                                              options));
    rec.Counters("race.init", engine);
  }
}

// clang-format off
const GoldenRow kGoldenRows[] = {
    {kYelp, kIC, "engine.sigma.abcd", 0x1.2c4cae0f6ca67p+5},
    {kYelp, kIC, "engine.sigma.ae", 0x1.1078e67eccacdp+3},
    {kYelp, kIC, "engine.sigma.empty", 0x0p+0},
    {kYelp, kIC, "engine.market.abcd.sigma", 0x1.2c4cae0f6ca67p+5},
    {kYelp, kIC, "engine.market.abcd.sigma_market", 0x1.8317f1d51b963p+3},
    {kYelp, kIC, "engine.market.abcd.pi", 0x1.ae24db8f750a4p+1},
    {kYelp, kIC, "engine.market.empty.sigma", 0x0p+0},
    {kYelp, kIC, "engine.market.empty.sigma_market", 0x0p+0},
    {kYelp, kIC, "engine.market.empty.pi", 0x0p+0},
    {kYelp, kIC, "engine.expected.abcd", 0x1.e94d72ed2p+11},
    {kYelp, kIC, "engine.expected.empty", 0x1.d621a3a5d8p+11},
    {kYelp, kIC, "engine.fixed.best_index", 0x1p+0},
    {kYelp, kIC, "engine.fixed.best_score", 0x1.8828ae0e4f9e3p+4},
    {kYelp, kIC, "engine.fixed.samples_used", 0x1.8p+7},
    {kYelp, kIC, "engine.simulations", 0x1.4p+9},
    {kYelp, kIC, "engine.rounds_simulated", 0x1.ep+9},
    {kYelp, kIC, "engine.rounds_skipped", 0x1.ep+9},
    {kYelp, kIC, "engine.memo_hits", 0x0p+0},
    {kYelp, kIC, "engine.blocks_run", 0x0p+0},
    {kYelp, kIC, "engine.early_stops", 0x0p+0},
    {kYelp, kIC, "engine.samples_saved", 0x0p+0},
    {kYelp, kIC, "ce.sigma.abc", 0x1.eae0653aab754p+4},
    {kYelp, kIC, "ce.market.abd.sigma", 0x1.b5b3f18e7b579p+4},
    {kYelp, kIC, "ce.market.abd.sigma_market", 0x1.e497717254cb9p+2},
    {kYelp, kIC, "ce.market.abd.pi", 0x1.3df3a79344e7ep+1},
    {kYelp, kIC, "ce.expected.abcd", 0x1.e94d72ed2p+11},
    {kYelp, kIC, "ce.sigma.abcd", 0x1.2c4cae0f6ca67p+5},
    {kYelp, kIC, "ce.market.abce.sigma", 0x1.09e0abe6e1accp+5},
    {kYelp, kIC, "ce.market.abce.sigma_market", 0x1.8092b3e83ff52p+3},
    {kYelp, kIC, "ce.market.abce.pi", 0x1.91a725fae8686p+1},
    {kYelp, kIC, "ce.expected.abce", 0x1.e6efccd528p+11},
    {kYelp, kIC, "ce.sigma.abc.memo", 0x1.eae0653aab754p+4},
    {kYelp, kIC, "ce.sigma.ed", 0x1.2d608ec9f6b87p+3},
    {kYelp, kIC, "ce.expected.empty", 0x1.d621a3a5d8p+11},
    {kYelp, kIC, "ce.simulations", 0x1p+9},
    {kYelp, kIC, "ce.rounds_simulated", 0x1.6p+9},
    {kYelp, kIC, "ce.rounds_skipped", 0x1p+10},
    {kYelp, kIC, "ce.memo_hits", 0x1p+0},
    {kYelp, kIC, "ce.blocks_run", 0x0p+0},
    {kYelp, kIC, "ce.early_stops", 0x0p+0},
    {kYelp, kIC, "ce.samples_saved", 0x0p+0},
    {kYelp, kIC, "race.engine.best_index", 0x1p+2},
    {kYelp, kIC, "race.engine.best_score", 0x1.32fc3a621f80ap+3},
    {kYelp, kIC, "race.engine.samples_used", 0x1.02p+9},
    {kYelp, kIC, "race.engine.simulations", 0x1.02p+9},
    {kYelp, kIC, "race.engine.rounds_simulated", 0x1.24p+9},
    {kYelp, kIC, "race.engine.rounds_skipped", 0x1.1ep+10},
    {kYelp, kIC, "race.engine.memo_hits", 0x0p+0},
    {kYelp, kIC, "race.engine.blocks_run", 0x1.c4p+6},
    {kYelp, kIC, "race.engine.early_stops", 0x1p+0},
    {kYelp, kIC, "race.engine.samples_saved", 0x1.ep+5},
    {kYelp, kIC, "race.ce.market.best_index", 0x1p+0},
    {kYelp, kIC, "race.ce.market.best_score", 0x1.a2041c9ddad37p+2},
    {kYelp, kIC, "race.ce.market.samples_used", 0x1.8cp+8},
    {kYelp, kIC, "race.ce.sigma.best_index", 0x0p+0},
    {kYelp, kIC, "race.ce.sigma.best_score", 0x1.6fae2ba64ce54p+4},
    {kYelp, kIC, "race.ce.sigma.samples_used", 0x1.44p+8},
    {kYelp, kIC, "race.ce.simulations", 0x1.68p+9},
    {kYelp, kIC, "race.ce.rounds_simulated", 0x1.08p+10},
    {kYelp, kIC, "race.ce.rounds_skipped", 0x1.68p+10},
    {kYelp, kIC, "race.ce.memo_hits", 0x0p+0},
    {kYelp, kIC, "race.ce.blocks_run", 0x1.28p+7},
    {kYelp, kIC, "race.ce.early_stops", 0x1p+1},
    {kYelp, kIC, "race.ce.samples_saved", 0x1.cp+6},
    {kYelp, kIC, "init.sigma.c", 0x1.45329a83bd667p+3},
    {kYelp, kIC, "race.init.best_index", 0x1p+1},
    {kYelp, kIC, "race.init.best_score", 0x1.9be1a0576e19bp+3},
    {kYelp, kIC, "race.init.samples_used", 0x1.44p+8},
    {kYelp, kIC, "race.init.simulations", 0x1.84p+8},
    {kYelp, kIC, "race.init.rounds_simulated", 0x1.84p+8},
    {kYelp, kIC, "race.init.rounds_skipped", 0x1.dep+9},
    {kYelp, kIC, "race.init.memo_hits", 0x0p+0},
    {kYelp, kIC, "race.init.blocks_run", 0x1.04p+6},
    {kYelp, kIC, "race.init.early_stops", 0x1p+0},
    {kYelp, kIC, "race.init.samples_saved", 0x1.ep+5},
    {kYelp, kLT, "engine.sigma.abcd", 0x1.1ad1ffe258e69p+5},
    {kYelp, kLT, "engine.sigma.ae", 0x1.0696f0d9eba3cp+3},
    {kYelp, kLT, "engine.sigma.empty", 0x0p+0},
    {kYelp, kLT, "engine.market.abcd.sigma", 0x1.1ad1ffe258e69p+5},
    {kYelp, kLT, "engine.market.abcd.sigma_market", 0x1.85782d34a71eap+3},
    {kYelp, kLT, "engine.market.abcd.pi", 0x1.b1483f1c549fdp+1},
    {kYelp, kLT, "engine.market.empty.sigma", 0x0p+0},
    {kYelp, kLT, "engine.market.empty.sigma_market", 0x0p+0},
    {kYelp, kLT, "engine.market.empty.pi", 0x0p+0},
    {kYelp, kLT, "engine.expected.abcd", 0x1.e83600274p+11},
    {kYelp, kLT, "engine.expected.empty", 0x1.d621a3a5d8p+11},
    {kYelp, kLT, "engine.fixed.best_index", 0x1p+0},
    {kYelp, kLT, "engine.fixed.best_score", 0x1.6d0f180256758p+4},
    {kYelp, kLT, "engine.fixed.samples_used", 0x1.8p+7},
    {kYelp, kLT, "engine.simulations", 0x1.4p+9},
    {kYelp, kLT, "engine.rounds_simulated", 0x1.ep+9},
    {kYelp, kLT, "engine.rounds_skipped", 0x1.ep+9},
    {kYelp, kLT, "engine.memo_hits", 0x0p+0},
    {kYelp, kLT, "engine.blocks_run", 0x0p+0},
    {kYelp, kLT, "engine.early_stops", 0x0p+0},
    {kYelp, kLT, "engine.samples_saved", 0x0p+0},
    {kYelp, kLT, "ce.sigma.abc", 0x1.c92adeafa06a3p+4},
    {kYelp, kLT, "ce.market.abd.sigma", 0x1.89925fb9cf8a4p+4},
    {kYelp, kLT, "ce.market.abd.sigma_market", 0x1.d6a2cb9bd629cp+2},
    {kYelp, kLT, "ce.market.abd.pi", 0x1.3d8bcd2cb6d0fp+1},
    {kYelp, kLT, "ce.expected.abcd", 0x1.e83600274p+11},
    {kYelp, kLT, "ce.sigma.abcd", 0x1.1ad1ffe258e69p+5},
    {kYelp, kLT, "ce.market.abce.sigma", 0x1.f19efc51ab137p+4},
    {kYelp, kLT, "ce.market.abce.sigma_market", 0x1.80738a710ad88p+3},
    {kYelp, kLT, "ce.market.abce.pi", 0x1.8d38a47c37ed7p+1},
    {kYelp, kLT, "ce.expected.abce", 0x1.e5f0ea409p+11},
    {kYelp, kLT, "ce.sigma.abc.memo", 0x1.c92adeafa06a3p+4},
    {kYelp, kLT, "ce.sigma.ed", 0x1.2c496309614e5p+3},
    {kYelp, kLT, "ce.expected.empty", 0x1.d621a3a5d8p+11},
    {kYelp, kLT, "ce.simulations", 0x1p+9},
    {kYelp, kLT, "ce.rounds_simulated", 0x1.6p+9},
    {kYelp, kLT, "ce.rounds_skipped", 0x1p+10},
    {kYelp, kLT, "ce.memo_hits", 0x1p+0},
    {kYelp, kLT, "ce.blocks_run", 0x0p+0},
    {kYelp, kLT, "ce.early_stops", 0x0p+0},
    {kYelp, kLT, "ce.samples_saved", 0x0p+0},
    {kYelp, kLT, "race.engine.best_index", 0x1p+2},
    {kYelp, kLT, "race.engine.best_score", 0x1.0e0e53c98a433p+3},
    {kYelp, kLT, "race.engine.samples_used", 0x1.04p+9},
    {kYelp, kLT, "race.engine.simulations", 0x1.04p+9},
    {kYelp, kLT, "race.engine.rounds_simulated", 0x1.28p+9},
    {kYelp, kLT, "race.engine.rounds_skipped", 0x1.1cp+10},
    {kYelp, kLT, "race.engine.memo_hits", 0x0p+0},
    {kYelp, kLT, "race.engine.blocks_run", 0x1.c8p+6},
    {kYelp, kLT, "race.engine.early_stops", 0x1p+0},
    {kYelp, kLT, "race.engine.samples_saved", 0x1.cp+5},
    {kYelp, kLT, "race.ce.market.best_index", 0x1p+0},
    {kYelp, kLT, "race.ce.market.best_score", 0x1.bbe3cf709acbep+2},
    {kYelp, kLT, "race.ce.market.samples_used", 0x1.88p+8},
    {kYelp, kLT, "race.ce.sigma.best_index", 0x1p+1},
    {kYelp, kLT, "race.ce.sigma.best_score", 0x1.c92adeafa06a3p+4},
    {kYelp, kLT, "race.ce.sigma.samples_used", 0x1.48p+8},
    {kYelp, kLT, "race.ce.simulations", 0x1.68p+9},
    {kYelp, kLT, "race.ce.rounds_simulated", 0x1.08p+10},
    {kYelp, kLT, "race.ce.rounds_skipped", 0x1.68p+10},
    {kYelp, kLT, "race.ce.memo_hits", 0x0p+0},
    {kYelp, kLT, "race.ce.blocks_run", 0x1.28p+7},
    {kYelp, kLT, "race.ce.early_stops", 0x1p+1},
    {kYelp, kLT, "race.ce.samples_saved", 0x1.cp+6},
    {kYelp, kLT, "init.sigma.c", 0x1.656d03e72c87p+3},
    {kYelp, kLT, "race.init.best_index", 0x1p+1},
    {kYelp, kLT, "race.init.best_score", 0x1.0c5cb5e23b543p+4},
    {kYelp, kLT, "race.init.samples_used", 0x1.44p+8},
    {kYelp, kLT, "race.init.simulations", 0x1.84p+8},
    {kYelp, kLT, "race.init.rounds_simulated", 0x1.84p+8},
    {kYelp, kLT, "race.init.rounds_skipped", 0x1.dep+9},
    {kYelp, kLT, "race.init.memo_hits", 0x0p+0},
    {kYelp, kLT, "race.init.blocks_run", 0x1.04p+6},
    {kYelp, kLT, "race.init.early_stops", 0x1p+0},
    {kYelp, kLT, "race.init.samples_saved", 0x1.ep+5},
    {kToy, kIC, "engine.sigma.abcd", 0x1.d4p+4},
    {kToy, kIC, "engine.sigma.ae", 0x1.d76p+3},
    {kToy, kIC, "engine.sigma.empty", 0x0p+0},
    {kToy, kIC, "engine.market.abcd.sigma", 0x1.d4p+4},
    {kToy, kIC, "engine.market.abcd.sigma_market", 0x1.2b9p+4},
    {kToy, kIC, "engine.market.abcd.pi", 0x1.72e03d2b08663p+1},
    {kToy, kIC, "engine.market.empty.sigma", 0x0p+0},
    {kToy, kIC, "engine.market.empty.sigma_market", 0x0p+0},
    {kToy, kIC, "engine.market.empty.pi", 0x0p+0},
    {kToy, kIC, "engine.expected.abcd", 0x1.f4aab77ap+7},
    {kToy, kIC, "engine.expected.empty", 0x1.f599a4b4p+6},
    {kToy, kIC, "engine.fixed.best_index", 0x1p+0},
    {kToy, kIC, "engine.fixed.best_score", 0x1.5acp+4},
    {kToy, kIC, "engine.fixed.samples_used", 0x1.8p+7},
    {kToy, kIC, "engine.simulations", 0x1.4p+9},
    {kToy, kIC, "engine.rounds_simulated", 0x1.ep+9},
    {kToy, kIC, "engine.rounds_skipped", 0x1.ep+9},
    {kToy, kIC, "engine.memo_hits", 0x0p+0},
    {kToy, kIC, "engine.blocks_run", 0x0p+0},
    {kToy, kIC, "engine.early_stops", 0x0p+0},
    {kToy, kIC, "engine.samples_saved", 0x0p+0},
    {kToy, kIC, "ce.sigma.abc", 0x1.9d7p+4},
    {kToy, kIC, "ce.market.abd.sigma", 0x1.35bp+4},
    {kToy, kIC, "ce.market.abd.sigma_market", 0x1.7a4p+3},
    {kToy, kIC, "ce.market.abd.pi", 0x1.224f3a9d25517p+1},
    {kToy, kIC, "ce.expected.abcd", 0x1.f4aab77ap+7},
    {kToy, kIC, "ce.sigma.abcd", 0x1.d4p+4},
    {kToy, kIC, "ce.market.abce.sigma", 0x1.eacp+4},
    {kToy, kIC, "ce.market.abce.sigma_market", 0x1.2e3p+4},
    {kToy, kIC, "ce.market.abce.pi", 0x1.7384290e93f5fp+1},
    {kToy, kIC, "ce.expected.abce", 0x1.f949adbcp+7},
    {kToy, kIC, "ce.sigma.abc.memo", 0x1.9d7p+4},
    {kToy, kIC, "ce.sigma.ed", 0x1.0aep+4},
    {kToy, kIC, "ce.expected.empty", 0x1.f599a4b4p+6},
    {kToy, kIC, "ce.simulations", 0x1p+9},
    {kToy, kIC, "ce.rounds_simulated", 0x1.6p+9},
    {kToy, kIC, "ce.rounds_skipped", 0x1p+10},
    {kToy, kIC, "ce.memo_hits", 0x1p+0},
    {kToy, kIC, "ce.blocks_run", 0x0p+0},
    {kToy, kIC, "ce.early_stops", 0x0p+0},
    {kToy, kIC, "ce.samples_saved", 0x0p+0},
    {kToy, kIC, "race.engine.best_index", 0x1.8p+1},
    {kToy, kIC, "race.engine.best_score", 0x1.afcp+2},
    {kToy, kIC, "race.engine.samples_used", 0x1.2p+9},
    {kToy, kIC, "race.engine.simulations", 0x1.2p+9},
    {kToy, kIC, "race.engine.rounds_simulated", 0x1.4p+9},
    {kToy, kIC, "race.engine.rounds_skipped", 0x1.1p+10},
    {kToy, kIC, "race.engine.memo_hits", 0x0p+0},
    {kToy, kIC, "race.engine.blocks_run", 0x1p+7},
    {kToy, kIC, "race.engine.early_stops", 0x0p+0},
    {kToy, kIC, "race.engine.samples_saved", 0x0p+0},
    {kToy, kIC, "race.ce.market.best_index", 0x1p+0},
    {kToy, kIC, "race.ce.market.best_score", 0x1.b50dd88e570f1p+3},
    {kToy, kIC, "race.ce.market.samples_used", 0x1.cp+8},
    {kToy, kIC, "race.ce.sigma.best_index", 0x1p+1},
    {kToy, kIC, "race.ce.sigma.best_score", 0x1.9d7p+4},
    {kToy, kIC, "race.ce.sigma.samples_used", 0x1.78p+8},
    {kToy, kIC, "race.ce.simulations", 0x1.9cp+9},
    {kToy, kIC, "race.ce.rounds_simulated", 0x1.3cp+10},
    {kToy, kIC, "race.ce.rounds_skipped", 0x1.34p+10},
    {kToy, kIC, "race.ce.memo_hits", 0x0p+0},
    {kToy, kIC, "race.ce.blocks_run", 0x1.5cp+7},
    {kToy, kIC, "race.ce.early_stops", 0x1p+0},
    {kToy, kIC, "race.ce.samples_saved", 0x1p+3},
    {kToy, kIC, "init.sigma.c", 0x1.ae2p+3},
    {kToy, kIC, "race.init.best_index", 0x0p+0},
    {kToy, kIC, "race.init.best_score", 0x1.ae2p+3},
    {kToy, kIC, "race.init.samples_used", 0x1.54p+8},
    {kToy, kIC, "race.init.simulations", 0x1.94p+8},
    {kToy, kIC, "race.init.rounds_simulated", 0x1.94p+8},
    {kToy, kIC, "race.init.rounds_skipped", 0x1.d6p+9},
    {kToy, kIC, "race.init.memo_hits", 0x0p+0},
    {kToy, kIC, "race.init.blocks_run", 0x1.14p+6},
    {kToy, kIC, "race.init.early_stops", 0x1p+0},
    {kToy, kIC, "race.init.samples_saved", 0x1.6p+5},
    {kToy, kLT, "engine.sigma.abcd", 0x1.07b8p+5},
    {kToy, kLT, "engine.sigma.ae", 0x1.32dp+4},
    {kToy, kLT, "engine.sigma.empty", 0x0p+0},
    {kToy, kLT, "engine.market.abcd.sigma", 0x1.07b8p+5},
    {kToy, kLT, "engine.market.abcd.sigma_market", 0x1.47ep+4},
    {kToy, kLT, "engine.market.abcd.pi", 0x1.5f7ce7e5070edp+1},
    {kToy, kLT, "engine.market.empty.sigma", 0x0p+0},
    {kToy, kLT, "engine.market.empty.sigma_market", 0x0p+0},
    {kToy, kLT, "engine.market.empty.pi", 0x0p+0},
    {kToy, kLT, "engine.expected.abcd", 0x1.0d861678p+8},
    {kToy, kLT, "engine.expected.empty", 0x1.f599a4b4p+6},
    {kToy, kLT, "engine.fixed.best_index", 0x1p+0},
    {kToy, kLT, "engine.fixed.best_score", 0x1.80fp+4},
    {kToy, kLT, "engine.fixed.samples_used", 0x1.8p+7},
    {kToy, kLT, "engine.simulations", 0x1.4p+9},
    {kToy, kLT, "engine.rounds_simulated", 0x1.ep+9},
    {kToy, kLT, "engine.rounds_skipped", 0x1.ep+9},
    {kToy, kLT, "engine.memo_hits", 0x0p+0},
    {kToy, kLT, "engine.blocks_run", 0x0p+0},
    {kToy, kLT, "engine.early_stops", 0x0p+0},
    {kToy, kLT, "engine.samples_saved", 0x0p+0},
    {kToy, kLT, "ce.sigma.abc", 0x1.e37p+4},
    {kToy, kLT, "ce.market.abd.sigma", 0x1.3d6p+4},
    {kToy, kLT, "ce.market.abd.sigma_market", 0x1.75ep+3},
    {kToy, kLT, "ce.market.abd.pi", 0x1.1e8258eca4079p+1},
    {kToy, kLT, "ce.expected.abcd", 0x1.0d861678p+8},
    {kToy, kLT, "ce.sigma.abcd", 0x1.07b8p+5},
    {kToy, kLT, "ce.market.abce.sigma", 0x1.0588p+5},
    {kToy, kLT, "ce.market.abce.sigma_market", 0x1.38fp+4},
    {kToy, kLT, "ce.market.abce.pi", 0x1.756947c246e6cp+1},
    {kToy, kLT, "ce.expected.abce", 0x1.0611293cp+8},
    {kToy, kLT, "ce.sigma.abc.memo", 0x1.e37p+4},
    {kToy, kLT, "ce.sigma.ed", 0x1.2ddp+4},
    {kToy, kLT, "ce.expected.empty", 0x1.f599a4b4p+6},
    {kToy, kLT, "ce.simulations", 0x1p+9},
    {kToy, kLT, "ce.rounds_simulated", 0x1.6p+9},
    {kToy, kLT, "ce.rounds_skipped", 0x1p+10},
    {kToy, kLT, "ce.memo_hits", 0x1p+0},
    {kToy, kLT, "ce.blocks_run", 0x0p+0},
    {kToy, kLT, "ce.early_stops", 0x0p+0},
    {kToy, kLT, "ce.samples_saved", 0x0p+0},
    {kToy, kLT, "race.engine.best_index", 0x1.8p+1},
    {kToy, kLT, "race.engine.best_score", 0x1.12dp+3},
    {kToy, kLT, "race.engine.samples_used", 0x1.06p+9},
    {kToy, kLT, "race.engine.simulations", 0x1.06p+9},
    {kToy, kLT, "race.engine.rounds_simulated", 0x1.0cp+9},
    {kToy, kLT, "race.engine.rounds_skipped", 0x1.2ap+10},
    {kToy, kLT, "race.engine.memo_hits", 0x0p+0},
    {kToy, kLT, "race.engine.blocks_run", 0x1.ccp+6},
    {kToy, kLT, "race.engine.early_stops", 0x1p+0},
    {kToy, kLT, "race.engine.samples_saved", 0x1.ap+5},
    {kToy, kLT, "race.ce.market.best_index", 0x1p+0},
    {kToy, kLT, "race.ce.market.best_score", 0x1.267c4fb5181bep+4},
    {kToy, kLT, "race.ce.market.samples_used", 0x1.84p+8},
    {kToy, kLT, "race.ce.sigma.best_index", 0x0p+0},
    {kToy, kLT, "race.ce.sigma.best_score", 0x1.f65p+4},
    {kToy, kLT, "race.ce.sigma.samples_used", 0x1.44p+8},
    {kToy, kLT, "race.ce.simulations", 0x1.64p+9},
    {kToy, kLT, "race.ce.rounds_simulated", 0x1.04p+10},
    {kToy, kLT, "race.ce.rounds_skipped", 0x1.6cp+10},
    {kToy, kLT, "race.ce.memo_hits", 0x0p+0},
    {kToy, kLT, "race.ce.blocks_run", 0x1.24p+7},
    {kToy, kLT, "race.ce.early_stops", 0x1p+1},
    {kToy, kLT, "race.ce.samples_saved", 0x1.ep+6},
    {kToy, kLT, "init.sigma.c", 0x1.e38p+3},
    {kToy, kLT, "race.init.best_index", 0x1p+1},
    {kToy, kLT, "race.init.best_score", 0x1.28ap+4},
    {kToy, kLT, "race.init.samples_used", 0x1.3p+8},
    {kToy, kLT, "race.init.simulations", 0x1.7p+8},
    {kToy, kLT, "race.init.rounds_simulated", 0x1.7p+8},
    {kToy, kLT, "race.init.rounds_skipped", 0x1.e8p+9},
    {kToy, kLT, "race.init.memo_hits", 0x0p+0},
    {kToy, kLT, "race.init.blocks_run", 0x1.ep+5},
    {kToy, kLT, "race.init.early_stops", 0x1p+1},
    {kToy, kLT, "race.init.samples_saved", 0x1.4p+6},
};
// clang-format on

std::string GoldenLiteral(GoldenWorld world, DiffusionModel model,
                          const std::string& label, double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%s, %s, \"%s\", %a},",
                world == kYelp ? "kYelp" : "kToy",
                model == kIC ? "kIC" : "kLT", label.c_str(), value);
  return buf;
}

TEST(MonteCarloGolden, EstimatesRacesAndCountersMatchRecordedBits) {
  const data::Dataset yelp = data::MakeYelpLike(0.5);
  const Problem yelp_problem = yelp.MakeProblem(/*budget=*/500.0, 3);
  const testutil::TinyWorld toy = testutil::SubstituteHeavyToy();
  std::vector<UserId> yelp_market;
  for (UserId u = 1; u < yelp_problem.NumUsers(); u += 3) {
    yelp_market.push_back(u);
  }
  const World worlds[] = {
      {&yelp_problem, {0, 0, 1}, {14, 18, 1}, {52, 15, 2}, {111, 10, 3},
       {7, 3, 2}, yelp_market},
      {&toy.problem, {0, 0, 1}, {3, 2, 1}, {5, 4, 2}, {1, 1, 3}, {6, 5, 2},
       {1, 2, 4, 5, 7}},
  };

  size_t next = 0;
  for (GoldenWorld world : {kYelp, kToy}) {
    for (DiffusionModel model : {kIC, kLT}) {
      CampaignConfig campaign;
      campaign.model = model;
      Recorder rec;
      RunSequences(worlds[world], campaign, rec);
      for (const auto& [label, value] : rec.rows()) {
        const std::string literal = GoldenLiteral(world, model, label, value);
        ASSERT_LT(next, std::size(kGoldenRows)) << "unrecorded: " << literal;
        const GoldenRow& want = kGoldenRows[next++];
        EXPECT_EQ(want.world, world) << literal;
        EXPECT_EQ(want.model, model) << literal;
        EXPECT_EQ(want.label, label) << literal;
        EXPECT_EQ(want.value, value) << literal;
      }
    }
  }
  EXPECT_EQ(next, std::size(kGoldenRows));
}

}  // namespace
}  // namespace imdpp::diffusion
