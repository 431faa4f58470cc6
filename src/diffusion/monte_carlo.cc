#include "diffusion/monte_carlo.h"

#include <algorithm>
#include <utility>

#include "util/fault_injection.h"
#include "util/trace.h"

namespace imdpp::diffusion {

namespace {

/// Shard-count cap. Enough shards to load-balance any plausible core
/// count, few enough that per-shard partial state (one ExpectedState in
/// Expected()) stays small. Must depend on nothing but this constant and
/// the sample count: the shard layout IS the reduction tree, and a fixed
/// tree is what makes results bit-identical across thread counts.
constexpr int kMaxShards = 32;

/// Serial cutoff (ISSUE 3): below this many realizations per estimate the
/// pool dispatch overhead is not worth paying; run inline. Scheduling
/// only — the shard layout and therefore the results are unchanged.
constexpr int kMinParallelSamples = 8;

/// Per-worker simulation arena. Thread-local rather than engine-owned so
/// every engine sharing a pool (or a caller thread hopping between
/// engines) reuses one arena per thread; SimScratch::Bind reshapes only
/// when the problem dimensions actually change.
SimScratch& LocalScratch() { return ThreadLocalSimScratch(); }

}  // namespace

ExpectedState::ExpectedState(int num_users, int num_items, int num_metas)
    : num_users_(num_users),
      num_items_(num_items),
      num_metas_(num_metas),
      adoption_prob_(static_cast<size_t>(num_users) * num_items, 0.0f),
      avg_wmeta_(static_cast<size_t>(num_users) * num_metas, 0.0f) {}

double ExpectedState::AvgRel(const pin::PersonalItemNetwork& pin,
                             const std::vector<UserId>& users, ItemId x,
                             ItemId y, bool complementary) const {
  double s = 0.0;
  int n = 0;
  auto add = [&](UserId u) {
    std::span<const float> w = AvgWmeta(u);
    s += complementary ? pin.RelC(w, x, y) : pin.RelS(w, x, y);
    ++n;
  };
  if (users.empty()) {
    for (UserId u = 0; u < num_users_; ++u) add(u);
  } else {
    for (UserId u : users) add(u);
  }
  return n == 0 ? 0.0 : s / n;
}

double ExpectedState::AvgRelC(const pin::PersonalItemNetwork& pin,
                              const std::vector<UserId>& users, ItemId x,
                              ItemId y) const {
  return AvgRel(pin, users, x, y, /*complementary=*/true);
}

double ExpectedState::AvgRelS(const pin::PersonalItemNetwork& pin,
                              const std::vector<UserId>& users, ItemId x,
                              ItemId y) const {
  return AvgRel(pin, users, x, y, /*complementary=*/false);
}

ExpectedState ExpectedState::InitialOf(const Problem& problem) {
  ExpectedState es(problem.NumUsers(), problem.NumItems(), problem.NumMetas());
  es.avg_wmeta_ = problem.wmeta0;
  return es;
}

MonteCarloEngine::MonteCarloEngine(
    const Problem& problem, const CampaignConfig& config, int num_samples,
    int num_threads, std::shared_ptr<util::ThreadPool> shared_pool,
    std::shared_ptr<const util::CancelToken> cancel)
    : sim_(problem, config),
      num_samples_(num_samples),
      num_threads_(util::ResolveNumThreads(num_threads)),
      shared_pool_(std::move(shared_pool)),
      cancel_(std::move(cancel)) {
  IMDPP_CHECK_GT(num_samples, 0);
  // Keep the never-null invariant: fault propagation and the shard-loop
  // checks always have a token, whether or not the caller provided one.
  if (cancel_ == nullptr) cancel_ = std::make_shared<util::CancelToken>();
}

bool MonteCarloEngine::BeginEstimate() const {
  util::Status fault = util::FaultInjector::Global().Hit("eval.sigma");
  if (!fault.ok()) cancel_->Cancel(std::move(fault));
  return cancel_->Check().ok();
}

int MonteCarloEngine::NumShards() const {
  return std::min(num_samples_, kMaxShards);
}

int MonteCarloEngine::ShardBegin(int shard) const {
  return static_cast<int>(static_cast<int64_t>(num_samples_) * shard /
                          NumShards());
}

bool MonteCarloEngine::RunsParallel() const {
  return num_threads_ > 1 && NumShards() > 1 &&
         num_samples_ >= kMinParallelSamples;
}

void MonteCarloEngine::RunShards(const std::function<void(int)>& fn) const {
  const int num_shards = NumShards();
  if (RunsParallel()) {
    util::ThreadPool* pool = shared_pool_.get();
    if (pool == nullptr) {
      if (pool_ == nullptr) {
        // More workers than shards could never claim a task, so cap the
        // spawn count; the shard layout (and thus the result) is unchanged.
        pool_ = std::make_unique<util::ThreadPool>(
            std::min(num_threads_, num_shards) - 1);
      }
      pool = pool_.get();
    }
    pool->ParallelFor(num_shards, fn);
  } else {
    for (int shard = 0; shard < num_shards; ++shard) fn(shard);
  }
}

bool MonteCarloEngine::Answered(const SeedGroup& seeds,
                                const std::vector<UserId>* market,
                                MarketEval* eval) const {
  if (!BeginEstimate()) return true;
  if (!MemoEnabled()) return false;
  if (market == nullptr) {
    auto it = sigma_memo_.find(seeds);
    if (it == sigma_memo_.end()) return false;
    eval->sigma = it->second;
  } else {
    auto market_it = market_memo_.find(*market);
    if (market_it == market_memo_.end()) return false;
    auto it = market_it->second.find(seeds);
    if (it == market_it->second.end()) return false;
    *eval = it->second;
  }
  ++num_memo_hits_;
  num_rounds_skipped_ += static_cast<int64_t>(num_samples_) *
                         sim_.problem().num_promotions;
  RecordSigmaEstimate(eval->sigma);
  return true;
}

MarketEval MonteCarloEngine::Remember(const SeedGroup& seeds,
                                      const std::vector<UserId>* market,
                                      const MarketEval& eval) const {
  if (Cancelled()) return eval;
  if (MemoEnabled()) {
    if (market == nullptr) {
      if (sigma_memo_.size() < kMemoCapacity) {
        sigma_memo_.emplace(seeds, eval.sigma);
      }
    } else if (market_memo_entries_ < kMemoCapacity &&
               market_memo_[*market].emplace(seeds, eval).second) {
      ++market_memo_entries_;
    }
  }
  RecordSigmaEstimate(eval.sigma);
  return eval;
}

const std::vector<uint8_t>* MonteCarloEngine::CachedMask(
    const std::vector<UserId>& users) const {
  if (!mask_valid_ || users != mask_users_) {
    mask_users_ = users;
    mask_.assign(static_cast<size_t>(sim_.problem().NumUsers()), 0);
    for (UserId u : users) mask_[static_cast<size_t>(u)] = 1;
    mask_valid_ = true;
  }
  return &mask_;
}

void MonteCarloEngine::ChargeEstimate(int rounds_run) const {
  num_simulations_ += num_samples_;
  const int64_t samples = num_samples_;
  num_rounds_simulated_ += samples * rounds_run;
  num_rounds_skipped_ +=
      samples * (sim_.problem().num_promotions - rounds_run);
}

// --------------------------------------------------------------------------
// The sample kernel and what is built on it

template <typename PerSample>
int MonteCarloEngine::RunSamples(const SampleRun& run, int s_begin,
                                 int s_end, PerSample&& per_sample) const {
  const std::vector<pin::UserState>* initial = initial_states_;
  std::vector<int> rounds_by_shard(NumShards(), -1);
  RunShards([&](int shard) {
    SimScratch& scratch = LocalScratch();
    const int lo = std::max(ShardBegin(shard), s_begin);
    const int hi = std::min(ShardBegin(shard + 1), s_end);
    int rounds = -1;
    for (int s = lo; s < hi; ++s) {
      if (!cancel_->Check().ok()) break;
      const auto sample = static_cast<size_t>(s);
      sim_.Restore(run.resume == 0
                       ? nullptr
                       : &run.lattice->rows[static_cast<size_t>(
                             run.resume - 1)][sample],
                   initial, scratch);
      if (run.capture) {
        rounds = 0;
        for (int k = run.resume + 1; k <= run.t_end; ++k) {
          rounds += sim_.SimulateRounds(*run.sched, sample, k, k, run.mask,
                                        scratch, run.align_from);
          sim_.Capture(scratch,
                       run.lattice->rows[static_cast<size_t>(k - 1)][sample]);
        }
      } else {
        rounds = sim_.SimulateRounds(*run.sched, sample, run.resume + 1,
                                     run.t_end, run.mask, scratch,
                                     run.align_from);
      }
      per_sample(shard, s, scratch);
    }
    rounds_by_shard[shard] = rounds;
  });
  if (Cancelled()) return -1;
  // The rounds executed per sample are a schedule property; take the first
  // shard that ran samples of the range (a fixed function of the shard
  // layout and the range — deterministic).
  for (int rounds : rounds_by_shard) {
    if (rounds >= 0) return rounds;
  }
  return 0;
}

MarketEval MonteCarloEngine::EstimateMarket(
    const SampleRun& run, const std::vector<UserId>* pi_market) const {
  std::vector<MarketEval> partial(NumShards());
  const int rounds_run = RunSamples(
      run, 0, num_samples_,
      [&](int shard, int, const SimScratch& scratch) {
        MarketEval& acc = partial[shard];  // per-shard slot
        acc.sigma += scratch.sigma();
        acc.sigma_market += scratch.sigma_market();
        if (pi_market != nullptr) {
          acc.pi += sim_.LikelihoodPi(scratch.states(), *pi_market);
        }
      });
  if (rounds_run < 0) return MarketEval{};
  MarketEval out;
  for (const MarketEval& acc : partial) {  // fixed shard order
    out.sigma += acc.sigma;
    out.sigma_market += acc.sigma_market;
    out.pi += acc.pi;
  }
  ChargeEstimate(rounds_run);
  out.sigma /= num_samples_;
  out.sigma_market /= num_samples_;
  out.pi /= num_samples_;
  return out;
}

ExpectedState MonteCarloEngine::ExpectedFrom(const SampleRun& run) const {
  const Problem& p = sim_.problem();
  ExpectedState es(p.NumUsers(), p.NumItems(), p.NumMetas());
  // Raw per-shard sums (adoption counts, weighting totals), scaled by
  // 1/num_samples only after the shard-order fold so the arithmetic is
  // identical for every thread count.
  auto accumulate = [&](ExpectedState& acc, const SimScratch& scratch) {
    for (UserId u = 0; u < p.NumUsers(); ++u) {
      const pin::UserState& st = scratch.states()[u];
      for (ItemId x : st.Adopted()) {
        acc.adoption_prob_[static_cast<size_t>(u) * p.NumItems() + x] += 1.0f;
      }
      const std::vector<float>& w = st.wmeta();
      for (int m = 0; m < p.NumMetas(); ++m) {
        acc.avg_wmeta_[static_cast<size_t>(u) * p.NumMetas() + m] += w[m];
      }
    }
  };
  auto fold = [&](const ExpectedState& acc) {
    for (size_t i = 0; i < es.adoption_prob_.size(); ++i) {
      es.adoption_prob_[i] += acc.adoption_prob_[i];
    }
    for (size_t i = 0; i < es.avg_wmeta_.size(); ++i) {
      es.avg_wmeta_[i] += acc.avg_wmeta_[i];
    }
  };
  int rounds_run = 0;
  if (RunsParallel()) {
    // One partial per shard (workers complete out of order), folded in
    // shard order afterwards.
    std::vector<ExpectedState> partial(NumShards(), es);
    rounds_run = RunSamples(run, 0, num_samples_,
                            [&](int shard, int, const SimScratch& scratch) {
                              accumulate(partial[shard], scratch);
                            });
    for (const ExpectedState& acc : partial) fold(acc);
  } else {
    // Serial fallback: one partial reused shard by shard — the identical
    // reduction tree at 1/num_shards-th the memory.
    ExpectedState shard_acc = es;
    for (int shard = 0; shard < NumShards(); ++shard) {
      std::fill(shard_acc.adoption_prob_.begin(),
                shard_acc.adoption_prob_.end(), 0.0f);
      std::fill(shard_acc.avg_wmeta_.begin(), shard_acc.avg_wmeta_.end(),
                0.0f);
      const int rounds = RunSamples(
          run, ShardBegin(shard), ShardBegin(shard + 1),
          [&](int, int, const SimScratch& scratch) {
            accumulate(shard_acc, scratch);
          });
      if (shard == 0) rounds_run = rounds;
      fold(shard_acc);
    }
  }
  if (Cancelled()) {
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  ChargeEstimate(rounds_run);
  const float inv = 1.0f / static_cast<float>(num_samples_);
  for (float& v : es.adoption_prob_) v *= inv;
  for (float& v : es.avg_wmeta_) v *= inv;
  return es;
}

void MonteCarloEngine::Extend(Lattice& lattice, int rounds_upto,
                              int samples_upto) const {
  rounds_upto = std::min(std::max(rounds_upto, lattice.rounds_ready),
                         lattice.base->last_active_round());
  samples_upto =
      std::min(std::max(samples_upto, lattice.samples_ready), num_samples_);
  if (rounds_upto <= 0 || samples_upto <= 0) return;
  if (rounds_upto <= lattice.rounds_ready &&
      samples_upto <= lattice.samples_ready) {
    return;
  }
  lattice.rows.resize(static_cast<size_t>(rounds_upto));
  for (auto& row : lattice.rows) row.resize(static_cast<size_t>(num_samples_));
  // Two strips, both simulating the base and freezing every boundary:
  // first deepen the already-built samples to the new round watermark,
  // then run the brand-new samples from round 0 to that same watermark.
  const struct {
    int s_begin, s_end, from;
  } strips[] = {{0, lattice.samples_ready, lattice.rounds_ready},
                {lattice.samples_ready, samples_upto, 0}};
  for (const auto& strip : strips) {
    if (strip.s_begin >= strip.s_end || strip.from >= rounds_upto) continue;
    const int rounds = RunSamples(
        {.sched = lattice.base, .resume = strip.from, .t_end = rounds_upto,
         .mask = lattice.mask, .align_from = lattice.align_from,
         .lattice = &lattice, .capture = true},
        strip.s_begin, strip.s_end, [](int, int, const SimScratch&) {});
    if (rounds < 0) return;
    // Moved from the skipped to the simulated bucket, so simulated +
    // skipped stays exactly the naive T-rounds-per-sample total over the
    // estimates made (a transiently negative skipped count just means
    // rows were built but not yet reused).
    const int64_t built = static_cast<int64_t>(strip.s_end - strip.s_begin) *
                          rounds;
    num_rounds_simulated_ += built;
    num_rounds_skipped_ -= built;
  }
  lattice.rounds_ready = rounds_upto;
  lattice.samples_ready = samples_upto;
}

// Race simulations draw time-aligned (attempt-ordinal) coins from round 1
// on — see the campaign_simulator.h file comment. Keying by each
// cascade's own attempt ordinals makes the pairing hold for EVERY
// candidate pair at once, wherever that pair happens to diverge: two
// cascades that share a prefix have identical ordinal state at the end of
// it, so corresponding post-divergence attempts land on the same coins.
// A fixed sentinel round would only align pairs that diverge at the
// sentinel.
inline constexpr int kRaceAlignFromRound = 1;

SelectBestResult MonteCarloEngine::Race(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options, const std::vector<Racer>& racers,
    Lattice* lattice, const std::vector<UserId>* pi_market,
    const std::function<MarketEval(const SeedGroup&)>& reevaluate) const {
  util::trace::Span span("mc.select_best");
  const int num_candidates = static_cast<int>(candidates.size());
  int winner = -1;
  int64_t raced_samples = 0;
  {
    util::MutexLock lock(mu_);
    // Lattices freeze the diffusion from the problem's initial state.
    IMDPP_CHECK(lattice == nullptr || initial_states_ == nullptr);
    if (!BeginEstimate()) return SelectBestResult{};
    int max_resume = 0;
    for (const Racer& racer : racers) {
      max_resume = std::max(max_resume, racer.resume);
    }
    const int t_max = sim_.problem().num_promotions;
    AdaptiveEval race(num_candidates, num_samples_, options.adaptive);
    while (!race.done()) {
      const int begin = race.block_begin();
      const int end = race.block_end();
      // The lattice grows with the race's blocks, so an early stop never
      // pays for prefixes of samples it did not race.
      if (lattice != nullptr) Extend(*lattice, max_resume, end);
      for (int i = 0; i < num_candidates; ++i) {
        if (!race.IsAlive(i)) continue;
        const Racer& racer = racers[static_cast<size_t>(i)];
        const SelectCandidate& candidate = candidates[static_cast<size_t>(i)];
        const int rounds_run = RunSamples(
            {.sched = &racer.sched, .resume = racer.resume,
             .t_end = racer.sched.last_active_round(),
             .mask = lattice == nullptr ? nullptr : lattice->mask,
             .align_from = kRaceAlignFromRound, .lattice = lattice},
            begin, end, [&](int, int s, const SimScratch& scratch) {
              MarketEval eval;
              eval.sigma = scratch.sigma();
              eval.sigma_market = scratch.sigma_market();
              if (pi_market != nullptr) {
                eval.pi = sim_.LikelihoodPi(scratch.states(), *pi_market);
              }
              race.Record(i, s, candidate.ScoreOf(eval));
            });
        // A fired token mid-block leaves that block uncharged (mirroring
        // interrupted plain estimates); earlier completed blocks stay
        // booked — the caller reads the error off the token.
        if (rounds_run < 0) return SelectBestResult{};
        const int64_t block = end - begin;
        num_simulations_ += block;
        num_rounds_simulated_ += block * rounds_run;
        num_rounds_skipped_ += block * (t_max - rounds_run);
        raced_samples += block;
      }
      race.EndBlock();
    }
    // Samples the race never ran are whole-sample skips — the fixed-count
    // path would have simulated them — so simulated + skipped still adds
    // up to the naive candidates × num_samples × T total for this argmax.
    num_rounds_skipped_ += race.samples_saved() * t_max;
    blocks_run_ += race.blocks_run();
    early_stops_ += race.early_stops();
    samples_saved_ += race.samples_saved();
    winner = race.Winner();
  }
  if (winner < 0) return SelectBestResult{};
  const SelectCandidate& best = candidates[static_cast<size_t>(winner)];
  const MarketEval eval = reevaluate(best.group);
  if (Cancelled()) return SelectBestResult{};
  const double score = best.ScoreOf(eval);
  SelectBestResult result;
  result.samples_used = raced_samples + num_samples_;
  if (score > options.min_score) {
    result.best_index = winner;
    result.best_score = score;
    result.best_eval = eval;
  }
  return result;
}

// --------------------------------------------------------------------------
// Engine estimates: resumes from round 0

double MonteCarloEngine::Sigma(const SeedGroup& seeds) const {
  util::trace::Span span("mc.sigma");
  util::MutexLock lock(mu_);
  MarketEval eval;
  if (Answered(seeds, nullptr, &eval)) return eval.sigma;
  const SeedSchedule sched(seeds, sim_.problem());
  return Remember(seeds, nullptr,
                  EstimateMarket({.sched = &sched,
                                  .t_end = sched.last_active_round()},
                                 nullptr))
      .sigma;
}

MarketEval MonteCarloEngine::EvalMarket(
    const SeedGroup& seeds, const std::vector<UserId>& users) const {
  util::trace::Span span("mc.eval_market");
  util::MutexLock lock(mu_);
  MarketEval eval;
  if (Answered(seeds, &users, &eval)) return eval;
  const std::vector<uint8_t>* mask = CachedMask(users);
  const SeedSchedule sched(seeds, sim_.problem());
  return Remember(seeds, &users,
                  EstimateMarket({.sched = &sched,
                                  .t_end = sched.last_active_round(),
                                  .mask = mask},
                                 &users));
}

ExpectedState MonteCarloEngine::Expected(const SeedGroup& seeds) const {
  util::MutexLock lock(mu_);
  if (!BeginEstimate()) {
    const Problem& p = sim_.problem();
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  const SeedSchedule sched(seeds, sim_.problem());
  return ExpectedFrom({.sched = &sched, .t_end = sched.last_active_round()});
}

SelectBestResult MonteCarloEngine::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) const {
  // Racing needs at least two candidates to compare; everything else is
  // the fixed-count reference loop (which a disabled race must match
  // bit for bit — it IS the pre-adaptive code path).
  if (!options.adaptive.enabled || candidates.size() < 2) {
    return SigmaBackend::SelectBest(candidates, options);
  }
  IMDPP_CHECK(!options.use_market);
  // Every racer simulates from round 0, so SetInitialStates applies.
  std::vector<Racer> racers;
  racers.reserve(candidates.size());
  for (const SelectCandidate& c : candidates) {
    racers.push_back({SeedSchedule(c.group, sim_.problem())});
  }
  return Race(candidates, options, racers, /*lattice=*/nullptr,
              /*pi_market=*/nullptr, [this](const SeedGroup& group) {
                return MarketEval{.sigma = Sigma(group)};
              });
}

// --------------------------------------------------------------------------
// CheckpointedEval

CheckpointedEval::CheckpointedEval(const MonteCarloEngine& engine,
                                   SeedGroup base, std::vector<UserId> market)
    : engine_(engine), market_(std::move(market)) {
  // Checkpoints freeze the diffusion from the problem's initial state;
  // adaptive-style initial-state overrides are not supported here.
  util::MutexLock lock(engine_.mu_);
  IMDPP_CHECK(engine_.initial_states_ == nullptr);
  if (!market_.empty()) {
    mask_.assign(static_cast<size_t>(engine_.sim_.problem().NumUsers()), 0);
    for (UserId u : market_) mask_[static_cast<size_t>(u)] = 1;
  }
  base_ = std::move(base);
  base_sched_ = SeedSchedule(base_, engine_.sim_.problem());
  // Both lattices embed the market's σ_τ partials, so one CheckpointedEval
  // serves exactly one market.
  const std::vector<uint8_t>* mask = mask_.empty() ? nullptr : &mask_;
  cp_ = {.base = &base_sched_, .mask = mask};
  aligned_cp_ = {.base = &base_sched_, .mask = mask,
                 .align_from = kRaceAlignFromRound};
}

int CheckpointedEval::FirstDivergence(const SeedSchedule& a,
                                      const SeedSchedule& b, int t_max) {
  for (int t = 1; t <= t_max; ++t) {
    if (a.RoundSeeds(t) != b.RoundSeeds(t)) return t;
  }
  return t_max + 1;
}

int CheckpointedEval::SharedPrefix(const SeedSchedule& sched) const {
  return std::min(FirstDivergence(base_sched_, sched,
                                  engine_.sim_.problem().num_promotions) -
                      1,
                  base_sched_.last_active_round());
}

void CheckpointedEval::Rebase(SeedGroup base) {
  SeedSchedule sched(base, engine_.sim_.problem());
  const int shared = FirstDivergence(base_sched_, sched,
                                     engine_.sim_.problem().num_promotions) -
                     1;
  cp_.Truncate(shared);
  aligned_cp_.Truncate(shared);
  base_ = std::move(base);
  base_sched_ = std::move(sched);
}

MonteCarloEngine::SampleRun CheckpointedEval::Resume(
    const SeedSchedule& sched) {
  // The prefix-reuse argument assumes the problem's initial state; a
  // SetInitialStates slipped in after construction must fail loudly
  // rather than silently evaluate from the wrong state.
  IMDPP_CHECK(engine_.initial_states_ == nullptr);
  const int shared = SharedPrefix(sched);
  engine_.Extend(cp_, shared, engine_.num_samples_);
  return {.sched = &sched, .resume = std::min(shared, cp_.rounds_ready),
          .t_end = sched.last_active_round(), .mask = cp_.mask,
          .lattice = &cp_};
}

double CheckpointedEval::Sigma(const SeedGroup& group) {
  util::trace::Span span("mc.sigma");
  util::MutexLock lock(engine_.mu_);
  MarketEval eval;
  if (engine_.Answered(group, nullptr, &eval)) return eval.sigma;
  const SeedSchedule sched(group, engine_.sim_.problem());
  return engine_
      .Remember(group, nullptr, engine_.EstimateMarket(Resume(sched), nullptr))
      .sigma;
}

MarketEval CheckpointedEval::EvalMarket(const SeedGroup& group) {
  IMDPP_CHECK(!market_.empty());
  util::trace::Span span("mc.eval_market");
  util::MutexLock lock(engine_.mu_);
  MarketEval eval;
  if (engine_.Answered(group, &market_, &eval)) return eval;
  const SeedSchedule sched(group, engine_.sim_.problem());
  return engine_.Remember(group, &market_,
                          engine_.EstimateMarket(Resume(sched), &market_));
}

ExpectedState CheckpointedEval::Expected(const SeedGroup& group) {
  util::MutexLock lock(engine_.mu_);
  const Problem& p = engine_.sim_.problem();
  if (!engine_.BeginEstimate()) {
    return ExpectedState(p.NumUsers(), p.NumItems(), p.NumMetas());
  }
  const SeedSchedule sched(group, p);
  return engine_.ExpectedFrom(Resume(sched));
}

SelectBestResult CheckpointedEval::SelectBest(
    const std::vector<SelectCandidate>& candidates,
    const SelectOptions& options) {
  if (!options.adaptive.enabled || candidates.size() < 2) {
    return ScheduleEval::SelectBest(candidates, options);
  }
  if (options.use_market) IMDPP_CHECK(!market_.empty());
  // Races draw aligned coins from round 1 (kRaceAlignFromRound), so a
  // racer can never resume from cp_: those prefixes froze round-keyed
  // coins. It CAN resume from the aligned lattice — the base prefix
  // simulated once per sample with the same attempt-ordinal keying the
  // race uses, checkpoints carrying the ordinal state — which makes a
  // resumed racer bit-identical to the engine-level race's from-scratch
  // aligned run of the same schedule. Rebase keeps shared rounds, so
  // consecutive races against overlapping bases (greedy placement,
  // refinement sweeps) amortize it.
  std::vector<MonteCarloEngine::Racer> racers;
  racers.reserve(candidates.size());
  for (const SelectCandidate& c : candidates) {
    SeedSchedule sched(c.group, engine_.sim_.problem());
    const int resume = SharedPrefix(sched);
    racers.push_back({std::move(sched), resume});
  }
  // The winner is re-evaluated through the normal checkpointed path.
  return engine_.Race(candidates, options, racers, &aligned_cp_,
                      options.use_market ? &market_ : nullptr,
                      [&](const SeedGroup& group) {
                        return Evaluate(group, options.use_market);
                      });
}

// --------------------------------------------------------------------------
// SigmaBackend surface

std::unique_ptr<ScheduleEval> MonteCarloEngine::MakeScheduleEval(
    SeedGroup base, std::vector<UserId> market) const {
  return std::make_unique<CheckpointedEval>(*this, std::move(base),
                                            std::move(market));
}

namespace {

std::unique_ptr<SigmaBackend> MakeMcBackend(
    const SigmaBackendContext& context) {
  return std::make_unique<MonteCarloEngine>(
      *context.problem, context.campaign, context.num_samples,
      context.num_threads, context.shared_pool, context.spec.cancel);
}

IMDPP_REGISTER_SIGMA_BACKEND("mc", MakeMcBackend);

}  // namespace

namespace internal {
void AnchorMcBackend() {}
}  // namespace internal

}  // namespace imdpp::diffusion
