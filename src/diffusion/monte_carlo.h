// Monte-Carlo estimation of the importance-aware influence σ (Def. 1), the
// market-restricted σ_τ, the likelihood π_τ (Eq. 13), and the *expected
// state* (average adoption probabilities and meta-graph weightings) that
// the Dysim machinery consumes for r̄^C / r̄^S, AE, and DR.
//
// Because coin flips are counter-based on (sample index, event), estimates
// for different seed groups under the same engine are common-random-number
// paired: Sigma(S ∪ {s}) - Sigma(S) is a low-variance paired estimate of
// the marginal gain.
//
// One sample loop: every estimate, race block and checkpoint build runs
// through one kernel (MonteCarloEngine::RunSamples) that restores each
// sample, simulates promotions resume+1..t_end and calls back. A
// from-scratch estimate is a resume from round 0; a checkpointed one
// resumes from a row of a checkpoint lattice. One lattice type serves
// both coin keyings — CheckpointedEval keeps a round-keyed one for its
// estimates and a race-aligned one for adaptive races — grown by one
// builder (Extend) and truncated on Rebase.
//
// Parallelism: the per-sample loop is embarrassingly parallel (every
// realization is a pure function of its sample index), so estimates are
// sharded across a util::ThreadPool — either an engine-owned lazy pool or
// a pool shared with other engines (one per CampaignSession / per
// RunDysim). The shard layout depends only on the sample count — never the
// thread count — and per-shard partial sums are reduced in shard order, so
// every estimate is bit-identical for any num_threads (including the 0 =
// serial fallback). That keeps the paired marginal-gain property exact
// under threading.
//
// Evaluation fast path (ISSUE 3): every estimate runs on per-worker
// SimScratch arenas (zero per-sample allocation), skips unseeded
// promotion rounds (exact no-ops), and exposes two reuse levers:
//   * CheckpointedEval — evaluating a group that only differs from its
//     base at rounds ≥ t resumes from the base's round-(t-1) lattice row
//     instead of re-simulating rounds 1..t-1. Exact, because coin flips
//     are index-hashed and never depend on history.
//   * an opt-in σ memo keyed on the exact seed vector, so sweeps that
//     revisit an identical configuration (e.g. Dysim's coordinate-ascent
//     timing refinement) pay nothing.
// Work accounting: num_rounds_simulated / num_rounds_skipped split every
// estimate's promotion-rounds into executed vs avoided (vs the naive
// T-rounds-per-sample baseline); num_memo_hits counts memoized estimates.
#ifndef IMDPP_DIFFUSION_MONTE_CARLO_H_
#define IMDPP_DIFFUSION_MONTE_CARLO_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "diffusion/campaign_simulator.h"
#include "diffusion/sigma_backend.h"
#include "util/cancel.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imdpp::diffusion {

/// The "mc" SigmaBackend: the accuracy reference every other backend is
/// gated against (tests/backend_test.cc).
class MonteCarloEngine : public SigmaBackend {
 public:
  /// `num_samples` realizations per estimate (M in the paper, Sec. VI-A).
  /// `num_threads` is the total executor count for the sample loop:
  /// util::kAutoThreads = hardware concurrency, 0 or 1 = serial. Results
  /// are bit-identical for every value (see file comment). `shared_pool`
  /// (optional) backs the sample loop instead of an engine-owned lazy
  /// pool, so several engines can share one set of workers.
  /// `cancel` (optional) is the run's cooperative cancellation/deadline
  /// token (ISSUE 8): every estimate checks it per sample and
  /// short-circuits once it fires. Null = the engine creates a private
  /// token, so fault propagation (the eval.sigma point latches its error
  /// onto the token) always has a channel.
  MonteCarloEngine(const Problem& problem, const CampaignConfig& config,
                   int num_samples, int num_threads = util::kAutoThreads,
                   std::shared_ptr<util::ThreadPool> shared_pool = nullptr,
                   std::shared_ptr<const util::CancelToken> cancel = nullptr);

  std::string_view name() const override { return "mc"; }
  std::string_view description() const override {
    return "forward Monte-Carlo re-simulation of the dynamic-perception "
           "diffusion (the accuracy reference)";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.resimulates_dynamics = true;
    caps.market_likelihood_pi = true;
    caps.prefix_checkpointing = true;
    caps.initial_state_override = true;
    caps.select_best = true;
    return caps;
  }

  /// σ̂(S): mean importance-weighted adoptions.
  /// Like every estimate entry point, takes the engine mutex for the whole
  /// call: concurrent estimates on one engine serialize (the memos, work
  /// counters, mask cache and lazy pool are all IMDPP_GUARDED_BY(mu_)),
  /// while the sample loop inside still fans out over the thread pool.
  double Sigma(const SeedGroup& seeds) const override IMDPP_EXCLUDES(mu_);

  /// Joint estimate of σ, σ_τ and π_τ for the market `users` in one pass.
  /// The |V| market mask is cached per user list, so repeated evaluations
  /// of the same market (TDSI's inner loop) skip the rebuild.
  MarketEval EvalMarket(const SeedGroup& seeds,
                        const std::vector<UserId>& users) const override
      IMDPP_EXCLUDES(mu_);

  /// Expected end-of-campaign state under `seeds`.
  ExpectedState Expected(const SeedGroup& seeds) const override
      IMDPP_EXCLUDES(mu_);

  /// A CheckpointedEval over this engine: promotion-round prefix reuse.
  std::unique_ptr<ScheduleEval> MakeScheduleEval(
      SeedGroup base, std::vector<UserId> market = {}) const override;

  /// Greedy σ-scored argmax (ISSUE 10). Fixed mode (the default) runs the
  /// base-class reference loop; options.adaptive.enabled races candidates
  /// with empirical-Bernstein stopping on paired per-sample values, then
  /// re-evaluates the winner at the full sample count through the normal
  /// Sigma path (memo-aware, histogram-recorded) so downstream arithmetic
  /// sees exactly the bits a direct call would. Supports SetInitialStates
  /// (each raced sample simulates from scratch). Stopping decisions
  /// happen only at block boundaries over fixed-order reductions, so the
  /// adaptive path is bit-identical across thread counts too.
  SelectBestResult SelectBest(const std::vector<SelectCandidate>& candidates,
                              const SelectOptions& options) const override
      IMDPP_EXCLUDES(mu_);

  /// Starts every realization from `states` instead of the problem's
  /// initial state (adaptive IM). Pass nullptr to reset. The pointee must
  /// outlive subsequent estimate calls. Clears (and, while set, disables)
  /// the σ memo: memoized values assume the problem's initial state.
  void SetInitialStates(const std::vector<pin::UserState>* states)
      IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    initial_states_ = states;
    sigma_memo_.clear();
    market_memo_.clear();
    market_memo_entries_ = 0;
  }

  /// Opts in to memoizing estimates by exact input (identical input =>
  /// identical estimate, so a hit returns the previously computed bits
  /// without simulating): Sigma() by seed vector, EvalMarket() by
  /// (seed vector, market user list), each up to kMemoCapacity entries.
  /// Off by default to keep the simulation-counter semantics of plain
  /// engines.
  void EnableSigmaMemo() override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    memo_enabled_ = true;
  }

  const CampaignSimulator& simulator() const override { return sim_; }
  int num_samples() const override { return num_samples_; }
  /// Resolved executor count (>= 0; 0 and 1 both mean serial).
  int num_threads() const override { return num_threads_; }

  /// Total simulator invocations since construction (bumped once per
  /// estimate, under the engine mutex like every other work counter).
  /// Memoized estimates do not simulate and are not charged.
  int64_t num_simulations() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_simulations_;
  }
  /// Promotion-rounds actually executed (summed over samples), including
  /// checkpoint building.
  int64_t num_rounds_simulated() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_rounds_simulated_;
  }
  /// Promotion-rounds a naive evaluation (T rounds per sample, no reuse)
  /// would have executed on top: unseeded-round skips, checkpoint-prefix
  /// resumes, and memoized estimates.
  int64_t num_rounds_skipped() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_rounds_skipped_;
  }
  /// Sigma() calls answered from the memo.
  int64_t num_memo_hits() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_memo_hits_;
  }

  /// Adaptive-selection counters (ISSUE 10): candidate-blocks raced,
  /// candidates eliminated before the sample cap, and realizations never
  /// simulated because their comparison had already resolved. All zero
  /// on fixed-count runs.
  int64_t num_blocks_run() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return blocks_run_;
  }
  int64_t num_early_stops() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return early_stops_;
  }
  int64_t num_samples_saved() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return samples_saved_;
  }

  /// The token estimates check; never null (see the constructor).
  const util::CancelToken* cancel_token() const override {
    return cancel_.get();
  }

 private:
  friend class CheckpointedEval;

  /// Estimate-entry robustness gate: counts an eval.sigma fault-point hit
  /// (latching any injected error onto the token) and then checks the
  /// token. False = the estimate must return immediately with a
  /// don't-care value — the caller reads the real error off
  /// cancel_token(). Runs before memo lookups so fault schedules count
  /// every estimate entry, memoized or not.
  bool BeginEstimate() const;
  /// Post-shard-loop gate: true = the token fired mid-estimate, so the
  /// folded value is garbage — skip ChargeEstimate and the memo store
  /// (a partial estimate must never poison the memo).
  bool Cancelled() const { return cancel_->Fired(); }

  /// Number of per-estimate shards: min(num_samples, kMaxShards). A
  /// function of the sample count only, so the reduction tree is fixed.
  int NumShards() const;
  /// First sample index of `shard` (shard == NumShards() -> num_samples).
  int ShardBegin(int shard) const;
  /// Whether RunShards will use a pool (purely a scheduling question —
  /// results never depend on it). Serial below kMinParallelSamples: pool
  /// dispatch is not worth it for a handful of realizations.
  bool RunsParallel() const;
  /// Runs fn(shard) for every shard — on the pool when parallel, inline
  /// otherwise. Pure scheduling; callers do their own work accounting.
  /// Holds the engine mutex across the fan-out: tasks never touch guarded
  /// engine state (they write per-shard slots), and no task path
  /// re-enters the engine, so this cannot deadlock.
  void RunShards(const std::function<void(int)>& fn) const
      IMDPP_REQUIRES(mu_);

  bool MemoEnabled() const IMDPP_REQUIRES(mu_) {
    return memo_enabled_ && initial_states_ == nullptr;
  }
  /// Prologue of every Sigma/EvalMarket entry: the BeginEstimate gate,
  /// then the σ memo (`market` null) or the (seeds, market) memo. True =
  /// answered: `*eval` holds the memoized value (recorded, its skipped
  /// work booked) or, when the gate fired, a don't-care zero.
  bool Answered(const SeedGroup& seeds, const std::vector<UserId>* market,
                MarketEval* eval) const IMDPP_REQUIRES(mu_);
  /// The epilogue for a computed `eval`: memo store and σ̂ histogram,
  /// skipped when the token fired (a partial estimate must never poison
  /// the memo).
  MarketEval Remember(const SeedGroup& seeds,
                      const std::vector<UserId>* market,
                      const MarketEval& eval) const IMDPP_REQUIRES(mu_);
  /// |V| market mask for `users`, cached per user list. The returned
  /// pointer is read by the sample loop of the estimate that built it —
  /// which still holds mu_, so no other estimate can rebuild it mid-use.
  const std::vector<uint8_t>* CachedMask(
      const std::vector<UserId>& users) const IMDPP_REQUIRES(mu_);
  /// Books the per-estimate work split for one estimate that executed
  /// `rounds_run` rounds per sample.
  void ChargeEstimate(int rounds_run) const IMDPP_REQUIRES(mu_);

  /// Per-sample states frozen at the promotion boundaries of one base
  /// schedule under one market mask and coin keying: rows[k-1][s] =
  /// sample s after base rounds 1..k, valid for k <= rounds_ready and
  /// s < samples_ready (rows are allocated full-width).
  struct Lattice {
    const SeedSchedule* base = nullptr;
    const std::vector<uint8_t>* mask = nullptr;  ///< null = no market
    int align_from = kNoCoinAlignment;
    std::vector<std::vector<SampleCheckpoint>> rows{};
    int rounds_ready = 0;
    int samples_ready = 0;

    /// Rebase: keeps the rows of rounds 1..`rounds` only.
    void Truncate(int rounds) {
      rounds_ready = std::min(rounds_ready, rounds);
      rows.resize(static_cast<size_t>(rounds_ready));
    }
  };

  /// What the kernel simulates for each sample s of a range.
  struct SampleRun {
    const SeedSchedule* sched = nullptr;
    /// Rounds 1..resume come from lattice->rows[resume-1][s]; 0 = start
    /// from the initial state (initial_states_ when set).
    int resume = 0;
    int t_end = 0;  ///< last round simulated
    const std::vector<uint8_t>* mask = nullptr;
    int align_from = kNoCoinAlignment;
    Lattice* lattice = nullptr;
    /// Simulate round by round, freezing every boundary resume+1..t_end
    /// into lattice->rows (the lattice builder's mode).
    bool capture = false;
  };

  /// The kernel: runs samples [s_begin, s_end) of `run` on the sharded
  /// sample loop, calling per_sample(shard, s, scratch) after each.
  /// Returns the rounds each sample executed (a schedule property), or −1
  /// once the cancel token fired (the callbacks' slots are then partial).
  /// Books no work.
  template <typename PerSample>
  int RunSamples(const SampleRun& run, int s_begin, int s_end,
                 PerSample&& per_sample) const IMDPP_REQUIRES(mu_);

  /// One full-count σ / σ_τ / π estimate of `run` (π only when
  /// `pi_market` is set): per-shard slots folded in shard order, divided
  /// once, charged as one estimate. Zeros when cancelled.
  MarketEval EstimateMarket(const SampleRun& run,
                            const std::vector<UserId>* pi_market) const
      IMDPP_REQUIRES(mu_);
  /// Expected final state of `run`: per-shard raw float sums folded in
  /// shard order and scaled once, so resuming from a lattice is
  /// bit-identical to a from-scratch run.
  ExpectedState ExpectedFrom(const SampleRun& run) const IMDPP_REQUIRES(mu_);

  /// The lattice builder: grows the valid rectangle to at least
  /// `rounds_upto` (capped at the base's last active round) x
  /// `samples_upto`. A cancelled build leaves the watermarks untouched, so
  /// half-frozen rows are never resumed from.
  void Extend(Lattice& lattice, int rounds_upto, int samples_upto) const
      IMDPP_REQUIRES(mu_);

  /// One candidate in a race: its schedule and the round it resumes after
  /// (from the race's lattice; 0 = from the initial state).
  struct Racer {
    SeedSchedule sched;
    int resume = 0;
  };
  /// The adaptive argmax behind both SelectBest overrides: races `racers`
  /// (one per candidate) block by block on time-aligned coins, resuming
  /// from `lattice` (optional; grown per block, its mask applies to every
  /// racer), then scores the winner on `reevaluate` — the caller's normal
  /// full-count, memo-aware estimate — so downstream arithmetic sees the
  /// bits a direct call would. Empty result when the token fired.
  SelectBestResult Race(
      const std::vector<SelectCandidate>& candidates,
      const SelectOptions& options, const std::vector<Racer>& racers,
      Lattice* lattice, const std::vector<UserId>* pi_market,
      const std::function<MarketEval(const SeedGroup&)>& reevaluate) const
      IMDPP_EXCLUDES(mu_);

  CampaignSimulator sim_;
  int num_samples_;
  int num_threads_;
  /// Shared workers (optional); otherwise lazily created on the first
  /// parallel estimate (num_threads_ - 1 workers; the calling thread is
  /// the remaining executor).
  std::shared_ptr<util::ThreadPool> shared_pool_;
  /// Never null; see the constructor. Not guarded: the token has its own
  /// synchronization and shard tasks read it without the engine mutex.
  std::shared_ptr<const util::CancelToken> cancel_;

  /// Guards every piece of state an estimate mutates: memos, work
  /// counters, the mask cache, the lazily created pool and the
  /// initial-state override. Held for whole estimates (see Sigma), so
  /// the engine is safe to share across threads at estimate granularity.
  mutable util::Mutex mu_;
  const std::vector<pin::UserState>* initial_states_ IMDPP_GUARDED_BY(mu_) =
      nullptr;
  mutable std::unique_ptr<util::ThreadPool> pool_ IMDPP_GUARDED_BY(mu_);
  mutable int64_t num_simulations_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_rounds_simulated_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_rounds_skipped_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_memo_hits_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t blocks_run_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t early_stops_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t samples_saved_ IMDPP_GUARDED_BY(mu_) = 0;
  /// σ memo keyed on the exact seed vector (see EnableSigmaMemo), and
  /// the EvalMarket memo keyed on (market users, seed vector) behind the
  /// same opt-in flag. Nested maps so each market's user list is stored
  /// once and lookups compare in place — no per-call key construction on
  /// the TDSI hot path.
  mutable std::map<SeedGroup, double> sigma_memo_ IMDPP_GUARDED_BY(mu_);
  mutable std::map<std::vector<UserId>, std::map<SeedGroup, MarketEval>>
      market_memo_ IMDPP_GUARDED_BY(mu_);
  mutable size_t market_memo_entries_ IMDPP_GUARDED_BY(mu_) = 0;
  bool memo_enabled_ IMDPP_GUARDED_BY(mu_) = false;
  /// EvalMarket mask cache.
  mutable std::vector<UserId> mask_users_ IMDPP_GUARDED_BY(mu_);
  mutable std::vector<uint8_t> mask_ IMDPP_GUARDED_BY(mu_);
  mutable bool mask_valid_ IMDPP_GUARDED_BY(mu_) = false;
};

/// Promotion-round checkpoint reuse over one engine (ISSUE 3 tentpole).
///
/// Holds a *base* seed group and lazily freezes each realization's state
/// at the promotion boundaries of that base. Evaluating a `group` then
/// costs only the rounds from its first divergence from the base onward:
/// coin flips are pure hashes of (sample, round, step, edge, item), so the
/// boundary state is a function of the earlier rounds' seeds alone, and
/// resuming replays the exact operation sequence of a from-scratch run —
/// results are bit-identical, verified by tests/determinism_test.cc.
///
/// Typical shapes it accelerates (base grows, candidates differ late):
///   * TDSI PickBest: base = current group, candidates at rounds t̂/t̂+1;
///   * greedy timing placement: base = placed, candidate at round t;
///   * coordinate-ascent refinement: base = schedule minus the moving
///     seed, candidates = that seed at each round.
/// Rebase() adopts a new base and keeps every checkpoint before the first
/// round where the old and new bases diverge, so the reuse compounds
/// across iterations of those loops.
///
/// Requires the engine to evaluate from the problem's initial state (no
/// SetInitialStates). All estimates run on the engine's sharded sample
/// loop and are charged to its work counters.
class CheckpointedEval final : public ScheduleEval {
 public:
  /// `market` fixes the user list for EvalMarket() (empty = Sigma only);
  /// checkpoints embed the market's σ_τ partials, so one CheckpointedEval
  /// serves exactly one market.
  CheckpointedEval(const MonteCarloEngine& engine, SeedGroup base,
                   std::vector<UserId> market = {});
  /// The lattices point into this object (base schedule, mask).
  CheckpointedEval(const CheckpointedEval&) = delete;
  CheckpointedEval& operator=(const CheckpointedEval&) = delete;

  /// σ̂(group). `group` may differ from the base at any rounds; earlier
  /// shared rounds are resumed from checkpoints. Consults the engine's σ
  /// memo when enabled. Takes the engine mutex like a direct estimate;
  /// the CheckpointedEval itself is single-owner (not thread-safe).
  double Sigma(const SeedGroup& group) override IMDPP_EXCLUDES(engine_.mu_);

  /// Joint σ/σ_τ/π estimate of `group` for the fixed market. Consults the
  /// engine's (group, market) memo when enabled.
  MarketEval EvalMarket(const SeedGroup& group) override
      IMDPP_EXCLUDES(engine_.mu_);

  /// Expected end-of-campaign state under `group`, resuming shared prefix
  /// rounds from checkpoints — bit-identical to engine.Expected(group).
  /// The shape DRE wants: it re-evaluates the expected state per item
  /// under a growing seed group, so each call extends the base's
  /// checkpoints once instead of re-simulating every earlier round.
  ExpectedState Expected(const SeedGroup& group) override
      IMDPP_EXCLUDES(engine_.mu_);

  /// Adopts `base` as the new base group, keeping the checkpoints of every
  /// round before the first divergence from the previous base.
  void Rebase(SeedGroup base) override;

  const SeedGroup& base() const override { return base_; }
  int num_samples() const override { return engine_.num_samples(); }

  /// Greedy argmax over `candidates` against the shared base (ISSUE 10).
  /// Fixed mode runs the base-class reference loop (through this
  /// evaluator's checkpointed Sigma/EvalMarket); adaptive mode builds
  /// the shared checkpoint prefix once, races candidates block by block
  /// resuming each from its own divergence boundary, and re-evaluates
  /// the winner at the full sample count through the normal memo-aware
  /// path. See MonteCarloEngine::SelectBest for the determinism and
  /// cancellation contract.
  SelectBestResult SelectBest(const std::vector<SelectCandidate>& candidates,
                              const SelectOptions& options) override
      IMDPP_EXCLUDES(engine_.mu_);

 private:
  /// First round where the two schedules' buckets differ (T+1 if none).
  static int FirstDivergence(const SeedSchedule& a, const SeedSchedule& b,
                             int t_max);
  /// The last boundary `sched` shares with the base (bounded by what the
  /// base can ever provide: rounds past its last active round are
  /// no-ops).
  int SharedPrefix(const SeedSchedule& sched) const;
  /// `sched` resumed from the round-keyed lattice at its shared prefix,
  /// extending the lattice to that boundary first.
  MonteCarloEngine::SampleRun Resume(const SeedSchedule& sched)
      IMDPP_REQUIRES(engine_.mu_);

  const MonteCarloEngine& engine_;
  SeedGroup base_;
  SeedSchedule base_sched_;
  std::vector<UserId> market_;
  std::vector<uint8_t> mask_;  ///< prebuilt; empty when market_ is empty
  /// Round-keyed boundaries, grown to all samples by estimates.
  MonteCarloEngine::Lattice cp_;
  /// Aligned-coin twin of cp_, grown lazily by adaptive races only (races
  /// touch block_end samples, not all of them).
  MonteCarloEngine::Lattice aligned_cp_;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_MONTE_CARLO_H_
