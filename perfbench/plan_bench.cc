// Plan-request benchmark for the IMDPP planning library.
//
// One process runs one workload: a set-up phase, then a closed loop in
// which one client sends plan requests one at a time and waits for each
// reply. The client calls only the public API — data::DatasetRegistry::Make,
// api::CampaignSession::Run (which resolves names through
// api::PlannerRegistry) — and adds no threads of its own: the planners get
// a fixed kThreads executors. Every reply is checked (CheckPlan plus the
// determinism repeat), and every returned schedule is scored by an
// independent Monte-Carlo referee outside the timed loop.
//
//   plan_bench --workload NAME --seed N --seconds S --trace 0|1
//   plan_bench --self-check      every workload and every output check, fast
//   plan_bench --list-metrics    metric names, units and directions, one per line
//
// --trace 0 times the loop with tracing off and reports the end-to-end
// metrics. --trace 1 sends every request twice, once with util::trace and
// util::MetricRegistry armed, probes each layer through its public entry
// point, and reports the per-layer metrics plus the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/planner.h"
#include "api/session.h"
#include "core/dysim.h"
#include "core/nominee_selection.h"
#include "data/dataset_registry.h"
#include "diffusion/sigma_backend.h"
#include "prep/prep.h"
#include "prep/ris_sketch.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using imdpp::api::CampaignSession;
using imdpp::api::PlannerConfig;
using imdpp::api::PlanResult;
using imdpp::data::Dataset;
using imdpp::data::DatasetSpec;
using imdpp::diffusion::Problem;
using imdpp::diffusion::SeedGroup;
namespace util = imdpp::util;
namespace metric = imdpp::util::metric;

// Planner executors for every request, probe and referee call: the caller
// plus one pool worker. Two of the reference box's four vCPUs stay free for
// the OS and the box's other tenants.
constexpr int kThreads = 2;
// The referee's Monte-Carlo seed and sample count. The seed differs from
// PlannerConfig::seed, so the referee never replays the planner's worlds.
constexpr uint64_t kRefereeSeed = 0x5eedf00dULL;
constexpr int kRefereeSamples = 32;
// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupRepeats = 5;
// plan_tail_s: the highest percentile with at least this many samples
// beyond it.
constexpr int kTailBeyond = 10;
// A run stops sending requests once the process is this old, so it always
// exits well within the 180 s a run may take.
constexpr double kHardStopSeconds = 140.0;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const double kProcessStart = Now();

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// splitmix64: the request order is a pure function of the workload seed
/// on every platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// ------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

// Timed with tracing off. failed_frac is printed too, but travels in the
// result line's attempted/failed fields: it is 0 on a healthy run, and a
// metric compared as a share of its median must never be 0.
constexpr MetricDef kEndToEnd[] = {
    {"plan_p50_s", "s", "lower"},
    {"plan_tail_s", "s", "lower"},
    {"plans_per_s", "1/s", "higher"},
    {"cpu_s_per_plan", "s", "lower"},
    {"sigma_ref_gmean", "sigma", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

// Spans whose self time the traced run reports: the library's own spans
// plus the benchmark's spans around its calls into each layer.
constexpr const char* kSpanNames[] = {
    "bench.request",  "bench.data.make", "bench.session.open",
    "bench.session.run", "phase.config", "phase.prep",
    "phase.select",   "phase.eval",      "prep.acquire",
    "prep.build",     "mc.sigma",        "mc.select_best",
    "mc.eval_market", "ris.sigma",       "ris.eval_market",
    "pool.task",
};

// Per-layer metrics other than the span table (see README.md for which
// end-to-end metric each one should move, on which workload). Counts of
// work done and input sizes read better lower; hits, reuses, skipped or
// saved work and pool utilisation read better higher.
constexpr MetricDef kLayerMetrics[] = {
    {"trace.overhead", "ratio", "lower"},
    {"trace.traced_p50_s", "s", "lower"},
    {"trace.untraced_p50_s", "s", "lower"},
    // diffusion
    {"eval.simulations", "count/plan", "lower"},
    {"eval.rounds_simulated", "count/plan", "lower"},
    {"eval.rounds_skipped", "count/plan", "higher"},
    {"eval.memo_hits", "count/plan", "higher"},
    {"diffusion.sigma_s", "s", "lower"},
    {"diffusion.sigma_serial_s", "s", "lower"},
    // diffusion racing
    {"eval.samples_saved", "count/plan", "higher"},
    {"eval.early_stops", "count/plan", "higher"},
    {"eval.blocks_run", "count/plan", "lower"},
    // util pool
    {"pool.tasks", "count/plan", "lower"},
    {"pool.batches", "count/plan", "lower"},
    {"pool.tasks_per_batch", "count", "higher"},
    {"pool.task_s", "s/plan", "lower"},
    {"pool.busy_frac", "ratio", "higher"},
    {"pool.queue_depth_max", "count", "lower"},
    // data
    {"data.make_s", "s", "lower"},
    {"data.users", "count", "lower"},
    {"data.edges", "count", "lower"},
    {"data.pairs", "count", "lower"},
    // prep
    {"prep.cold_acquire_s", "s", "lower"},
    {"prep.warm_acquire_s", "s", "lower"},
    {"prep.build_s", "s", "lower"},
    {"prep.builds", "count/plan", "lower"},
    {"prep.reuses", "count/plan", "higher"},
    {"prep.reuse_ratio", "ratio", "higher"},
    // prep RIS sketches
    {"ris.cold_acquire_s", "s", "lower"},
    {"ris.warm_acquire_s", "s", "lower"},
    {"ris.sketch_builds", "count/plan", "lower"},
    {"ris.sketch_reuses", "count/plan", "higher"},
    {"ris.coverage_queries", "count/plan", "lower"},
    // core / cluster
    {"core.tmi_s", "s", "lower"},
    {"core.nominees", "count", "lower"},
    {"cluster.markets", "count", "lower"},
    // api
    {"api.select_s", "s", "lower"},
    {"api.eval_s", "s", "lower"},
    {"api.run_s.dysim", "s", "lower"},
    {"api.run_s.ps", "s", "lower"},
    {"api.run_s.drhga", "s", "lower"},
    {"api.run_s.bgrd", "s", "lower"},
};

std::vector<MetricDef> PerLayerMetrics() {
  // Span names are string literals, so the composed names need storage
  // that outlives the returned defs.
  static const std::vector<std::string>* kComposed = [] {
    auto* names = new std::vector<std::string>;
    for (const char* span : kSpanNames) {
      names->push_back(std::string("span.") + span + ".self_s");
      names->push_back(std::string("span.") + span + ".calls");
    }
    return names;
  }();
  std::vector<MetricDef> defs(std::begin(kLayerMetrics),
                              std::end(kLayerMetrics));
  for (size_t i = 0; i < kComposed->size(); ++i) {
    defs.push_back({(*kComposed)[i].c_str(),
                    i % 2 == 0 ? "s/plan" : "count/plan", "lower"});
  }
  return defs;
}

// ---------------------------------------------------------- workloads

enum class Kind { kCatalogMc, kLargeCold, kLargeWarm };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* backend;
  // Wall seconds of one request cycle (see RequestStream) on a 4-vCPU VM.
  // A run sends round(--seconds / nominal_cycle_s) whole cycles, so every
  // run of a workload sends the same requests whatever its speed.
  double nominal_cycle_s;
  const char* why;
};

// Why each workload exists (also the `why` lines of BENCHMARK.json).
constexpr WorkloadDef kWorkloads[] = {
    {"catalog-mc", Kind::kCatalogMc, "mc", 7.0,
     // Warm sessions over the five paper flavors on the default mc
     // backend; a quarter of the requests are latency-tier (adaptive
     // racing with a sample budget).
     "warm sessions on the five paper flavors: the MC kernel, checkpointed "
     "eval, adaptive racing and the thread pool do nearly all the work"},
    {"large-cold", Kind::kLargeCold, "ris", 6.5,
     // Every request is a new tenant: a freshly generated scale-N graph,
     // a fresh session, dysim on ris.
     "a new tenant per request on a fresh scale-N graph: data generation, "
     "prep and RIS sketch builds and TMI do the work, the MC kernel barely "
     "runs"},
    {"large-warm", Kind::kLargeWarm, "ris", 4.7,
     // The same graph family built during set-up, one session per graph,
     // dysim/ps/drhga/bgrd on ris across budgets and T.
     "the large-cold graph family kept warm: the same prep and sketch "
     "caches, hit instead of built, under four planners"},
};

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Dataset sizes: the full benchmark, or the self-check's tiny ones.
struct Sizes {
  double catalog_scale;
  int large_users;           // large-*: scale-<N>
};
constexpr Sizes kFullSizes = {0.5, 5000};
constexpr Sizes kSelfCheckSizes = {0.1, 1000};

constexpr const char* kCatalogFlavors[] = {
    "yelp-like", "amazon-like", "douban-like", "gowalla-like",
    "flixster-like"};
constexpr const char* kWarmPlanners[] = {"dysim", "ps", "drhga", "bgrd"};
// Fixed dataset seeds of the large-warm graphs: set-up is the same for
// every workload seed, so setup_s compares across seeds.
constexpr uint64_t kWarmGraphSeeds[] = {101, 202};
// The large-cold tenants' graph seeds. A fixed pool keeps the request mix,
// and so σ̂ and latency, the same across workload seeds; every request
// still generates its graph from scratch.
constexpr uint64_t kColdGraphSeeds[] = {11, 22, 33, 44};

/// The planning effort of every request: the imdpp CLI's defaults
/// (moderate samples, candidates pruned to 24 users x 8 items).
PlannerConfig BaseConfig(const WorkloadDef& w) {
  PlannerConfig cfg;
  cfg.selection_samples = 10;
  cfg.eval_samples = 24;
  cfg.candidates.max_users = 24;
  cfg.candidates.max_items = 8;
  cfg.num_threads = kThreads;
  cfg.eval.backend = w.backend;
  // A sketch only counts seeds of its root item, and scale-N has N/8
  // items: the default 4096 sketches leave ~3 per item at N = 10^4, so
  // most seeds cover none, σ̂ is 0 for every candidate, and dysim/bgrd
  // return empty schedules at budgets several seeds wide. 32768 leaves
  // ~26 per item.
  cfg.eval.ris_sketches = 32768;
  return cfg;
}

/// The latency tier: adaptive racing with a sample budget below
/// selection_samples.
PlannerConfig LatencyTierConfig(const PlannerConfig& base) {
  PlannerConfig cfg = base;
  cfg.eval.adaptive.enabled = true;
  cfg.eval.adaptive.min_samples = 4;
  cfg.eval.adaptive.block_samples = 2;
  cfg.eval.adaptive.max_samples = 6;
  return cfg;
}

struct Request {
  int combo = 0;                // which combination of the cycle
  int target = 0;               // warm workloads: which session
  const char* planner = "dysim";
  double budget_factor = 3.0;   // budget = factor x cheapest candidate cost
  int promotions = 5;
  bool latency_tier = false;
  uint64_t dataset_seed = 0;    // large-cold: the tenant's graph
};

/// Problem shapes: promotions T and the budget as a multiple of the
/// dataset's cheapest candidate seed.
struct Shape {
  int promotions;
  double budget_factor;
};
constexpr Shape kShapes[] = {{3, 3.0}, {5, 4.5}, {8, 6.0}};
constexpr int kNumShapes = static_cast<int>(std::size(kShapes));

/// The workload's request stream. Requests come in cycles that hold every
/// combination of the workload's axes once — catalog-mc: flavor x (three
/// shapes + the middle shape as a latency-tier request, a quarter of all
/// requests); large-cold: tenant graph x shape; large-warm: graph x
/// planner x shape — in an order the workload seed shuffles per cycle.
/// Every run thus sends the same mix. (Seed-drawn budgets, T and tenant
/// graphs made the medians of 20 s runs spread 15-45% across seeds.)
class RequestStream {
 public:
  RequestStream(const WorkloadDef& w, uint64_t seed) : w_(w), rng_(seed) {}

  /// True between cycles: the requests sent so far are whole cycles.
  bool AtCycleBoundary() const { return order_.empty(); }
  int cycles_begun() const { return cycles_begun_; }

  Request Next() {
    if (order_.empty()) Shuffle();
    const int combo = order_.back();
    order_.pop_back();
    Request r;
    r.combo = combo;
    Shape shape = kShapes[combo % kNumShapes];
    const int rest = combo / kNumShapes;
    switch (w_.kind) {
      case Kind::kCatalogMc:
        r.target = combo / (kNumShapes + 1);
        r.latency_tier = combo % (kNumShapes + 1) == kNumShapes;
        shape = kShapes[r.latency_tier ? 1 : combo % (kNumShapes + 1)];
        break;
      case Kind::kLargeCold:
        r.dataset_seed = kColdGraphSeeds[rest];
        break;
      case Kind::kLargeWarm:
        r.planner = kWarmPlanners[rest % 4];
        r.target = rest / 4;
        break;
    }
    r.promotions = shape.promotions;
    r.budget_factor = shape.budget_factor;
    return r;
  }

 private:
  int CycleLength() const {
    switch (w_.kind) {
      case Kind::kCatalogMc:
        return (kNumShapes + 1) * static_cast<int>(std::size(kCatalogFlavors));
      case Kind::kLargeCold:
        return kNumShapes * static_cast<int>(std::size(kColdGraphSeeds));
      case Kind::kLargeWarm:
        return kNumShapes * static_cast<int>(std::size(kWarmPlanners)) *
               static_cast<int>(std::size(kWarmGraphSeeds));
    }
    return kNumShapes;
  }

  void Shuffle() {  // Fisher-Yates
    ++cycles_begun_;
    const int n = CycleLength();
    order_.resize(n);
    for (int i = 0; i < n; ++i) order_[i] = i;
    for (int i = n - 1; i > 0; --i) std::swap(order_[i], order_[rng_.Int(0, i)]);
  }

  const WorkloadDef& w_;
  Rng rng_;
  std::vector<int> order_;
  int cycles_begun_ = 0;
};

std::string RequestKey(const Request& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%d|%s|%.17g|%d|%d|%llu", r.target,
                r.planner, r.budget_factor, r.promotions,
                r.latency_tier ? 1 : 0,
                static_cast<unsigned long long>(r.dataset_seed));
  return buf;
}

// ------------------------------------------------------------ targets

/// One dataset behind one session.
struct Target {
  std::string label;
  std::unique_ptr<CampaignSession> session;
  double cheapest = 0.0;  // cheapest seed in the pruned candidate universe
  double make_s = 0.0;
  int64_t users = 0, edges = 0, pairs = 0;
};

util::Status MakeDataset(const DatasetSpec& spec, Dataset* out,
                         double* seconds) {
  util::trace::Span span("bench.data.make");
  const double t0 = Now();
  util::Status status = imdpp::data::DatasetRegistry::Make(spec, out);
  *seconds = Now() - t0;
  return status;
}

/// The cheapest seed any planner of this config may pick: the candidate
/// universe at an unbounded budget, priced from the dataset's cost table.
double CheapestCandidate(const Dataset& ds, const PlannerConfig& cfg) {
  const Problem problem =
      ds.MakeProblem(std::numeric_limits<double>::max(), 1);
  double cheapest = std::numeric_limits<double>::infinity();
  for (const auto& n :
       imdpp::core::BuildCandidateUniverse(problem, cfg.candidates)) {
    cheapest = std::min(cheapest, problem.Cost(n.user, n.item));
  }
  return cheapest;
}

/// Materializes `spec` and opens a session on it. `timed` accumulates the
/// parts a client pays for (Make and the session); the cost-table scan
/// that picks budgets is the benchmark's own and stays untimed.
util::Status OpenTarget(const DatasetSpec& spec, const PlannerConfig& cfg,
                        Target* out, double* timed) {
  Dataset ds;
  double make_s = 0.0;
  util::Status status = MakeDataset(spec, &ds, &make_s);
  if (!status.ok()) return status;
  out->label = spec.name + "#" + std::to_string(spec.seed) + "@" +
               std::to_string(spec.scale);
  out->make_s = make_s;
  out->users = ds.NumUsers();
  out->edges = ds.social->NumEdges();
  out->pairs = static_cast<int64_t>(ds.NumUsers()) * ds.NumItems();
  out->cheapest = CheapestCandidate(ds, cfg);
  const double t0 = Now();
  {
    util::trace::Span span("bench.session.open");
    out->session = std::make_unique<CampaignSession>(std::move(ds), cfg);
  }
  *timed += make_s + (Now() - t0);
  return util::OkStatus();
}

// ------------------------------------------------------ output checks

/// The per-request output checks. Empty = the plan passed.
std::vector<std::string> CheckPlan(const PlanResult& r, const Problem& p,
                                   const PlannerConfig& cfg) {
  std::vector<std::string> failures;
  if (!r.status.ok()) {
    failures.push_back("status not ok: " + r.status.ToString());
    return failures;
  }
  bool in_range = true;
  for (const auto& s : r.seeds) {
    if (s.user < 0 || s.user >= p.NumUsers() || s.item < 0 ||
        s.item >= p.NumItems() || s.promotion < 1 ||
        s.promotion > p.num_promotions) {
      failures.push_back("seed (" + std::to_string(s.user) + ", " +
                         std::to_string(s.item) + ", " +
                         std::to_string(s.promotion) + ") out of range");
      in_range = false;
      break;
    }
  }
  // Priced from the cost table, which only in-range seeds may index.
  const double cost = in_range ? p.TotalCost(r.seeds) : 0.0;
  if (!(cost <= p.budget * (1.0 + 1e-12))) {
    failures.push_back("cost " + std::to_string(cost) + " over budget " +
                       std::to_string(p.budget));
  }
  if (!std::isfinite(r.sigma)) failures.push_back("sigma is not finite");
  if (r.seeds.empty() &&
      !imdpp::core::BuildCandidateUniverse(p, cfg.candidates).empty()) {
    failures.push_back("empty schedule though a candidate fits the budget");
  }
  return failures;
}

/// Records the first schedule seen per request key; a later identical
/// request must return the identical schedule.
bool SameAsFirst(std::map<std::string, SeedGroup>& first,
                 const std::string& key, const SeedGroup& seeds) {
  auto [it, inserted] = first.emplace(key, seeds);
  return inserted || it->second == seeds;
}

std::string ScheduleKey(const std::string& label, int promotions,
                        const SeedGroup& seeds) {
  std::string key = label + "|" + std::to_string(promotions);
  char buf[64];
  for (const auto& s : seeds) {
    std::snprintf(buf, sizeof(buf), "|%d,%d,%d", s.user, s.item, s.promotion);
    key += buf;
  }
  return key;
}

/// The independent referee: σ̂ of `seeds` on a fresh mc backend with its
/// own seed and sample count.
double RefereeSigma(const Problem& problem, const PlannerConfig& cfg,
                    const SeedGroup& seeds,
                    const std::shared_ptr<util::ThreadPool>& pool) {
  imdpp::diffusion::SigmaBackendSpec spec;
  spec.name = "mc";
  imdpp::diffusion::CampaignConfig campaign = cfg.campaign;
  campaign.base_seed = kRefereeSeed;
  return imdpp::diffusion::MakeSigmaBackend(spec, problem, campaign,
                                            kRefereeSamples, kThreads, pool)
      ->Sigma(seeds);
}

// -------------------------------------------------------------- trace

struct SpanTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, double> calls;
};

/// Self time per span name from the collected trace events: a span's
/// duration minus the part its children on the same thread cover. Also
/// returns the inclusive seconds of the phase.select / phase.eval spans.
void FoldTrace(SpanTotals* totals, double* select_s, double* eval_s) {
  util::Json trace;
  std::string error;
  if (!util::Json::Parse(util::trace::TraceJson(), &trace, &error)) {
    std::fprintf(stderr, "plan_bench: unreadable trace: %s\n", error.c_str());
    return;
  }
  struct Open {
    std::string name;
    double start_us;
    double child_us;
  };
  std::map<int64_t, std::vector<Open>> stacks;
  *select_s = 0.0;
  *eval_s = 0.0;
  for (const util::Json& e : trace.Find("traceEvents")->elements()) {
    const std::string& ph = e.Find("ph")->AsString();
    if (ph != "B" && ph != "E") continue;
    std::vector<Open>& stack = stacks[e.Find("tid")->AsInt()];
    const double ts = e.Find("ts")->AsDouble();
    if (ph == "B") {
      stack.push_back({e.Find("name")->AsString(), ts, 0.0});
      continue;
    }
    if (stack.empty()) continue;
    const Open open = stack.back();
    stack.pop_back();
    const double dur = ts - open.start_us;
    totals->self_s[open.name] += 1e-6 * (dur - open.child_us);
    totals->calls[open.name] += 1.0;
    if (open.name == "phase.select") *select_s += 1e-6 * dur;
    if (open.name == "phase.eval") *eval_s += 1e-6 * dur;
    if (!stack.empty()) stack.back().child_us += dur;
  }
}

// -------------------------------------------------------------- a run

struct RunReport {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<std::pair<MetricDef, double>> metrics;
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadDef& w, const Sizes& sizes, uint64_t seed,
              double seconds, bool trace)
      : w_(w), sizes_(sizes), seed_(seed), seconds_(seconds), trace_(trace),
        cfg_(BaseConfig(w)), referee_pool_(util::MakeWorkerPool(kThreads)) {}

  RunReport Run();

 private:
  util::Status SetUp();
  util::Status Execute(const Request& req, Target** target,
                       std::unique_ptr<Target>* cold, PlanResult* result,
                       double* latency);
  void Probe(Target& t, const SeedGroup& schedule);
  void Fail(const std::string& what) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures_;
  }
  void Put(const char* name, double value) { values_[name] = value; }

  const WorkloadDef& w_;
  const Sizes sizes_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const PlannerConfig cfg_;
  std::shared_ptr<util::ThreadPool> referee_pool_;

  std::vector<std::unique_ptr<Target>> targets_;
  int failures_ = 0;
  std::map<std::string, double> values_;
  // Probe accumulators (traced run).
  std::vector<double> make_s_, prep_cold_, prep_warm_, prep_build_, ris_cold_,
      ris_warm_, tmi_s_, sigma_s_, sigma_serial_s_;
  std::vector<double> users_, edges_, pairs_, nominees_, markets_;
};

util::Status WorkloadRun::SetUp() {
  targets_.clear();
  std::vector<DatasetSpec> specs;
  switch (w_.kind) {
    case Kind::kCatalogMc:
      for (const char* flavor : kCatalogFlavors) {
        specs.push_back({flavor, sizes_.catalog_scale, 0});
      }
      break;
    case Kind::kLargeWarm:
      for (uint64_t graph_seed : kWarmGraphSeeds) {
        specs.push_back(
            {"scale-" + std::to_string(sizes_.large_users), 1.0, graph_seed});
      }
      break;
    case Kind::kLargeCold:
      // No tenant outlives its request; one full-size cold request warms
      // the code paths and the allocator instead.
      specs.push_back({"scale-" + std::to_string(sizes_.large_users), 1.0, 0});
      break;
  }
  for (const DatasetSpec& spec : specs) {
    auto t = std::make_unique<Target>();
    double ignored = 0.0;
    IMDPP_RETURN_IF_ERROR(OpenTarget(spec, cfg_, t.get(), &ignored));
    // Warm-up: one dysim request fills the session's prep and sketch
    // caches and spins up its pool.
    t->session->SetProblem(3.0 * t->cheapest, 3);
    const PlanResult warm = t->session->Run("dysim");
    if (!warm.status.ok()) return warm.status;
    targets_.push_back(std::move(t));
  }
  if (w_.kind == Kind::kLargeCold) targets_.clear();
  return util::OkStatus();
}

util::Status WorkloadRun::Execute(const Request& req, Target** target,
                                  std::unique_ptr<Target>* cold,
                                  PlanResult* result, double* latency) {
  util::trace::Span span("bench.request");
  double timed = 0.0;
  if (w_.kind == Kind::kLargeCold) {
    *cold = std::make_unique<Target>();
    IMDPP_RETURN_IF_ERROR(OpenTarget(
        {"scale-" + std::to_string(sizes_.large_users), 1.0, req.dataset_seed},
        cfg_, cold->get(), &timed));
    *target = cold->get();
  } else {
    *target = targets_[req.target].get();
  }
  CampaignSession& session = *(*target)->session;
  const double t0 = Now();
  {
    util::trace::Span run_span("bench.session.run");
    session.SetProblem(req.budget_factor * (*target)->cheapest,
                       req.promotions);
    *result = req.latency_tier
                  ? session.Run(req.planner, LatencyTierConfig(cfg_))
                  : session.Run(req.planner);
  }
  *latency = timed + (Now() - t0);
  return util::OkStatus();
}

void WorkloadRun::Probe(Target& t, const SeedGroup& schedule) {
  const Problem& problem = t.session->problem();
  std::shared_ptr<util::ThreadPool> pool = util::MakeWorkerPool(kThreads);
  users_.push_back(static_cast<double>(t.users));
  edges_.push_back(static_cast<double>(t.edges));
  pairs_.push_back(static_cast<double>(t.pairs));

  // prep::AcquirePrep on an empty cache, then again on the now-warm one.
  auto prep_cache = std::make_shared<imdpp::prep::PrepCache>();
  std::shared_ptr<imdpp::prep::PrepArtifacts> artifacts;
  for (int pass = 0; pass < 2; ++pass) {
    util::trace::Span span("bench.probe.prep_acquire");
    const double t0 = Now();
    auto lease = imdpp::prep::AcquirePrep(prep_cache, true, problem, pool,
                                          kThreads);
    const double dt = Now() - t0;
    if (!lease.ok()) {
      Fail("probe prep::AcquirePrep: " + lease.status().ToString());
      return;
    }
    (pass == 0 ? prep_cold_ : prep_warm_).push_back(dt);
    if (pass == 0) prep_build_.push_back(lease->artifacts->build_millis() / 1e3);
    artifacts = lease->artifacts;
  }

  imdpp::diffusion::CampaignConfig campaign = cfg_.campaign;
  campaign.base_seed = cfg_.seed;
  auto sketch_cache = std::make_shared<imdpp::prep::RisSketchCache>();
  if (std::string_view(w_.backend) == "ris") {
    for (int pass = 0; pass < 2; ++pass) {
      util::trace::Span span("bench.probe.ris_acquire");
      const double t0 = Now();
      auto lease = imdpp::prep::AcquireRisSketches(
          sketch_cache, problem, campaign, cfg_.eval.ris_sketches, pool,
          kThreads);
      const double dt = Now() - t0;
      if (!lease.ok()) {
        Fail("probe prep::AcquireRisSketches: " + lease.status().ToString());
        return;
      }
      (pass == 0 ? ris_cold_ : ris_warm_).push_back(dt);
    }
  }

  // core::RunTmi on the warm artifacts, through a memoized search engine
  // as Dysim builds it.
  imdpp::core::DysimConfig dcfg = imdpp::api::ToDysimConfig(cfg_);
  dcfg.shared_pool = pool;
  dcfg.backend.sketch_cache = sketch_cache;
  {
    auto engine = imdpp::diffusion::MakeSigmaBackend(
        dcfg.backend, problem, dcfg.campaign, dcfg.selection_samples,
        kThreads, pool);
    engine->EnableSigmaMemo();
    util::trace::Span span("bench.probe.tmi");
    const double t0 = Now();
    const imdpp::core::TmiResult tmi =
        imdpp::core::RunTmi(problem, *engine, dcfg, *artifacts);
    tmi_s_.push_back(Now() - t0);
    nominees_.push_back(static_cast<double>(tmi.selection.nominees.size()));
    markets_.push_back(static_cast<double>(tmi.plan.markets.size()));
  }

  // SigmaBackend::Sigma on the returned schedule at the workload's thread
  // count and serially; the first call per backend is untimed (it may
  // acquire sketches).
  imdpp::diffusion::SigmaBackendSpec spec = imdpp::api::ToBackendSpec(cfg_);
  spec.sketch_cache = sketch_cache;
  for (int threads : {kThreads, 0}) {
    auto engine = imdpp::diffusion::MakeSigmaBackend(
        spec, problem, campaign, cfg_.eval_samples, threads,
        threads > 1 ? pool : nullptr);
    engine->Sigma(schedule);
    util::trace::Span span("bench.probe.sigma");
    const double t0 = Now();
    engine->Sigma(schedule);
    (threads > 1 ? sigma_s_ : sigma_serial_s_).push_back(Now() - t0);
  }
}

RunReport WorkloadRun::Run() {
  RunReport report;
  // ---- set-up, repeated; the last one serves the loop.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    targets_.clear();
    const double t0 = k == 0 ? kProcessStart : Now();
    const util::Status status = SetUp();
    if (!status.ok()) {
      Fail("set-up: " + status.ToString());
      report.correct = false;
      return report;
    }
    setup_s.push_back(Now() - t0);
  }

  // ---- the closed loop.
  RequestStream stream(w_, seed_);
  Request req;
  int slot = 0;
  // Executions still due for `req`: false = untraced, true = traced.
  std::vector<bool> due;
  double pair_latency[2] = {0.0, 0.0};  // this request's [untraced, traced]
  std::vector<double> overhead_ratio;
  std::map<std::string, SeedGroup> first_schedule;
  std::map<std::string, double> referee_cache;
  std::vector<double> latency, traced_latency, untraced_latency, log_sigma;
  std::map<std::string, std::vector<double>> latency_by_planner;
  std::vector<double> select_s, eval_s;
  util::MetricsSnapshot counters;
  SpanTotals spans;
  double loop_wall = 0.0, cpu = 0.0, traced_wall = 0.0;
  int completed = 0, traced_count = 0;
  double pool_tasks = 0, pool_batches = 0, pool_task_s = 0, queue_max = 0;
  // The last scored schedule per target, for the Sigma probe.
  std::map<const Target*, SeedGroup> last_schedule;
  std::unique_ptr<Target> last_cold;

  // The traced run sends each request twice, so it runs half the cycles.
  const int cycles = std::max(
      1, static_cast<int>(std::lround(seconds_ / w_.nominal_cycle_s /
                                      (trace_ ? 2.0 : 1.0))));
  for (int i = 0; Now() - kProcessStart < kHardStopSeconds; ++i) {
    if (due.empty()) {
      if (stream.AtCycleBoundary() && stream.cycles_begun() == cycles) break;
      // The traced run sends every request twice, once traced, with the
      // order alternating, so trace.overhead is a paired ratio.
      req = stream.Next();
      if (trace_) {
        due = slot % 2 == 0 ? std::vector<bool>{true, false}
                            : std::vector<bool>{false, true};
      } else {
        // The first combination of every cycle is sent twice; the repeat
        // must return the identical schedule (the determinism invariant).
        // Any two requests with equal parameters are held to that rule.
        due = req.combo == 0 ? std::vector<bool>{false, false}
                             : std::vector<bool>{false};
      }
      ++slot;
    }
    const bool traced = due.back();
    due.pop_back();
    if (traced) {
      util::MetricRegistry::Global().Reset();
      util::MetricRegistry::Enable();
      util::trace::Enable();
    }
    Target* target = nullptr;
    std::unique_ptr<Target> cold;
    PlanResult result;
    double latency_s = 0.0;
    const double cpu0 = CpuSeconds();
    const util::Status status =
        Execute(req, &target, &cold, &result, &latency_s);
    cpu += CpuSeconds() - cpu0;
    if (traced) {
      util::trace::Disable();
      util::MetricRegistry::Disable();
    }
    ++report.attempted;
    loop_wall += latency_s;
    latency.push_back(latency_s);
    (traced ? traced_latency : untraced_latency).push_back(latency_s);
    pair_latency[traced ? 1 : 0] = latency_s;
    if (trace_ && due.empty() && pair_latency[0] > 0.0) {
      overhead_ratio.push_back(pair_latency[1] / pair_latency[0]);
    }
    if (!status.ok()) {
      Fail("request " + std::to_string(i) + ": " + status.ToString());
      ++report.failed;
      continue;
    }

    // ---- untimed: checks, counters, trace, referee.
    const Problem& problem = target->session->problem();
    std::vector<std::string> failures = CheckPlan(result, problem, cfg_);
    if (!SameAsFirst(first_schedule, RequestKey(req), result.seeds)) {
      failures.push_back("repeated request returned a different schedule");
    }
    if (!failures.empty()) {
      for (const std::string& f : failures) {
        Fail("request " + std::to_string(i) + " (" + target->label + ", " +
             req.planner + "): " + f);
      }
      ++report.failed;
      continue;
    }
    ++completed;
    if (cold != nullptr) make_s_.push_back(cold->make_s);
    latency_by_planner[req.planner].push_back(latency_s);
    counters.Merge(result.metrics);
    if (traced) {
      ++traced_count;
      traced_wall += latency_s;
      double sel = 0.0, ev = 0.0;
      FoldTrace(&spans, &sel, &ev);
      select_s.push_back(sel);
      eval_s.push_back(ev);
      const util::MetricsSnapshot pool =
          util::MetricRegistry::Global().Snapshot();
      pool_tasks += static_cast<double>(pool.Counter(metric::kPoolTasks));
      pool_batches += static_cast<double>(pool.Counter(metric::kPoolBatches));
      if (const auto* h = pool.Histogram(metric::kPoolTaskMillis)) {
        pool_task_s += h->sum / 1e3;
      }
      queue_max = std::max(queue_max, pool.Number(metric::kPoolQueueDepth));
    }
    if (!result.seeds.empty()) {
      const std::string key =
          ScheduleKey(target->label, req.promotions, result.seeds);
      auto it = referee_cache.find(key);
      if (it == referee_cache.end()) {
        it = referee_cache
                 .emplace(key, RefereeSigma(problem, cfg_, result.seeds,
                                            referee_pool_))
                 .first;
      }
      if (it->second > 0.0) log_sigma.push_back(std::log(it->second));
      std::printf("request %d %s %s T=%d budget=%.1f%s%s: %.4f s, %zu seeds, "
                  "referee sigma %.3f\n",
                  i, target->label.c_str(), req.planner, req.promotions,
                  problem.budget, req.latency_tier ? " latency-tier" : "",
                  traced ? " traced" : "", latency_s, result.seeds.size(),
                  it->second);
      last_schedule[target] = result.seeds;
      // The traced run probes the last cold tenant; otherwise each tenant
      // dies with its request.
      if (cold != nullptr && trace_) last_cold = std::move(cold);
    }
  }

  // ---- probes (traced run): each warm target, or the last cold tenant.
  SpanTotals probe_spans;
  if (trace_) {
    util::trace::Enable();
    if (w_.kind == Kind::kLargeCold) {
      if (last_cold != nullptr) {
        Probe(*last_cold, last_schedule[last_cold.get()]);
      }
    } else {
      for (auto& t : targets_) {
        make_s_.push_back(t->make_s);
        Probe(*t, last_schedule[t.get()]);
      }
    }
    util::trace::Disable();
    double ignored_select = 0.0, ignored_eval = 0.0;
    FoldTrace(&probe_spans, &ignored_select, &ignored_eval);
  }

  report.correct = failures_ == 0;
  const double n = std::max(1, completed);

  // ---- end-to-end metrics.
  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  const int count = static_cast<int>(sorted.size());
  // With too few samples for a tail, fall back to the maximum.
  const int tail_index =
      count > kTailBeyond ? count - 1 - kTailBeyond : count - 1;
  const double tail = count == 0 ? 0.0 : sorted[std::max(0, tail_index)];
  const double tail_pct = count == 0 ? 0.0 : 100.0 * (tail_index + 1) / count;
  Put("plan_p50_s", Median(latency));
  Put("plan_tail_s", tail);
  Put("plans_per_s", loop_wall > 0.0 ? completed / loop_wall : 0.0);
  Put("cpu_s_per_plan", cpu / n);
  double mean_log = 0.0;
  for (double l : log_sigma) mean_log += l;
  Put("sigma_ref_gmean",
      log_sigma.empty() ? 0.0 : std::exp(mean_log / log_sigma.size()));
  Put("setup_s", Median(setup_s));
  Put("peak_rss_mb", PeakRssMb());

  std::printf("workload %s seed %llu: %d requests (%d ok, %d failed) in "
              "%.3f s of loop wall, %d threads\n",
              w_.name, static_cast<unsigned long long>(seed_),
              report.attempted, completed, report.failed, loop_wall,
              kThreads);
  std::printf("failed_frac = %.6g fraction\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) / report.attempted
                  : 0.0);
  std::printf("plan_tail_s = p%.1f with %d samples beyond it (n=%d)\n",
              tail_pct, count - 1 - tail_index, count);
  std::printf("sigma_ref_gmean over %zu scored schedules (%zu referee "
              "calls)\n",
              log_sigma.size(), referee_cache.size());

  if (!trace_) {
    for (const MetricDef& d : kEndToEnd) {
      report.metrics.push_back({d, values_[d.name]});
    }
    return report;
  }

  // ---- per-layer metrics (traced run).
  const double traced_p50 = Median(traced_latency);
  const double untraced_p50 = Median(untraced_latency);
  Put("trace.overhead", Median(overhead_ratio));
  Put("trace.traced_p50_s", traced_p50);
  Put("trace.untraced_p50_s", untraced_p50);
  auto per_plan = [&](const char* name) {
    return static_cast<double>(counters.Counter(name)) / n;
  };
  for (const char* name :
       {metric::kEvalSimulations, metric::kEvalRoundsSimulated,
        metric::kEvalRoundsSkipped, metric::kEvalMemoHits,
        metric::kEvalSamplesSaved, metric::kEvalEarlyStops,
        metric::kEvalBlocksRun, metric::kPrepBuilds, metric::kPrepReuses,
        metric::kRisSketchBuilds, metric::kRisSketchReuses,
        metric::kRisCoverageQueries}) {
    Put(name, per_plan(name));
  }
  const double builds = counters.Counter(metric::kPrepBuilds);
  const double reuses = counters.Counter(metric::kPrepReuses);
  Put("prep.reuse_ratio",
      builds + reuses > 0 ? reuses / (builds + reuses) : 0.0);
  const double traced_n = std::max(1, traced_count);
  Put("pool.tasks", pool_tasks / traced_n);
  Put("pool.batches", pool_batches / traced_n);
  Put("pool.tasks_per_batch", pool_batches > 0 ? pool_tasks / pool_batches : 0);
  Put("pool.task_s", pool_task_s / traced_n);
  Put("pool.busy_frac",
      traced_wall > 0 ? pool_task_s / (traced_wall * kThreads) : 0.0);
  Put("pool.queue_depth_max", queue_max);
  Put("diffusion.sigma_s", Median(sigma_s_));
  Put("diffusion.sigma_serial_s", Median(sigma_serial_s_));
  Put("data.make_s", Median(make_s_));
  Put("data.users", Median(users_));
  Put("data.edges", Median(edges_));
  Put("data.pairs", Median(pairs_));
  Put("prep.cold_acquire_s", Median(prep_cold_));
  Put("prep.warm_acquire_s", Median(prep_warm_));
  Put("prep.build_s", Median(prep_build_));
  Put("ris.cold_acquire_s", Median(ris_cold_));
  Put("ris.warm_acquire_s", Median(ris_warm_));
  Put("core.tmi_s", Median(tmi_s_));
  Put("core.nominees", Median(nominees_));
  Put("cluster.markets", Median(markets_));
  Put("api.select_s", Median(select_s));
  Put("api.eval_s", Median(eval_s));
  for (const char* planner : kWarmPlanners) {
    values_[std::string("api.run_s.") + planner] =
        Median(latency_by_planner[planner]);
  }
  for (const char* span : kSpanNames) {
    values_[std::string("span.") + span + ".self_s"] =
        spans.self_s[span] / traced_n;
    values_[std::string("span.") + span + ".calls"] =
        spans.calls[span] / traced_n;
  }
  std::printf("trace: %d traced / %zu untraced requests\n", traced_count,
              untraced_latency.size());
  for (const auto& [name, self] : spans.self_s) {
    std::printf("  span %-28s self %.6f s/plan, %.1f calls/plan\n",
                name.c_str(), self / traced_n, spans.calls[name] / traced_n);
  }
  std::printf("probes:\n");
  for (const auto& [name, self] : probe_spans.self_s) {
    std::printf("  span %-28s self %.6f s, %.0f calls\n", name.c_str(), self,
                probe_spans.calls[name]);
  }
  for (const MetricDef& d : PerLayerMetrics()) {
    report.metrics.push_back({d, values_[d.name]});
  }
  return report;
}

std::string ResultLine(const RunReport& report) {
  util::Json metrics = util::Json::Object();
  for (const auto& [def, value] : report.metrics) {
    util::Json m = util::Json::Object();
    m.Set("value", value);
    m.Set("unit", def.unit);
    metrics.Set(def.name, std::move(m));
  }
  util::Json line = util::Json::Object();
  line.Set("correct", report.correct);
  line.Set("attempted", report.attempted);
  line.Set("failed", report.failed);
  line.Set("metrics", std::move(metrics));
  return line.Dump();
}

void PrintMetrics(const RunReport& report) {
  for (const auto& [def, value] : report.metrics) {
    std::printf("%s = %.9g %s\n", def.name, value, def.unit);
  }
}

// --------------------------------------------------------- self-check

/// Every output check must flag a broken plan; then every workload runs
/// briefly, untraced and traced, on tiny datasets.
int SelfCheck() {
  int problems = 0;
  auto expect = [&problems](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++problems;
  };

  const WorkloadDef& catalog = kWorkloads[0];
  const PlannerConfig cfg = BaseConfig(catalog);
  Target t;
  double ignored = 0.0;
  if (!OpenTarget({"yelp-like", kSelfCheckSizes.catalog_scale, 0}, cfg, &t,
                  &ignored)
           .ok()) {
    std::printf("self-check: FAILED to open a catalog target\n");
    return 1;
  }
  t.session->SetProblem(3.0 * t.cheapest, 4);
  const PlanResult good = t.session->Run("dysim");
  const Problem& p = t.session->problem();
  if (!CheckPlan(good, p, cfg).empty() || good.seeds.empty()) {
    std::printf("self-check: FAILED, a real plan does not pass the checks\n");
    return 1;
  }
  auto broken = [&](const char* what, auto mutate) {
    PlanResult r = good;
    Problem q = p;
    mutate(r, q);
    expect(!CheckPlan(r, q, cfg).empty(), std::string("detects ") + what);
  };
  broken("a non-ok status", [](PlanResult& r, Problem&) {
    r.status = util::InternalError("injected");
  });
  broken("cost over budget",
         [](PlanResult&, Problem& q) { q.budget = 1e-3; });
  broken("a user out of range",
         [&](PlanResult& r, Problem&) { r.seeds[0].user = p.NumUsers(); });
  broken("an item out of range",
         [](PlanResult& r, Problem&) { r.seeds[0].item = -1; });
  broken("t = 0", [](PlanResult& r, Problem&) { r.seeds[0].promotion = 0; });
  broken("t > T", [&](PlanResult& r, Problem&) {
    r.seeds[0].promotion = p.num_promotions + 1;
  });
  broken("a non-finite sigma", [](PlanResult& r, Problem&) {
    r.sigma = std::numeric_limits<double>::quiet_NaN();
  });
  broken("an empty schedule at a feasible budget",
         [](PlanResult& r, Problem&) { r.seeds.clear(); });
  std::map<std::string, SeedGroup> first;
  SameAsFirst(first, "k", good.seeds);
  SeedGroup changed = good.seeds;
  changed.pop_back();
  expect(!SameAsFirst(first, "k", changed) && SameAsFirst(first, "k", good.seeds),
         "detects a changed schedule on a repeated request");

  for (const WorkloadDef& w : kWorkloads) {
    for (bool trace : {false, true}) {
      WorkloadRun run(w, kSelfCheckSizes, /*seed=*/1, /*seconds=*/1.0, trace);
      const RunReport report = run.Run();
      const size_t expected =
          trace ? PerLayerMetrics().size() : std::size(kEndToEnd);
      bool positive = true;
      for (const auto& [def, value] : report.metrics) {
        if (!trace && !(value > 0.0)) positive = false;
      }
      expect(report.correct && report.attempted >= 2 &&
                 report.failed == 0 && report.metrics.size() == expected &&
                 positive,
             std::string(w.name) + (trace ? " traced" : " untraced") +
                 " run: " + std::to_string(report.attempted) + " requests");
    }
  }
  std::printf("self-check: %s\n", problems == 0 ? "passed" : "FAILED");
  RunReport summary;
  summary.correct = problems == 0;
  summary.attempted = 1;
  summary.failed = problems == 0 ? 0 : 1;
  std::printf("%s\n", ResultLine(summary).c_str());
  return problems == 0 ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "plan_bench: %s\nusage: plan_bench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       plan_bench --self-check | "
               "--list-metrics\nworkloads:",
               message);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") return SelfCheck();
    if (arg == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) {
        std::printf("end_to_end %s %s %s\n", d.name, d.unit, d.better);
      }
      for (const MetricDef& d : PerLayerMetrics()) {
        std::printf("per_layer %s %s %s\n", d.name, d.unit, d.better);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') seconds = 0.0;
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  const WorkloadDef* w = FindWorkload(workload);
  if (w == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("--seed needs a non-negative integer");
  if (!(seconds > 0.0 && seconds <= 120.0)) {
    return Usage("--seconds needs a value in (0, 120]");
  }
  if (trace < 0) return Usage("--trace needs 0 or 1");

  util::trace::RegisterCurrentThread("main");
  WorkloadRun run(*w, kFullSizes, seed, seconds, trace == 1);
  const RunReport report = run.Run();
  PrintMetrics(report);
  std::printf("%s\n", ResultLine(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
