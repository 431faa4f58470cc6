// In-process smoke tests of the imdpp CLI (cli::Run is the whole binary
// behind injectable streams): exit codes and registered-name listings on
// unknown planners/datasets, plan output that parses as JSON and matches
// an in-process CampaignSession::Run bit for bit, and the acceptance
// check of the sweep subsystem — a fig9-budget-shaped JSON sweep
// reproduces the estimates of the hand-rolled session loop the figure
// harnesses used to contain (same estimates from the same seeds).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "cli/cli.h"
#include "config/config_loader.h"
#include "data/dataset_registry.h"
#include "util/json.h"

namespace imdpp {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliResult r;
  r.code = cli::Run(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream file(path);
  file << content;
  return path;
}

util::Json ParseOrDie(const std::string& text) {
  util::Json v;
  std::string error;
  EXPECT_TRUE(util::Json::Parse(text, &v, &error))
      << error << "\ninput:\n" << text;
  return v;
}

TEST(Cli, DatasetsSubcommandListsRegistry) {
  CliResult r = RunCli({"datasets"});
  EXPECT_EQ(r.code, 0);
  for (const std::string& name : data::DatasetRegistry::Names()) {
    EXPECT_NE(r.out.find(name + "\n"), std::string::npos) << name;
  }
  EXPECT_NE(r.out.find("scale-<N>"), std::string::npos);
}

TEST(Cli, UnknownPlannerExitsNonZeroListingRegisteredNames) {
  CliResult r = RunCli(
      {"plan", "--dataset", "fig1-toy", "--planner", "no_such_planner"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("no_such_planner"), std::string::npos) << r.err;
  for (const std::string& name : api::PlannerRegistry::Names()) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << "\n" << r.err;
  }
}

TEST(Cli, UnknownDatasetExitsNonZeroListingRegisteredNames) {
  CliResult r = RunCli({"plan", "--dataset", "no_such_dataset"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("no_such_dataset"), std::string::npos) << r.err;
  for (const std::string& name : data::DatasetRegistry::Names()) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << "\n" << r.err;
  }
}

TEST(Cli, UnknownCommandAndMissingFlagsAreUsageErrors) {
  EXPECT_EQ(RunCli({"frobnicate"}).code, 2);
  EXPECT_EQ(RunCli({"plan"}).code, 2);               // no --dataset
  EXPECT_EQ(RunCli({"sweep"}).code, 2);              // no --config
  EXPECT_EQ(RunCli({"compare", "--dataset", "fig1-toy"}).code,
            2);                                      // no --planners
  EXPECT_EQ(RunCli({"help"}).code, 0);
  EXPECT_NE(RunCli({"help"}).out.find("usage"), std::string::npos);
}

TEST(Cli, PlanJsonParsesAndMatchesInProcessSessionRun) {
  // Overrides for every knob the CLI defaults differently from
  // api::PlannerConfig{}, so the in-process mirror below is exact.
  const std::string config_path = WriteTempFile("cli_plan_cfg.json", R"({
    "selection_samples": 4, "eval_samples": 8, "seed": 42,
    "candidates": {"max_users": 8, "max_items": 2}
  })");
  CliResult r = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                        "dysim", "--budget", "20", "--promotions", "2",
                        "--config", config_path});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  EXPECT_EQ(parsed.Find("command")->AsString(), "plan");
  EXPECT_DOUBLE_EQ(parsed.Find("budget")->AsDouble(), 20.0);
  const util::Json* result = parsed.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("planner")->AsString(), "dysim");

  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.seed = 42;
  cfg.candidates.max_users = 8;
  cfg.candidates.max_items = 2;
  api::CampaignSession session(
      data::DatasetRegistry::MakeOrDie({"fig1-toy"}), cfg);
  session.SetProblem(20.0, 2);
  api::PlanResult expected = session.Run("dysim");

  // JSON numbers round-trip bit-exactly, so equality is exact.
  EXPECT_DOUBLE_EQ(result->Find("sigma")->AsDouble(), expected.sigma);
  EXPECT_DOUBLE_EQ(result->Find("total_cost")->AsDouble(),
                   expected.total_cost);
  const util::Json* seeds = result->Find("seeds");
  ASSERT_NE(seeds, nullptr);
  ASSERT_EQ(seeds->size(), expected.seeds.size());
  for (size_t i = 0; i < expected.seeds.size(); ++i) {
    EXPECT_EQ((*seeds)[i].Find("user")->AsInt(), expected.seeds[i].user);
    EXPECT_EQ((*seeds)[i].Find("item")->AsInt(), expected.seeds[i].item);
    EXPECT_EQ((*seeds)[i].Find("t")->AsInt(), expected.seeds[i].promotion);
  }
  // The PR 3 work counters flow through the JSON output.
  EXPECT_EQ(result->Find("rounds_simulated")->AsInt(),
            expected.rounds_simulated);
  EXPECT_EQ(result->Find("rounds_skipped")->AsInt(),
            expected.rounds_skipped);
  EXPECT_EQ(result->Find("memo_hits")->AsInt(), expected.memo_hits);
  // No wall-clock fields without --timings: output is byte-stable.
  EXPECT_EQ(result->Find("wall_seconds"), nullptr);
}

TEST(Cli, IdenticalInvocationsPrintIdenticalBytes) {
  const std::vector<std::string> args{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "bgrd",        "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult a = RunCli(args);
  CliResult b = RunCli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
}

// The acceptance check: a fig9-budget-shaped sweep config (datasets x
// planners x budgets at T promotions, per-dataset planner subset, shared
// effort config) run through `imdpp sweep` yields exactly the estimates
// of the hand-rolled per-figure harness loop it replaced — one
// CampaignSession per dataset, SetProblem per budget, Run per algorithm.
TEST(Cli, SweepReproducesTheHandRolledFig9HarnessNumbers) {
  const char* kSweepConfig = R"({
    "name": "fig9-budget-small",
    "datasets": [
      "fig1-toy",
      {"name": "yelp-like", "scale": 0.15, "planners": ["dysim", "bgrd"]}
    ],
    "planners": ["dysim", "bgrd", "ps"],
    "budgets": [60, 100],
    "promotions": [3],
    "config": {
      "selection_samples": 4,
      "eval_samples": 8,
      "candidates": {"max_users": 10, "max_items": 4}
    }
  })";
  const std::string path = WriteTempFile("fig9_small.json", kSweepConfig);
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  const util::Json* points = parsed.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 2u * 3 + 2u * 2);  // toy x 3 planners, yelp x 2

  api::PlannerConfig cfg;
  cfg.selection_samples = 4;
  cfg.eval_samples = 8;
  cfg.candidates.max_users = 10;
  cfg.candidates.max_items = 4;

  size_t idx = 0;
  struct DatasetCase {
    data::DatasetSpec spec;
    std::vector<std::string> planners;
  };
  // std::vector (not a C array): gcc 12's inliner raises a spurious
  // -Wmaybe-uninitialized on the aggregate-initialized strings otherwise.
  const std::vector<DatasetCase> cases = {
      {{"fig1-toy", 1.0, 0}, {"dysim", "bgrd", "ps"}},
      {{"yelp-like", 0.15, 0}, {"dysim", "bgrd"}},
  };
  for (const DatasetCase& c : cases) {
    // The exact loop shape bench_fig9_budget.cc used to hand-roll.
    api::CampaignSession session(data::DatasetRegistry::MakeOrDie(c.spec),
                                 cfg);
    for (double budget : {60.0, 100.0}) {
      session.SetProblem(budget, 3);
      for (const std::string& planner : c.planners) {
        api::PlanResult expected = session.Run(planner);
        ASSERT_LT(idx, points->size());
        const util::Json& point = (*points)[idx++];
        EXPECT_EQ(point.Find("dataset")->AsString(), c.spec.name);
        EXPECT_EQ(point.Find("planner")->AsString(), planner);
        EXPECT_DOUBLE_EQ(point.Find("budget")->AsDouble(), budget);
        const util::Json* result = point.Find("result");
        ASSERT_NE(result, nullptr);
        // Same estimates from the same seeds — exact, not approximate.
        EXPECT_DOUBLE_EQ(result->Find("sigma")->AsDouble(), expected.sigma)
            << c.spec.name << " " << planner << " b=" << budget;
        EXPECT_DOUBLE_EQ(result->Find("total_cost")->AsDouble(),
                         expected.total_cost);
        EXPECT_EQ(result->Find("num_seeds")->AsInt(),
                  static_cast<int64_t>(expected.seeds.size()));
      }
    }
  }
  EXPECT_EQ(idx, points->size());
}

TEST(Cli, SweepWritesAlignedCsvAndFailsOnUnknownNames) {
  const std::string path = WriteTempFile("sweep_tiny.json", R"({
    "datasets": ["fig1-toy"],
    "planners": ["bgrd"],
    "budgets": [20],
    "promotions": [2],
    "config": {"selection_samples": 2, "eval_samples": 4}
  })");
  const std::string csv_path = ::testing::TempDir() + "sweep_tiny.csv";
  CliResult r =
      RunCli({"sweep", "--config", path, "--quiet", "--csv", csv_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_FALSE(std::getline(csv, extra));  // one point -> one data row
  EXPECT_EQ(header.substr(0, 7), "dataset");
  EXPECT_NE(header.find("rounds_simulated"), std::string::npos);
  EXPECT_NE(row.find("bgrd"), std::string::npos);

  // Unknown planner in a sweep fails fast, listing registered names.
  const std::string bad = WriteTempFile("sweep_bad.json", R"({
    "datasets": ["fig1-toy"], "planners": ["zzz"],
    "budgets": [20], "promotions": [2]
  })");
  CliResult bad_run = RunCli({"sweep", "--config", bad, "--quiet"});
  EXPECT_NE(bad_run.code, 0);
  EXPECT_NE(bad_run.err.find("zzz"), std::string::npos) << bad_run.err;
  EXPECT_NE(bad_run.err.find("dysim"), std::string::npos) << bad_run.err;
}

// Prep-artifact acceptance (ISSUE 5): across a fig9-shaped sweep the
// market structure is built exactly once per dataset and every other
// prep-consuming (budget, planner) cell reuses it; planners without
// structure report 0/0.
TEST(Cli, SweepBuildsPrepOncePerDatasetAndReusesItEverywhere) {
  const char* kSweepConfig = R"({
    "name": "prep-reuse",
    "datasets": ["fig1-toy", {"name": "yelp-like", "scale": 0.15}],
    "planners": ["dysim", "adaptive", "ps", "bgrd"],
    "budgets": [60, 100],
    "promotions": [3],
    "config": {
      "selection_samples": 4,
      "eval_samples": 8,
      "candidates": {"max_users": 10, "max_items": 4}
    }
  })";
  const std::string path = WriteTempFile("prep_reuse.json", kSweepConfig);
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  util::Json parsed = ParseOrDie(r.out);
  const util::Json* points = parsed.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 2u * 2 * 4);  // datasets x budgets x planners

  std::map<std::string, int64_t> builds, reuses;
  for (size_t i = 0; i < points->size(); ++i) {
    const util::Json& point = (*points)[i];
    const std::string dataset = point.Find("dataset")->AsString();
    const std::string planner = point.Find("planner")->AsString();
    const util::Json* result = point.Find("result");
    ASSERT_NE(result, nullptr);
    const int64_t b = result->Find("prep_builds")->AsInt();
    const int64_t u = result->Find("prep_reuses")->AsInt();
    if (planner == "bgrd") {  // consumes no prep structure
      EXPECT_EQ(b, 0) << dataset;
      EXPECT_EQ(u, 0) << dataset;
    }
    builds[dataset] += b;
    reuses[dataset] += u;
  }
  for (const auto& [dataset, total] : builds) {
    EXPECT_EQ(total, 1) << dataset << ": one build per dataset";
    // 3 prep-consuming planners x 2 budgets, minus the one build.
    EXPECT_EQ(reuses[dataset], 5) << dataset;
  }
}

// `imdpp datasets --prep` prints per-dataset artifact stats, byte-stable
// across runs (no wall-clock fields without --timings).
TEST(Cli, DatasetsPrepPrintsByteStableArtifactStats) {
  const std::vector<std::string> args{
      "datasets", "--prep",       "--dataset",          "fig1-toy",
      "--budget", "20",           "--promotions",       "2",
      "--selection-samples", "4", "--eval-samples",     "8"};
  CliResult a = RunCli(args);
  CliResult b = RunCli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);

  util::Json parsed = ParseOrDie(a.out);
  EXPECT_EQ(parsed.Find("command")->AsString(), "datasets");
  const util::Json* prep = parsed.Find("prep");
  ASSERT_NE(prep, nullptr);
  ASSERT_EQ(prep->size(), 1u);
  const util::Json& entry = (*prep)[0];
  EXPECT_EQ(entry.Find("dataset")->Find("name")->AsString(), "fig1-toy");
  EXPECT_GT(entry.Find("nominees")->AsInt(), 0);
  EXPECT_GT(entry.Find("markets")->AsInt(), 0);
  EXPECT_GT(entry.Find("mioa_regions")->AsInt(), 0);
  EXPECT_EQ(entry.Find("prep_millis"), nullptr);  // byte-stable by default
}

// ---------------------------------------------------- ISSUE 8 robustness

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST(Cli, FailOnFlagInjectsAStructuredErrorAndDoesNotLeak) {
  const std::vector<std::string> args{"plan",      "--dataset", "fig1-toy",
                                      "--planner", "bgrd",      "--budget",
                                      "20",        "--promotions", "2",
                                      "--fail-on", "data.load"};
  CliResult r = RunCli(args);
  EXPECT_EQ(r.code, 1);
  // stderr leads with the machine-readable error line.
  util::Json error = ParseOrDie(FirstLine(r.err));
  const util::Json* detail = error.Find("error");
  ASSERT_NE(detail, nullptr) << r.err;
  EXPECT_EQ(detail->Find("code")->AsInt(), 13);
  EXPECT_EQ(detail->Find("code_name")->AsString(), "internal");
  EXPECT_NE(detail->Find("message")->AsString().find("data.load"),
            std::string::npos);
  // Deterministic: the same injected failure renders the same bytes.
  EXPECT_EQ(r.err, RunCli(args).err);

  // The underscore alias arms the same point.
  CliResult alias = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                            "bgrd", "--budget", "20", "--promotions", "2",
                            "--fail_on", "data.load"});
  EXPECT_EQ(alias.code, 1);
  EXPECT_EQ(alias.err, r.err);

  // Run() disarms on exit: the next in-process invocation is clean.
  CliResult clean = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                            "bgrd", "--budget", "20", "--promotions", "2"});
  EXPECT_EQ(clean.code, 0) << clean.err;
}

TEST(Cli, FailOnRejectsUnknownPointsListingTheCatalog) {
  CliResult r = RunCli({"plan", "--dataset", "fig1-toy", "--planner",
                        "bgrd", "--fail-on", "no.such.point"});
  EXPECT_EQ(r.code, 2);
  util::Json error = ParseOrDie(FirstLine(r.err));
  const util::Json* detail = error.Find("error");
  ASSERT_NE(detail, nullptr) << r.err;
  EXPECT_EQ(detail->Find("code_name")->AsString(), "invalid_argument");
  const std::string message = detail->Find("message")->AsString();
  EXPECT_NE(message.find("no.such.point"), std::string::npos);
  for (const char* point : {"config.parse", "data.load", "eval.sigma",
                            "pool.enqueue", "prep.build", "prep.sketch"}) {
    EXPECT_NE(message.find(point), std::string::npos) << point;
  }
}

TEST(Cli, TinyDeadlineFailsWithDeadlineExceededJson) {
  const std::vector<std::string> args{
      "plan",         "--dataset", "yelp-like", "--planner",
      "dysim",        "--budget",  "100",       "--promotions",
      "2",            "--deadline-ms", "1"};
  CliResult r = RunCli(args);
  EXPECT_EQ(r.code, 1);
  util::Json error = ParseOrDie(FirstLine(r.err));
  const util::Json* detail = error.Find("error");
  ASSERT_NE(detail, nullptr) << r.err;
  EXPECT_EQ(detail->Find("code")->AsInt(), 4);
  EXPECT_EQ(detail->Find("code_name")->AsString(), "deadline_exceeded");
}

TEST(Cli, GenerousDeadlineIsByteInvisibleAndValidationRejectsNegative) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "bgrd",        "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;
  std::vector<std::string> with_deadline = base;
  with_deadline.insert(with_deadline.end(), {"--deadline-ms", "60000"});
  CliResult deadline = RunCli(with_deadline);
  ASSERT_EQ(deadline.code, 0) << deadline.err;
  EXPECT_EQ(deadline.out, plain.out);  // a quiet deadline changes no byte
  // The underscore alias parses too.
  std::vector<std::string> alias = base;
  alias.insert(alias.end(), {"--deadline_ms", "60000"});
  EXPECT_EQ(RunCli(alias).out, plain.out);

  std::vector<std::string> negative = base;
  negative.insert(negative.end(), {"--deadline-ms", "-1"});
  CliResult rejected = RunCli(negative);
  EXPECT_EQ(rejected.code, 2);
  util::Json error = ParseOrDie(FirstLine(rejected.err));
  EXPECT_EQ(error.Find("error")->Find("code_name")->AsString(),
            "invalid_argument");
}

// ISSUE 10: --adaptive turns on racing (the result JSON shows the race
// counters moving), --adaptive-delta validates its range, the underscore
// aliases parse, and the fixed-path run books zero race counters.
TEST(Cli, AdaptiveFlagEnablesRacingAndValidatesDelta) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "dysim",       "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "8"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;
  const util::Json plain_json = ParseOrDie(plain.out);  // owns *fixed_result
  const util::Json* fixed_result = plain_json.Find("result");
  ASSERT_NE(fixed_result, nullptr);
  EXPECT_EQ(fixed_result->Find("blocks_run")->AsInt(), 0);
  EXPECT_EQ(fixed_result->Find("early_stops")->AsInt(), 0);
  EXPECT_EQ(fixed_result->Find("samples_saved")->AsInt(), 0);

  std::vector<std::string> adaptive = base;
  adaptive.insert(adaptive.end(), {"--adaptive", "--adaptive-delta", "0.1"});
  CliResult raced = RunCli(adaptive);
  ASSERT_EQ(raced.code, 0) << raced.err;
  const util::Json raced_json = ParseOrDie(raced.out);  // owns *result
  const util::Json* result = raced_json.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("blocks_run")->AsInt(), 0);
  // And byte-determinism holds on the adaptive path too.
  EXPECT_EQ(RunCli(adaptive).out, raced.out);

  // The underscore alias parses to the same bytes.
  std::vector<std::string> alias = base;
  alias.insert(alias.end(), {"--adaptive", "--adaptive_delta", "0.1"});
  EXPECT_EQ(RunCli(alias).out, raced.out);

  std::vector<std::string> bad = base;
  bad.insert(bad.end(), {"--adaptive", "--adaptive-delta", "1.5"});
  CliResult rejected = RunCli(bad);
  EXPECT_EQ(rejected.code, 2);
  util::Json error = ParseOrDie(FirstLine(rejected.err));
  EXPECT_EQ(error.Find("error")->Find("code_name")->AsString(),
            "invalid_argument");

  // --adaptive-budget caps the race's decision samples (more skipped
  // simulations than the un-budgeted race) and rejects negatives.
  std::vector<std::string> budgeted = base;
  budgeted.insert(budgeted.end(),
                  {"--adaptive", "--adaptive-budget", "4"});
  CliResult capped = RunCli(budgeted);
  ASSERT_EQ(capped.code, 0) << capped.err;
  const util::Json capped_json = ParseOrDie(capped.out);  // owns *capped_result
  const util::Json* capped_result = capped_json.Find("result");
  ASSERT_NE(capped_result, nullptr);
  EXPECT_GT(capped_result->Find("blocks_run")->AsInt(), 0);
  EXPECT_GE(capped_result->Find("samples_saved")->AsInt(),
            result->Find("samples_saved")->AsInt());

  std::vector<std::string> negative = base;
  negative.insert(negative.end(),
                  {"--adaptive", "--adaptive-budget", "-1"});
  CliResult neg = RunCli(negative);
  EXPECT_EQ(neg.code, 2);
  util::Json neg_error = ParseOrDie(FirstLine(neg.err));
  EXPECT_EQ(neg_error.Find("error")->Find("code_name")->AsString(),
            "invalid_argument");
}

// The capability listing: every backend that implements the racing seam
// advertises it, so scripts can probe before flipping --adaptive on.
TEST(Cli, BackendsListsSelectBestCapability) {
  CliResult r = RunCli({"backends"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mc"), std::string::npos);
  EXPECT_NE(r.out.find("select-best"), std::string::npos);
}

// ISSUE 9: --trace-out writes a Perfetto-loadable Chrome trace with the
// pipeline's phase spans, --metrics-out a snapshot carrying every legacy
// counter — and neither flag changes a byte of the main JSON output.
TEST(Cli, TraceOutAndMetricsOutWriteArtifactsWithoutChangingStdout) {
  const std::vector<std::string> base{
      "plan",        "--dataset", "fig1-toy", "--planner",
      "dysim",       "--budget",  "20",       "--promotions",
      "2",           "--eval-samples", "8",   "--selection-samples", "4"};
  CliResult plain = RunCli(base);
  ASSERT_EQ(plain.code, 0) << plain.err;

  const std::string trace_path = ::testing::TempDir() + "cli_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "cli_metrics.json";
  std::vector<std::string> observed = base;
  observed.insert(observed.end(), {"--trace-out", trace_path,
                                   "--metrics-out", metrics_path});
  CliResult traced = RunCli(observed);
  ASSERT_EQ(traced.code, 0) << traced.err;
  EXPECT_EQ(traced.out, plain.out);  // observability changes no byte

  // The trace artifact: valid JSON, with every pipeline phase span.
  std::ifstream trace_file(trace_path);
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  util::Json trace = ParseOrDie(trace_text.str());
  const util::Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> begins;
  for (size_t i = 0; i < events->size(); ++i) {
    const util::Json& e = (*events)[i];
    if (e.Find("ph")->AsString() == "B") {
      ++begins[e.Find("name")->AsString()];
    }
  }
  for (const char* phase : {"phase.dataset", "phase.config", "phase.prep",
                            "phase.select", "phase.eval"}) {
    EXPECT_GE(begins[phase], 1) << phase;
  }

  // The metrics artifact: every legacy counter under its canonical name.
  std::ifstream metrics_file(metrics_path);
  std::stringstream metrics_text;
  metrics_text << metrics_file.rdbuf();
  util::Json metrics = ParseOrDie(metrics_text.str());
  for (const char* name :
       {"eval.simulations", "eval.rounds_simulated", "eval.rounds_skipped",
        "eval.memo_hits", "prep.builds", "prep.reuses", "prep.millis",
        "fault.injected", "fault.retries", "fault.fallbacks"}) {
    EXPECT_NE(metrics.Find(name), nullptr) << name;
  }

  // Arming is per-invocation: the next plain run records no trace events.
  CliResult again = RunCli(base);
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(again.out, plain.out);
}

TEST(Cli, MalformedSweepConfigReportsPosition) {
  const std::string path =
      WriteTempFile("sweep_malformed.json", "{\"datasets\": [,]}");
  CliResult r = RunCli({"sweep", "--config", path, "--quiet"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find(path), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("1:"), std::string::npos) << r.err;  // line:col
}

// ------------------------------------------------------- the knob table

/// Exit 2, and a first stderr line that is the JSON error naming `key`.
void ExpectInvalidArgument(const CliResult& r, const std::string& key) {
  EXPECT_EQ(r.code, 2) << key << "\n" << r.err;
  util::Json error;
  std::string parse_error;
  ASSERT_TRUE(util::Json::Parse(FirstLine(r.err), &error, &parse_error))
      << key << "\n" << r.err;
  const util::Json* detail = error.Find("error");
  ASSERT_NE(detail, nullptr) << r.err;
  EXPECT_EQ(detail->Find("code_name")->AsString(), "invalid_argument")
      << r.err;
  EXPECT_NE(detail->Find("message")->AsString().find(key), std::string::npos)
      << key << "\n" << r.err;
}

/// {"a": {"b": leaf}} for the path "a.b".
util::Json Nested(const std::string& path, const util::Json& leaf) {
  const size_t dot = path.find('.');
  util::Json obj = util::Json::Object();
  obj.Set(path.substr(0, dot), dot == std::string::npos
                                   ? leaf
                                   : Nested(path.substr(dot + 1), leaf));
  return obj;
}

// Every knob-table row gets a value of the wrong kind or outside its range,
// through cli::Run: a --config key for a planner knob, and the flag for a
// knob that has one. Each exits 2 naming the key before any work starts
// (the dataset does not exist, so a value wrongly accepted would exit 1
// without running a plan — the thread cap is only ever tested this way).
TEST(Cli, EveryKnobRejectsABadValueWithExitTwo) {
  const std::vector<std::pair<std::string, std::string>> config_cases = {
      {"selection_samples", "0"},
      {"eval_samples", "-3"},
      {"seed", "\"-1\""},
      {"num_threads", "-2"},
      {"deadline_ms", "-1"},
      {"prep.cache", "\"yes\""},
      {"prep.build_threads", "-7"},
      {"eval.backend", "\"nope\""},
      {"eval.fallback_backend", "\"nope\""},
      {"eval.ris_sketches", "0"},
      {"eval.adaptive.enabled", "1"},
      {"eval.adaptive.delta", "1"},
      {"eval.adaptive.block_samples", "0"},
      {"eval.adaptive.min_samples", "0"},
      {"eval.adaptive.max_samples", "-1"},
      {"candidates.max_users", "3e9"},
      {"candidates.max_items", "2.5"},
      {"campaign.model", "\"sir\""},
      {"campaign.max_steps", "\"many\""},
      {"clustering.social_weight", "\"heavy\""},
      {"clustering.relevance_weight", "true"},
      {"clustering.merge_threshold", "null"},
      {"clustering.max_hops", "-3e9"},
      {"market.mioa_threshold", "0"},
      {"market.mioa_max_hops", "0.5"},
      {"market.overlap_theta", "-1"},
      {"dysim.order", "\"zz\""},
      {"dysim.dr_max_depth", "-1"},
      {"dysim.use_target_markets", "\"no\""},
      {"dysim.use_item_priority", "0"},
      {"dysim.use_theorem5_guard", "[]"},
      {"adaptive.antagonism_threshold", "\"hi\""},
      {"ps.path_threshold", "1.5"},
      {"ps.max_hops", "2.5"},
      {"ps.covered_discount", "{}"},
      {"opt.max_candidates", "1e10"},
      {"opt.max_seeds", "1.5"},
  };
  const std::vector<std::pair<std::string, std::string>> flag_cases = {
      {"--budget", "-5"},
      {"--promotions", "0"},
      {"--scale", "0"},
      {"--dataset-seed", "-1"},
      {"--selection-samples", "0"},
      {"--eval-samples", "-3"},
      {"--seed", "18446744073709551616"},
      {"--threads", "100000"},
      {"--deadline-ms", "-1"},
      {"--backend", "nope"},
      {"--adaptive", "maybe"},
      {"--adaptive-delta", "1.5"},
      {"--adaptive-budget", "-1"},
      {"--theta", "-1"},
  };
  const std::vector<std::string> plan{"plan", "--dataset", "no-such-dataset"};
  std::set<std::string> covered;
  for (const auto& [path, bad] : config_cases) {
    util::Json leaf;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(bad, &leaf, &error)) << bad;
    const std::string config_path = WriteTempFile(
        "knob_" + path + ".json", Nested(path, leaf).Dump());
    std::vector<std::string> args = plan;
    args.insert(args.end(), {"--config", config_path});
    ExpectInvalidArgument(RunCli(args), path);
    covered.insert(path);
  }
  for (const auto& [flag, bad] : flag_cases) {
    std::vector<std::string> args = plan;
    args.insert(args.end(), {flag, bad});
    ExpectInvalidArgument(RunCli(args), flag);
    covered.insert(flag);
  }
  // Every row is covered: planner rows by key, flag rows by flag too.
  const std::string help = RunCli({"help"}).out;
  for (const config::KnobInfo& knob : config::DescribeKnobs()) {
    const bool planner_key =
        knob.path.find("[]") == std::string::npos &&
        knob.path.rfind("dataset.", 0) != 0;
    if (planner_key) {
      EXPECT_TRUE(covered.count(knob.path)) << knob.path;
    }
    if (!knob.flag.empty()) {
      EXPECT_TRUE(covered.count(knob.flag)) << knob.flag;
      EXPECT_NE(help.find(knob.flag + " "), std::string::npos) << knob.flag;
    }
  }
}

// The re-probed abort and silent-accept cases from the knob-table work:
// each used to exit 134 on a CHECK or run with a wrong value.
TEST(Cli, BadKnobValuesExitTwoInsteadOfAborting) {
  const std::vector<std::string> plan{"plan", "--dataset", "yelp-like@0.2"};
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"--selection-samples", "0"}, {"--eval-samples", "-3"},
      {"--promotions", "0"},        {"--budget", "-5"},
      {"--theta", "-1"},            {"--threads", "-7"},
      {"--promotions", "2.5"},      {"--backend", "nope"},
  };
  for (const auto& [flag, bad] : probes) {
    std::vector<std::string> args = plan;
    args.insert(args.end(), {flag, bad});
    ExpectInvalidArgument(RunCli(args), flag);
  }
  std::vector<std::string> args = plan;
  args.insert(args.end(),
              {"--config", WriteTempFile("ris_zero.json", R"({"eval":
                  {"backend": "ris", "ris_sketches": 0}})")});
  ExpectInvalidArgument(RunCli(args), "eval.ris_sketches");
  ExpectInvalidArgument(
      RunCli({"sweep", "--quiet", "--config",
              WriteTempFile("sweep_t0.json", R"({"datasets": ["fig1-toy"],
                  "planners": ["dysim"], "budgets": [10],
                  "promotions": [0]})")}),
      "promotions[]");
}

// A flag no table row and no subcommand declares is an error, not a
// silently ignored typo that runs the default budget.
TEST(Cli, UnknownFlagsAreInvalidArgument) {
  ExpectInvalidArgument(
      RunCli({"plan", "--dataset", "yelp-like@0.2", "--budegt", "5"}),
      "--budegt");
  ExpectInvalidArgument(RunCli({"datasets", "--prepp"}), "--prepp");
  ExpectInvalidArgument(RunCli({"help", "--verbose"}), "--verbose");
}

// The underscore spelling shares the hyphen flag's slot: the later one
// wins, so a generous deadline given last leaves the output untouched.
TEST(Cli, LaterHyphenFlagBeatsAnEarlierUnderscoreAlias) {
  CliResult plain = RunCli({"plan", "--dataset", "yelp-like@0.2"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  CliResult both = RunCli({"plan", "--dataset", "yelp-like@0.2",
                           "--deadline_ms", "1", "--deadline-ms", "100000"});
  ASSERT_EQ(both.code, 0) << both.err;
  EXPECT_EQ(both.out, plain.out);
}

}  // namespace
}  // namespace imdpp
