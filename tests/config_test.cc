// Tests for the config subsystem: JSON round-trip and malformed-input
// errors (util/json), PlannerConfig/dataset-spec mapping, flag-file
// precedence, and sweep-grid expansion counts (config/config_loader).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "config/config_loader.h"
#include "data/dataset_registry.h"
#include "util/json.h"
#include "util/status.h"

namespace imdpp {
namespace {

// ------------------------------------------------------------- util/json

TEST(Json, RoundTripsEveryValueKind) {
  const char* text =
      R"({"null": null, "flag": true, "off": false, "int": -42,)"
      R"( "pi": 3.141592653589793, "tiny": 1e-9,)"
      R"( "text": "a\"b\\c\nA", "arr": [1, 2, [3]],)"
      R"( "obj": {"nested": {"deep": []}}})";
  util::Json v;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &v, &error)) << error;

  // Dump → reparse → identical value (numbers bit-exact).
  util::Json again;
  ASSERT_TRUE(util::Json::Parse(v.Dump(), &again, &error)) << error;
  EXPECT_EQ(v, again);
  ASSERT_TRUE(util::Json::Parse(v.Dump(2), &again, &error)) << error;
  EXPECT_EQ(v, again);

  EXPECT_TRUE(v.Find("null")->is_null());
  EXPECT_TRUE(v.Find("flag")->AsBool());
  EXPECT_FALSE(v.Find("off")->AsBool());
  EXPECT_EQ(v.Find("int")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(v.Find("pi")->AsDouble(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(v.Find("tiny")->AsDouble(), 1e-9);
  EXPECT_EQ(v.Find("text")->AsString(), "a\"b\\c\nA");
  EXPECT_EQ(v.Find("arr")->size(), 3u);
  EXPECT_EQ((*v.Find("arr"))[2][0].AsInt(), 3);
}

TEST(Json, ObjectsPreserveInsertionOrderForByteStableOutput) {
  util::Json obj = util::Json::Object();
  obj.Set("zebra", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  EXPECT_EQ(obj.Dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  // Overwriting keeps the original slot.
  obj.Set("alpha", 9);
  EXPECT_EQ(obj.Dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(Json, NumbersPrintShortestRoundTrippingForm) {
  EXPECT_EQ(util::Json(42).Dump(), "42");
  EXPECT_EQ(util::Json(-3.5).Dump(), "-3.5");
  EXPECT_EQ(util::Json(0.1).Dump(), "0.1");
  double v = 2.0 / 3.0;
  util::Json parsed;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(util::Json(v).Dump(), &parsed, &error));
  EXPECT_EQ(parsed.AsDouble(), v);  // bit-exact
}

TEST(Json, MalformedInputsFailWithPosition) {
  struct Case {
    const char* text;
    const char* fragment;  ///< expected substring of the error
  };
  const Case cases[] = {
      {"{", "unterminated"},
      {"[1, 2", "unterminated"},
      {"{\"a\" 1}", "expected ':'"},
      {"{\"a\": 1,, }", "expected string"},
      {"tru", "invalid literal"},
      {"\"abc", "unterminated string"},
      {"1.2.3", "trailing characters"},
      {"{\"a\": 1} x", "trailing characters"},
      {"[1e]", "invalid number"},
      {"{\"a\": 1, \"a\": 2}", "duplicate object key"},
      {"", "unexpected end"},
  };
  for (const Case& c : cases) {
    util::Json v;
    std::string error;
    EXPECT_FALSE(util::Json::Parse(c.text, &v, &error)) << c.text;
    EXPECT_NE(error.find(c.fragment), std::string::npos)
        << "input: " << c.text << " error: " << error;
    // Errors carry a line:col prefix.
    EXPECT_NE(error.find(':'), std::string::npos) << error;
  }
}

TEST(Json, LineCommentsAreAllowedInConfigs) {
  const char* text = "// header\n{\n  \"a\": 1 // trailing\n}\n";
  util::Json v;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &v, &error)) << error;
  EXPECT_EQ(v.Find("a")->AsInt(), 1);
}

// --------------------------------------------------------- planner config

TEST(ConfigLoader, AppliesPartialPlannerConfigOverrides) {
  const char* text = R"({
    "selection_samples": 7,
    "seed": "0xdeadbeef",
    "candidates": {"max_users": 12},
    "campaign": {"model": "lt", "max_steps": 9},
    "market": {"overlap_theta": 4},
    "dysim": {"order": "pf", "use_item_priority": false},
    "ps": {"max_hops": 3}
  })";
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(text, &obj, &error)) << error;
  api::PlannerConfig cfg;
  const int default_eval_samples = cfg.eval_samples;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();

  EXPECT_EQ(cfg.selection_samples, 7);
  EXPECT_EQ(cfg.eval_samples, default_eval_samples);  // untouched
  EXPECT_EQ(cfg.seed, 0xdeadbeefULL);
  EXPECT_EQ(cfg.candidates.max_users, 12);
  EXPECT_EQ(cfg.candidates.max_items, 0);  // untouched
  EXPECT_EQ(cfg.campaign.model, diffusion::DiffusionModel::kLinearThreshold);
  EXPECT_EQ(cfg.campaign.max_steps, 9);
  EXPECT_EQ(cfg.market.overlap_theta, 4);
  EXPECT_EQ(cfg.dysim.order, core::MarketOrderMetric::kProfitability);
  EXPECT_FALSE(cfg.dysim.use_item_priority);
  EXPECT_TRUE(cfg.dysim.use_target_markets);  // untouched
  EXPECT_EQ(cfg.ps.max_hops, 3);
}

TEST(ConfigLoader, ParsesPrepCacheKnobs) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"prep": {"cache": false, "build_threads": 3}})", &obj, &error));
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_FALSE(cfg.prep.cache);
  EXPECT_EQ(cfg.prep.build_threads, 3);

  ASSERT_TRUE(util::Json::Parse(R"({"prep": {"cash": true}})", &obj, &error));
  const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("prep"), std::string::npos) << bad.ToString();
}

TEST(ConfigLoader, ParsesRobustnessKnobs) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"deadline_ms": 1500, "eval": {"fallback_backend": "mc"}})", &obj,
      &error));
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(cfg.deadline_ms, 1500);
  EXPECT_EQ(cfg.eval.fallback_backend, "mc");

  ASSERT_TRUE(util::Json::Parse(R"({"deadline_ms": -5})", &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("deadline_ms"), std::string::npos)
      << bad.ToString();

  // A typo'd fallback backend fails at load time with the key listing,
  // exactly like eval.backend.
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"fallback_backend": "zzz"}})",
                                &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("zzz"), std::string::npos) << bad.ToString();
}

// ISSUE 10: the eval.adaptive.* knobs parse, validate their ranges, and
// reject typos — racing must be impossible to half-configure silently.
TEST(ConfigLoader, ParsesAdaptiveKnobs) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"enabled": true, "delta": 0.02,
                                "block_samples": 4, "min_samples": 6,
                                "max_samples": 12}}})",
      &obj, &error));
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(obj, &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_TRUE(cfg.eval.adaptive.enabled);
  EXPECT_EQ(cfg.eval.adaptive.delta, 0.02);
  EXPECT_EQ(cfg.eval.adaptive.block_samples, 4);
  EXPECT_EQ(cfg.eval.adaptive.min_samples, 6);
  EXPECT_EQ(cfg.eval.adaptive.max_samples, 12);

  // δ is a probability: the open interval (0, 1), nothing else.
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"adaptive": {"delta": 0.0}}})",
                                &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval.adaptive.delta"), std::string::npos)
      << bad.ToString();
  ASSERT_TRUE(util::Json::Parse(R"({"eval": {"adaptive": {"delta": 1.5}}})",
                                &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);

  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"block_samples": 0}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"min_samples": -1}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);
  // max_samples = 0 means "no budget", so only negatives are rejected.
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"max_samples": -4}}})", &obj, &error));
  EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
            util::StatusCode::kInvalidArgument);

  // Typos inside the nested object fail loudly like everywhere else.
  ASSERT_TRUE(util::Json::Parse(
      R"({"eval": {"adaptive": {"blok_samples": 4}}})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval.adaptive"), std::string::npos)
      << bad.ToString();
  EXPECT_NE(bad.message().find("blok_samples"), std::string::npos)
      << bad.ToString();
}

TEST(ConfigLoader, RejectsUnknownAndMistypedKnobs) {
  api::PlannerConfig cfg;
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(R"({"selektion_samples": 7})", &obj, &error));
  util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("selektion_samples"), std::string::npos)
      << bad.ToString();

  ASSERT_TRUE(util::Json::Parse(R"({"eval_samples": "many"})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("eval_samples"), std::string::npos)
      << bad.ToString();

  ASSERT_TRUE(
      util::Json::Parse(R"({"dysim": {"order": "zzz"}})", &obj, &error));
  bad = config::ApplyPlannerConfigJson(obj, &cfg);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("dysim.order"), std::string::npos)
      << bad.ToString();
}

// One seed reader behind every seed knob: a sign or a 65-bit digit string
// is rejected through JSON exactly as through --seed, not wrapped.
TEST(ConfigLoader, SeedKnobsRejectSignsAndOverflow) {
  for (const char* text :
       {R"({"seed": "-1"})", R"({"seed": "18446744073709551616"})",
        R"({"seed": -1})", R"({"seed": " 5"})", R"({"seed": ""})"}) {
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error)) << error;
    api::PlannerConfig cfg;
    const util::Status bad = config::ApplyPlannerConfigJson(obj, &cfg);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument) << text;
    EXPECT_NE(bad.message().find("seed"), std::string::npos) << text;
    EXPECT_EQ(cfg.seed, api::PlannerConfig{}.seed) << text;  // untouched
  }
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(R"({"seed": "18446744073709551615"})", &obj,
                                &error));
  api::PlannerConfig cfg;
  ASSERT_TRUE(config::ApplyPlannerConfigJson(obj, &cfg).ok());
  EXPECT_EQ(cfg.seed, 18446744073709551615ULL);  // the maximum is exact

  ASSERT_TRUE(util::Json::Parse(R"({"name": "fig1-toy", "seed": "-3"})",
                                &obj, &error));
  data::DatasetSpec spec;
  util::Json overrides;
  const util::Status bad =
      config::DatasetSpecFromJson(obj, &spec, &overrides);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("dataset.seed"), std::string::npos)
      << bad.ToString();
}

// Integers are checked integral and in range before any cast.
TEST(ConfigLoader, IntegerKnobsRejectFractionsAndOverflow) {
  for (const char* text :
       {R"({"eval_samples": 3e9})", R"({"eval_samples": 2.5})",
        R"({"candidates": {"max_users": -3e9}})",
        R"({"deadline_ms": 1e19})"}) {
    util::Json obj;
    std::string error;
    ASSERT_TRUE(util::Json::Parse(text, &obj, &error)) << error;
    api::PlannerConfig cfg;
    EXPECT_EQ(config::ApplyPlannerConfigJson(obj, &cfg).code(),
              util::StatusCode::kInvalidArgument)
        << text;
  }
}

// ---------------------------------------------------------- dataset specs

TEST(ConfigLoader, ParsesDatasetSpecStrings) {
  data::DatasetSpec spec = data::ParseDatasetSpec("yelp-like@0.5");
  EXPECT_EQ(spec.name, "yelp-like");
  EXPECT_DOUBLE_EQ(spec.scale, 0.5);

  spec = data::ParseDatasetSpec("fig1-toy");
  EXPECT_EQ(spec.name, "fig1-toy");
  EXPECT_DOUBLE_EQ(spec.scale, 1.0);
}

TEST(ConfigLoader, DatasetSpecFromJsonObject) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"name": "amazon-like", "scale": 0.25, "seed": 99,)"
      R"( "config": {"eval_samples": 8}})",
      &obj, &error));
  data::DatasetSpec spec;
  util::Json overrides;
  const util::Status parsed = config::DatasetSpecFromJson(obj, &spec,
                                                          &overrides);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(spec.name, "amazon-like");
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
  EXPECT_EQ(spec.seed, 99u);
  api::PlannerConfig cfg;
  const util::Status applied = config::ApplyPlannerConfigJson(overrides,
                                                              &cfg);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(cfg.eval_samples, 8);
}

TEST(DatasetRegistry, SyntheticSpecFileRoundTrip) {
  util::Json obj;
  std::string error;
  ASSERT_TRUE(util::Json::Parse(
      R"({"name": "my-world", "num_users": 17, "num_items": 9,)"
      R"( "topology": "small-world", "importance": "uniform",)"
      R"( "types": {"item": "GADGET"}})",
      &obj, &error));
  data::SyntheticSpec spec;
  const util::Status applied = data::ApplySyntheticSpecJson(obj, &spec);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(spec.name, "my-world");
  EXPECT_EQ(spec.num_users, 17);
  EXPECT_EQ(spec.num_items, 9);
  EXPECT_EQ(spec.topology, data::SocialTopology::kSmallWorld);
  EXPECT_EQ(spec.importance, data::ImportanceKind::kUniformRandom);
  EXPECT_EQ(spec.types.item, "GADGET");

  ASSERT_TRUE(util::Json::Parse(R"({"num_userz": 17})", &obj, &error));
  const util::Status bad = data::ApplySyntheticSpecJson(obj, &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("num_userz"), std::string::npos)
      << bad.ToString();
}

// -------------------------------------------------------------- flag files

class FlagFileTest : public ::testing::Test {
 protected:
  std::string WriteTempFile(const std::string& name,
                            const std::string& content) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
  }
};

TEST_F(FlagFileTest, SplicesTokensAndLaterFlagsWin) {
  const std::string path = WriteTempFile(
      "imdpp_flags.txt",
      "# effort preset\n--budget 250 --promotions 4\n--planner bgrd\n");
  config::ParsedArgs args;
  // Command-line --budget comes AFTER the flag file → overrides it;
  // --promotions comes from the file alone.
  util::Status parsed = config::ParseArgs(
      {"plan", "--flagfile", path, "--budget", "300"}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.command, "plan");
  EXPECT_EQ(args.GetOr("budget", ""), "300");
  EXPECT_EQ(args.GetOr("promotions", ""), "4");
  EXPECT_EQ(args.GetOr("planner", ""), "bgrd");

  // Flags BEFORE the flag file are overridden by it.
  parsed = config::ParseArgs(
      {"plan", "--planner", "dysim", "--flagfile=" + path}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.GetOr("planner", ""), "bgrd");
}

TEST_F(FlagFileTest, MissingFlagFileFails) {
  config::ParsedArgs args;
  const util::Status parsed =
      config::ParseArgs({"plan", "--flagfile", "/no/such/file"}, &args);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.message().find("/no/such/file"), std::string::npos)
      << parsed.ToString();
}

// An underscore spelling is the hyphen flag: both land in one slot, so
// the later one wins whichever spelling it uses.
TEST(ParseArgs, NormalizesUnderscoresInFlagNames) {
  config::ParsedArgs args;
  const util::Status parsed = config::ParseArgs(
      {"plan", "--deadline_ms", "1", "--deadline-ms=5", "--fail_on=x"},
      &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  ASSERT_EQ(args.flags.size(), 3u);
  EXPECT_EQ(args.flags[0].first, "deadline-ms");
  EXPECT_EQ(args.GetOr("deadline-ms", ""), "5");
  EXPECT_EQ(args.GetOr("fail-on", ""), "x");
}

TEST(ParseArgs, SupportsEqualsFormAndBareSwitches) {
  config::ParsedArgs args;
  const util::Status parsed = config::ParseArgs(
      {"sweep", "--config=x.json", "--timings", "--quiet"}, &args);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(args.command, "sweep");
  EXPECT_EQ(args.GetOr("config", ""), "x.json");
  EXPECT_TRUE(args.Has("timings"));
  EXPECT_TRUE(args.Has("quiet"));
  EXPECT_FALSE(args.Has("help"));
}

// ------------------------------------------------------------ sweep grids

util::Json ParseOrDie(const std::string& text) {
  util::Json v;
  std::string error;
  EXPECT_TRUE(util::Json::Parse(text, &v, &error)) << error;
  return v;
}

TEST(SweepSpec, ExpandsTheFullCrossProduct) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "name": "grid",
    "datasets": ["fig1-toy", "yelp-like@0.2"],
    "planners": ["dysim", "bgrd", "ps"],
    "budgets": [100, 200],
    "promotions": [2, 5],
    "thetas": [0, 2],
    "threads": [0, 2],
    "config": {"selection_samples": 4}
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  // 2 datasets x 2 promotions x 2 budgets x 2 thetas x 2 threads x 3
  // planners.
  EXPECT_EQ(points.size(), 2u * 2 * 2 * 2 * 2 * 3);
  // Planners innermost, datasets outermost.
  EXPECT_EQ(points[0].dataset.name, "fig1-toy");
  EXPECT_EQ(points[0].planner, "dysim");
  EXPECT_EQ(points[1].planner, "bgrd");
  EXPECT_EQ(points[2].planner, "ps");
  EXPECT_EQ(points.back().dataset.name, "yelp-like");
  EXPECT_DOUBLE_EQ(points.back().dataset.scale, 0.2);
  // Axis values land in the resolved configs.
  EXPECT_EQ(points[0].config.selection_samples, 4);
  EXPECT_EQ(points[0].config.market.overlap_theta, 0);
  EXPECT_EQ(points[0].config.num_threads, 0);
  EXPECT_EQ(points.back().config.market.overlap_theta, 2);
  EXPECT_EQ(points.back().config.num_threads, 2);
}

TEST(SweepSpec, OmittedAxesCollapseToOnePoint) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": ["fig1-toy"],
    "planners": ["dysim"],
    "budgets": [50],
    "promotions": [3]
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].theta, -1);  // sentinel: keep the config's theta
  EXPECT_EQ(points[0].config.market.overlap_theta,
            api::PlannerConfig{}.market.overlap_theta);
}

TEST(SweepSpec, PerAxisOverridesApplyInOrder) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": [
      {"name": "fig1-toy", "config": {"eval_samples": 10}},
      "yelp-like@0.2"
    ],
    "planners": [
      "dysim",
      {"planner": "bgrd", "config": {"eval_samples": 99, "seed": 7}}
    ],
    "budgets": [100],
    "promotions": [2],
    "config": {"eval_samples": 20, "seed": 1}
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  ASSERT_EQ(points.size(), 4u);
  // fig1-toy/dysim: dataset override wins over base.
  EXPECT_EQ(points[0].config.eval_samples, 10);
  EXPECT_EQ(points[0].config.seed, 1u);
  // fig1-toy/bgrd: planner override wins over dataset override.
  EXPECT_EQ(points[1].config.eval_samples, 99);
  EXPECT_EQ(points[1].config.seed, 7u);
  // yelp/dysim: base alone.
  EXPECT_EQ(points[2].config.eval_samples, 20);
}

TEST(SweepSpec, PerDatasetPlannerSubsets) {
  config::SweepSpec spec;
  const util::Status loaded = config::LoadSweepSpec(ParseOrDie(R"({
    "datasets": [
      "fig1-toy",
      {"name": "yelp-like", "scale": 0.2, "planners": ["dysim", "ps"]}
    ],
    "planners": ["dysim", "bgrd", "hag", "ps"],
    "budgets": [100, 200],
    "promotions": [2]
  })"),
                                                   &spec);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::vector<config::SweepPoint> points;
  const util::Status expanded = config::ExpandSweep(spec, &points);
  ASSERT_TRUE(expanded.ok()) << expanded.ToString();
  // fig1-toy: 2 budgets x 4 planners; yelp: 2 budgets x 2 planners.
  EXPECT_EQ(points.size(), 2u * 4 + 2u * 2);
  size_t yelp_points = 0;
  for (const config::SweepPoint& p : points) {
    if (p.dataset.name == "yelp-like") {
      ++yelp_points;
      EXPECT_TRUE(p.planner == "dysim" || p.planner == "ps") << p.planner;
    }
  }
  EXPECT_EQ(yelp_points, 4u);
}

TEST(SweepSpec, MissingRequiredAxesFail) {
  config::SweepSpec spec;
  util::Status bad = config::LoadSweepSpec(
      ParseOrDie(R"({"datasets": ["fig1-toy"], "planners": ["dysim"],
                     "budgets": [10]})"),
      &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("promotions"), std::string::npos)
      << bad.ToString();
  bad = config::LoadSweepSpec(
      ParseOrDie(R"({"planners": ["dysim"], "budgets": [10],
                     "promotions": [1]})"),
      &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("datasets"), std::string::npos)
      << bad.ToString();
}

// The sweep axes read through the knob rows they sweep, so each range is
// written once: promotions[] like --promotions, thetas[] like
// market.overlap_theta, threads[] like num_threads.
TEST(SweepSpec, AxesShareTheirKnobRanges) {
  struct Case {
    const char* axes;
    const char* named;  ///< expected substring of the error
  };
  const Case cases[] = {
      {R"("budgets": [10], "promotions": [0])", "promotions[]"},
      {R"("budgets": [10], "promotions": [2.5])", "promotions[]"},
      {R"("budgets": [-5], "promotions": [1])", "budgets[]"},
      {R"("budgets": [10], "promotions": [1], "thetas": [-1])", "thetas[]"},
      {R"("budgets": [10], "promotions": [1], "threads": [-7])", "threads[]"},
      {R"("budgets": [10], "promotions": [1], "threads": [100000])",
       "threads[]"},
      {R"("budgets": [10], "promotions": [1], "backends": ["nope"])",
       "backends[]"},
  };
  for (const Case& c : cases) {
    config::SweepSpec spec;
    const util::Status bad = config::LoadSweepSpec(
        ParseOrDie(std::string(R"({"datasets": ["fig1-toy"],)"
                               R"( "planners": ["dysim"], )") +
                   c.axes + "}"),
        &spec);
    EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument) << c.axes;
    EXPECT_NE(bad.message().find(c.named), std::string::npos)
        << c.axes << ": " << bad.ToString();
  }
  config::SweepSpec spec;
  const util::Status bad = config::LoadSweepSpec(
      ParseOrDie(R"({"datasets": [{"name": "fig1-toy", "scale": 0}],
                     "planners": ["dysim"], "budgets": [10],
                     "promotions": [1]})"),
      &spec);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("dataset.scale"), std::string::npos)
      << bad.ToString();
}

// The README's knob table documents every row of the code's knob table.
TEST(KnobTable, ReadmeListsEveryKnob) {
  std::ifstream file(std::string(IMDPP_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(file.good());
  std::stringstream readme;
  readme << file.rdbuf();
  const std::vector<config::KnobInfo> knobs = config::DescribeKnobs();
  ASSERT_FALSE(knobs.empty());
  for (const config::KnobInfo& knob : knobs) {
    EXPECT_NE(readme.str().find("| `" + knob.path + "` |"), std::string::npos)
        << knob.path << " is missing from the README knob table";
  }
}

}  // namespace
}  // namespace imdpp
