// ConfigLoader: the bridge from JSON/flag-files to the api:: layer — so
// planner settings, dataset choices and whole sweep grids are data, not
// recompiled C++.
//
// Every knob — a planner-config key, a problem coordinate, the CLI flag
// that sets it, its kind and its valid range — is one row of the knob
// table in config_loader.cc. JSON loading, flag parsing, range checks and
// the knob lines of `imdpp help` all read that table.
//
// Three layers:
//   * ApplyPlannerConfigJson — a JSON object of partial overrides applied
//     onto an api::PlannerConfig (absent keys keep their values), covering
//     the shared knobs and every per-algorithm sub-struct;
//   * DatasetSpecFromJson / ParseDatasetSpec — "yelp-like@0.5"-style
//     strings or {name, scale, seed} objects onto data::DatasetSpec;
//   * SweepSpec / ExpandSweep — a sweep config (datasets × planners ×
//     budgets × promotions × thetas × threads, with per-axis config
//     overrides on dataset and planner entries) expanded into the full
//     cross-product of resolved SweepPoints.
// Plus flag-file support: ParseArgs splices "--flagfile FILE" tokens
// inline, and later flags override earlier ones — so command-line flags
// after a flag-file take precedence over the file's contents. Flag names
// are normalized `_` → `-`, so --deadline_ms is --deadline-ms.
#ifndef IMDPP_CONFIG_CONFIG_LOADER_H_
#define IMDPP_CONFIG_CONFIG_LOADER_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/planner.h"
#include "data/dataset_registry.h"
#include "util/json.h"
#include "util/status.h"

namespace imdpp::config {

/// Reads and parses a JSON file. Structured failures (ISSUE 8): a missing
/// file is kNotFound, a parse error kInvalidArgument (carrying the file
/// name and position). Runs the config.parse fault point first.
util::Status LoadJsonFile(const std::string& path, util::Json* out);

/// Applies a JSON object of overrides onto *cfg. Unknown keys and
/// mistyped values fail with kInvalidArgument naming the key (a typo'd
/// knob must not silently run the default).
util::Status ApplyPlannerConfigJson(const util::Json& obj,
                                    api::PlannerConfig* cfg);

/// Dataset reference: "yelp-like@0.5" string or {name, scale, seed}
/// object, with an optional per-dataset "config" override object.
util::Status DatasetSpecFromJson(const util::Json& value,
                                 data::DatasetSpec* spec,
                                 util::Json* config_overrides);

/// One expanded grid point with its fully resolved configuration
/// (base config + dataset overrides + planner overrides + axis values).
struct SweepPoint {
  data::DatasetSpec dataset;
  std::string planner;
  double budget = 0.0;
  int num_promotions = 0;
  int theta = -1;        ///< applied to market.overlap_theta; -1 = config's
  int num_threads = util::kAutoThreads;
  std::string backend;   ///< resolved σ backend (config.eval.backend)
  bool adaptive = false;  ///< resolved config.eval.adaptive.enabled
  api::PlannerConfig config;
};

/// A sweep config file. Axes with no entries collapse to one point at the
/// base config's value, so a "sweep" degenerates cleanly into one run.
struct SweepSpec {
  std::string name = "sweep";
  struct PlannerAxis {
    std::string name;
    util::Json overrides;  ///< per-planner PlannerConfig overrides (or null)
  };
  struct DatasetAxis {
    data::DatasetSpec spec;
    util::Json overrides;  ///< per-dataset PlannerConfig overrides (or null)
    /// Per-dataset planner list (empty = the sweep-wide `planners`); how
    /// e.g. Fig. 9 omits HAG on Douban without a second config file.
    std::vector<PlannerAxis> planners;
  };
  std::vector<DatasetAxis> datasets;
  std::vector<PlannerAxis> planners;
  std::vector<double> budgets;
  std::vector<int> promotions;
  std::vector<int> thetas;       ///< empty = keep config's overlap_theta
  std::vector<int> num_threads;  ///< empty = keep config's num_threads
  /// σ-evaluation backends to cross over (registry names); empty = keep
  /// each point's config.eval.backend.
  std::vector<std::string> backends;
  api::PlannerConfig base;
};

/// Parses a sweep config object:
///   {"name": ..., "datasets": [...], "planners": [...],
///    "budgets": [...], "promotions": [...], "thetas": [...],
///    "threads": [...], "backends": [...], "config": {...}}
/// datasets/planners/budgets/promotions are required and non-empty.
/// A dataset entry may carry its own "planners" array (subset sweeps).
util::Status LoadSweepSpec(const util::Json& obj, SweepSpec* spec);

/// The full cross-product, datasets outermost then promotions, budgets,
/// thetas, threads, planners innermost — the order a session-reusing
/// runner wants (one dataset build, one problem per (T, b)). Per-axis
/// config overrides are resolved here; a malformed override object fails
/// with kInvalidArgument.
util::Status ExpandSweep(const SweepSpec& spec,
                         std::vector<SweepPoint>* points);

/// Flag-style command line: subcommand + positionals + "--key value" /
/// "--key=value" flags ("--key" followed by another flag or end of args
/// reads as "true"). "--flagfile FILE" splices the whitespace-separated
/// tokens of FILE ('#' starts a comment) in place, recursively (depth
/// capped). Flag names are stored with '_' replaced by '-'. Flags keep
/// their order; lookups take the LAST occurrence, so command-line flags
/// given after a flag-file override it.
struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  /// Last value of --key, or nullptr.
  const std::string* Find(std::string_view key) const;
  /// Find with a default.
  std::string GetOr(std::string_view key, std::string_view fallback) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
};

util::Status ParseArgs(const std::vector<std::string>& args, ParsedArgs* out);

/// Everything a knob can set: the planner config plus the problem
/// coordinates that flags, sweep axes and dataset entries carry outside
/// it. The coordinate defaults are the CLI's.
struct Knobs {
  data::DatasetSpec dataset;
  api::PlannerConfig config;
  double budget = 300.0;
  int promotions = 10;
};

/// Applies every knob flag present in `args` (its last occurrence) onto
/// *knobs. A malformed or out-of-range value is kInvalidArgument naming
/// the flag.
util::Status ApplyKnobFlags(const ParsedArgs& args, Knobs* knobs);

/// kInvalidArgument naming the first flag in `args` that is neither a
/// knob flag nor one of `command_flags` — a misspelled flag must not
/// silently run the default.
util::Status CheckFlagsDeclared(const ParsedArgs& args,
                                std::span<const std::string_view>
                                    command_flags);

/// One knob-table row as text, for `imdpp help` and the README table.
struct KnobInfo {
  std::string path;   ///< dotted JSON path; "budgets[]" = a sweep axis
  std::string flag;   ///< "--flag", or "" for a JSON-only knob
  std::string kind;   ///< int, double, bool, seed, choice or backend
  std::string range;  ///< accepted values, e.g. ">= 1" or "ic, lt"
  std::string help;
};

/// Every row of the knob table, in table order.
std::vector<KnobInfo> DescribeKnobs();

}  // namespace imdpp::config

#endif  // IMDPP_CONFIG_CONFIG_LOADER_H_
