#include "config/config_loader.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "diffusion/sigma_backend.h"
#include "util/fault_injection.h"

namespace imdpp::config {

namespace {

// ------------------------------------------------------------ knob table

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Far above any host's core count: a typo like `--threads 1000000` must
/// fail here, not ask the OS for a million threads.
constexpr int kMaxThreads = 1024;

/// The numbers a numeric knob accepts; an infinite end is unbounded.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool Contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }

  std::string Text() const {
    const auto num = [](double v) { return util::Json(v).Dump(); };
    if (std::isinf(lo) && std::isinf(hi)) return "any";
    if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + num(lo);
    return std::string("in ") + (lo_open ? "(" : "[") + num(lo) + ", " +
           num(hi) + (hi_open ? ")" : "]");
  }
};

constexpr Range AtLeast(double lo) { return Range{lo}; }
constexpr Range kThreadCount{util::kAutoThreads, kMaxThreads};
constexpr Range kPositive{0.0, kInf, /*lo_open=*/true};
constexpr Range kUnitOpen{0.0, 1.0, /*lo_open=*/true, /*hi_open=*/true};
constexpr Range kUnitHalfOpen{0.0, 1.0, /*lo_open=*/true};

/// The member a row sets, as an accessor into Knobs. The member's type is
/// the row's kind: int, double, bool, a u64 seed, a registered backend
/// name (std::string) or a fixed choice list (an enum).
using Field = std::variant<int& (*)(Knobs&), int64_t& (*)(Knobs&),
                           double& (*)(Knobs&), bool& (*)(Knobs&),
                           uint64_t& (*)(Knobs&), std::string& (*)(Knobs&),
                           diffusion::DiffusionModel& (*)(Knobs&),
                           core::MarketOrderMetric& (*)(Knobs&)>;

#define IMDPP_KNOB(member) +[](Knobs& k) -> auto& { return k.member; }

struct Knob {
  const char* path;  ///< dotted JSON path; "budgets[]" = a sweep axis
  const char* flag;  ///< CLI flag without "--", or nullptr (JSON only)
  Field field;
  const char* help;
  Range range = {};  ///< numeric kinds
  /// Enum kinds: the accepted names in enum order, ", "-separated.
  /// Backend kinds: non-null = this value is accepted too ("" = none).
  const char* choices = nullptr;
};

// Rows a sweep axis reads too, named so the axis shares their range.
constexpr Knob kBudgetKnob{"budgets[]", "budget", IMDPP_KNOB(budget),
                           "campaign budget b", AtLeast(0)};
constexpr Knob kPromotionsKnob{"promotions[]", "promotions",
                               IMDPP_KNOB(promotions),
                               "promotion rounds T", AtLeast(1)};
constexpr Knob kThetaKnob{"market.overlap_theta", "theta",
                          IMDPP_KNOB(config.market.overlap_theta),
                          "market-overlap theta (Sec. V-B)",
                          AtLeast(0)};
constexpr Knob kBackendKnob{"eval.backend", "backend",
                            IMDPP_KNOB(config.eval.backend),
                            "sigma-evaluation backend (see `imdpp backends`)"};
constexpr Knob kThreadsKnob{
    "num_threads", "threads", IMDPP_KNOB(config.num_threads),
    "Monte-Carlo executors, -1 = hardware, 0 = serial", kThreadCount};

/// The knob table. Its first kNumCoordinates rows are the problem
/// coordinates: flags, sweep axes and dataset entries set them, a planner
/// config object does not. The rest are api::PlannerConfig keys, as paths
/// inside a planner config object.
constexpr size_t kNumCoordinates = 4;
constexpr Knob kKnobs[] = {
    kBudgetKnob,
    kPromotionsKnob,
    {"dataset.scale", "scale", IMDPP_KNOB(dataset.scale),
     "dataset size multiplier (default 1, or @SCALE)", kPositive},
    {"dataset.seed", "dataset-seed", IMDPP_KNOB(dataset.seed),
     "dataset RNG seed (0 = the flavor's default)"},
    {"selection_samples", "selection-samples",
     IMDPP_KNOB(config.selection_samples), "search-time Monte-Carlo samples",
     AtLeast(1)},
    {"eval_samples", "eval-samples", IMDPP_KNOB(config.eval_samples),
     "final-evaluation Monte-Carlo samples", AtLeast(1)},
    {"seed", "seed", IMDPP_KNOB(config.seed), "master RNG seed"},
    kThreadsKnob,
    {"deadline_ms", "deadline-ms", IMDPP_KNOB(config.deadline_ms),
     "per-run wall-clock budget in ms, 0 = none", AtLeast(0)},
    {"prep.cache", nullptr, IMDPP_KNOB(config.prep.cache),
     "reuse the session's prep artifacts across runs"},
    {"prep.build_threads", nullptr, IMDPP_KNOB(config.prep.build_threads),
     "prep build executors, <= 1 = inline", kThreadCount},
    kBackendKnob,
    {"eval.fallback_backend", nullptr,
     IMDPP_KNOB(config.eval.fallback_backend),
     "backend a failing primary degrades to, \"\" = none", {}, ""},
    {"eval.ris_sketches", nullptr, IMDPP_KNOB(config.eval.ris_sketches),
     "RIS sketch count for the ris backend", AtLeast(1)},
    {"eval.adaptive.enabled", "adaptive",
     IMDPP_KNOB(config.eval.adaptive.enabled),
     "variance-adaptive racing in greedy argmax loops"},
    {"eval.adaptive.delta", "adaptive-delta",
     IMDPP_KNOB(config.eval.adaptive.delta), "racing error budget delta",
     kUnitOpen},
    {"eval.adaptive.block_samples", nullptr,
     IMDPP_KNOB(config.eval.adaptive.block_samples),
     "samples per racing block", AtLeast(1)},
    {"eval.adaptive.min_samples", nullptr,
     IMDPP_KNOB(config.eval.adaptive.min_samples),
     "samples before the first elimination test", AtLeast(1)},
    {"eval.adaptive.max_samples", "adaptive-budget",
     IMDPP_KNOB(config.eval.adaptive.max_samples),
     "racing sample budget per candidate, 0 = none", AtLeast(0)},
    {"candidates.max_users", nullptr, IMDPP_KNOB(config.candidates.max_users),
     "candidate users kept, 0 = all"},
    {"candidates.max_items", nullptr, IMDPP_KNOB(config.candidates.max_items),
     "candidate items kept, 0 = all"},
    {"campaign.model", nullptr, IMDPP_KNOB(config.campaign.model),
     "diffusion model", {}, "ic, lt"},
    {"campaign.max_steps", nullptr, IMDPP_KNOB(config.campaign.max_steps),
     "step cap within one promotion"},
    {"clustering.social_weight", nullptr,
     IMDPP_KNOB(config.clustering.social_weight),
     "weight of the social hop distance"},
    {"clustering.relevance_weight", nullptr,
     IMDPP_KNOB(config.clustering.relevance_weight),
     "weight of the net item relevance"},
    {"clustering.merge_threshold", nullptr,
     IMDPP_KNOB(config.clustering.merge_threshold),
     "average-linkage merge threshold"},
    {"clustering.max_hops", nullptr, IMDPP_KNOB(config.clustering.max_hops),
     "hop search truncation"},
    {"market.mioa_threshold", nullptr,
     IMDPP_KNOB(config.market.mioa_threshold), "MIOA path threshold",
     kUnitHalfOpen},
    {"market.mioa_max_hops", nullptr, IMDPP_KNOB(config.market.mioa_max_hops),
     "MIOA hop cap"},
    kThetaKnob,
    {"dysim.order", nullptr, IMDPP_KNOB(config.dysim.order),
     "market order metric", {}, "ae, pf, sz, rms, rd"},
    {"dysim.dr_max_depth", nullptr, IMDPP_KNOB(config.dysim.dr_max_depth),
     "dynamic-reachability search depth", AtLeast(0)},
    {"dysim.use_target_markets", nullptr,
     IMDPP_KNOB(config.dysim.use_target_markets),
     "target markets (Fig. 10 w/o TM when false)"},
    {"dysim.use_item_priority", nullptr,
     IMDPP_KNOB(config.dysim.use_item_priority),
     "item priority (Fig. 10 w/o IP when false)"},
    {"dysim.use_theorem5_guard", nullptr,
     IMDPP_KNOB(config.dysim.use_theorem5_guard), "Theorem 5 guard"},
    {"adaptive.antagonism_threshold", nullptr,
     IMDPP_KNOB(config.adaptive.antagonism_threshold),
     "net substitutable relevance that counts as antagonistic"},
    {"ps.path_threshold", nullptr, IMDPP_KNOB(config.ps.path_threshold),
     "PS path probability threshold", kUnitHalfOpen},
    {"ps.max_hops", nullptr, IMDPP_KNOB(config.ps.max_hops), "PS hop cap"},
    {"ps.covered_discount", nullptr, IMDPP_KNOB(config.ps.covered_discount),
     "PS discount for covered users"},
    {"opt.max_candidates", nullptr, IMDPP_KNOB(config.opt.max_candidates),
     "OPT singletons kept, 0 = all"},
    {"opt.max_seeds", nullptr, IMDPP_KNOB(config.opt.max_seeds),
     "OPT seed-group size cap, 0 = unbounded"},
};

#undef IMDPP_KNOB

constexpr std::span<const Knob> kCoordinateKnobs =
    std::span(kKnobs).first(kNumCoordinates);
constexpr std::span<const Knob> kPlannerKnobs =
    std::span(kKnobs).subspan(kNumCoordinates);

// ------------------------------------------------------- one reader per kind
// Each reads a JSON value (a flag's text is converted first) and writes
// *out only on success; `where` names the path or flag in the error.

util::Status Read(const Knob& row, const util::Json& v,
                  const std::string& where, double* out) {
  if (!v.is_number() || !std::isfinite(v.AsDouble())) {
    return util::InvalidArgumentError(where + " must be a number");
  }
  if (!row.range.Contains(v.AsDouble())) {
    return util::InvalidArgumentError(where + " must be " + row.range.Text());
  }
  *out = v.AsDouble();
  return util::OkStatus();
}

/// Integral and in range as a double, so the cast below is always defined.
template <typename Int>
  requires std::is_same_v<Int, int> || std::is_same_v<Int, int64_t>
util::Status Read(const Knob& row, const util::Json& v,
                  const std::string& where, Int* out) {
  if (!v.is_number() || v.AsDouble() != std::floor(v.AsDouble())) {
    return util::InvalidArgumentError(where + " must be an integer");
  }
  double value = 0.0;
  IMDPP_RETURN_IF_ERROR(Read(row, v, where, &value));
  // -min is 2^31 (2^63), exact in a double.
  constexpr double kLimit = -static_cast<double>(std::numeric_limits<Int>::min());
  if (value < -kLimit || value >= kLimit) {
    return util::InvalidArgumentError(
        where + " does not fit a " + std::to_string(sizeof(Int) * 8) +
        "-bit integer");
  }
  *out = static_cast<Int>(value);
  return util::OkStatus();
}

util::Status Read(const Knob&, const util::Json& v, const std::string& where,
                  bool* out) {
  if (!v.is_bool()) return util::InvalidArgumentError(where + " must be a bool");
  *out = v.AsBool();
  return util::OkStatus();
}

/// Seeds may exceed JSON's exact double range, so digit strings (decimal
/// or 0x hex) are accepted alongside numbers; a sign or an overflow fails.
util::Status Read(const Knob&, const util::Json& v, const std::string& where,
                  uint64_t* out) {
  const util::Status bad = util::InvalidArgumentError(
      where + " must be an unsigned 64-bit integer or digit string");
  if (v.is_number()) {
    const double d = v.AsDouble();
    if (d < 0.0 || d != std::floor(d) || d >= 18446744073709551616.0) {
      return bad;
    }
    *out = static_cast<uint64_t>(d);
    return util::OkStatus();
  }
  if (!v.is_string() || v.AsString().empty() ||
      !std::isdigit(static_cast<unsigned char>(v.AsString().front()))) {
    return bad;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed =
      std::strtoull(v.AsString().c_str(), &end, 0);
  if (*end != '\0' || errno == ERANGE) return bad;
  *out = parsed;
  return util::OkStatus();
}

/// Validated against the registry here so a typo'd backend fails at load
/// time, naming the registered keys.
util::Status Read(const Knob& row, const util::Json& v,
                  const std::string& where, std::string* out) {
  if (!v.is_string()) {
    return util::InvalidArgumentError(where + " must be a string");
  }
  const std::string& name = v.AsString();
  const bool extra = row.choices != nullptr && name == row.choices;
  if (!extra && !diffusion::SigmaBackendRegistry::Has(name)) {
    return util::InvalidArgumentError(
        where + ": " + diffusion::SigmaBackendRegistry::UnknownMessage(name));
  }
  *out = name;
  return util::OkStatus();
}

template <typename Enum>
  requires std::is_enum_v<Enum>
util::Status Read(const Knob& row, const util::Json& v,
                  const std::string& where, Enum* out) {
  if (!v.is_string()) {
    return util::InvalidArgumentError(where + " must be a string");
  }
  std::string_view names = row.choices;
  for (int i = 0; !names.empty(); ++i) {
    const size_t comma = names.find(", ");
    if (names.substr(0, comma) == v.AsString()) {
      *out = static_cast<Enum>(i);
      return util::OkStatus();
    }
    names = comma == std::string_view::npos ? "" : names.substr(comma + 2);
  }
  return util::InvalidArgumentError("unknown " + where + " \"" +
                                    v.AsString() + "\" (expected " +
                                    row.choices + ")");
}

/// The type of the member a row's field points at.
template <typename F>
using FieldType =
    std::remove_reference_t<std::invoke_result_t<F, Knobs&>>;

/// A flag's text as the JSON value its kind reads: numbers and bools
/// parse as JSON, names and seeds stay text (a seed above 2^53 must not
/// round through a double).
util::Status ApplyFlag(const Knob& row, const std::string& text,
                       Knobs* knobs) {
  return std::visit(
      [&](auto field) {
        using T = FieldType<decltype(field)>;
        util::Json value(text);
        if constexpr (std::is_arithmetic_v<T> &&
                      !std::is_same_v<T, uint64_t>) {
          util::Json parsed;
          std::string ignored;
          if (util::Json::Parse(text, &parsed, &ignored)) value = parsed;
        }
        return Read(row, value, std::string("--") + row.flag,
                    &field(*knobs));
      },
      row.field);
}

/// Applies one member of a JSON object whose path so far is `prefix`: a
/// row's value, or a section object walked recursively. `section` names
/// the enclosing object in the unknown-key error.
util::Status ApplyMember(std::span<const Knob> rows, const std::string& prefix,
                         const std::string& key, const util::Json& v,
                         const std::string& section, Knobs* knobs) {
  const std::string path = prefix + key;
  for (const Knob& row : rows) {
    if (path != row.path) continue;
    return std::visit(
        [&](auto field) { return Read(row, v, path, &field(*knobs)); },
        row.field);
  }
  for (const Knob& row : rows) {
    if (!std::string_view(row.path).starts_with(path + ".")) continue;
    if (!v.is_object()) {
      return util::InvalidArgumentError(path + " must be an object");
    }
    for (const auto& [sub, sv] : v.members()) {
      IMDPP_RETURN_IF_ERROR(
          ApplyMember(rows, path + ".", sub, sv, path, knobs));
    }
    return util::OkStatus();
  }
  return util::InvalidArgumentError("unknown " + section + " key \"" + key +
                                    "\"");
}

/// Reads every entry of a sweep axis with the range of the knob it sweeps.
template <typename T>
util::Status ReadAxis(const util::Json& array, const Knob& row,
                      const std::string& where, std::vector<T>* out) {
  for (const util::Json& entry : array.elements()) {
    T value{};
    IMDPP_RETURN_IF_ERROR(Read(row, entry, where, &value));
    out->push_back(value);
  }
  return util::OkStatus();
}

}  // namespace

util::Status LoadJsonFile(const std::string& path, util::Json* out) {
  // The config.parse fault point (ISSUE 8): fires before the file is
  // touched, so an armed fault surfaces exactly like a bad config would.
  IMDPP_RETURN_IF_ERROR(util::FaultInjector::Global().Hit("config.parse"));
  std::ifstream in(path);
  if (!in) {
    return util::NotFoundError("cannot open \"" + path + "\"");
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  if (!util::Json::Parse(text.str(), out, &parse_error)) {
    return util::InvalidArgumentError(path + ":" + parse_error);
  }
  return util::OkStatus();
}

util::Status ApplyPlannerConfigJson(const util::Json& obj,
                                    api::PlannerConfig* cfg) {
  if (obj.is_null()) return util::OkStatus();  // no overrides
  if (!obj.is_object()) {
    return util::InvalidArgumentError("planner config must be a JSON object");
  }
  Knobs knobs;
  knobs.config = *cfg;  // *cfg stays untouched on an error
  for (const auto& [key, v] : obj.members()) {
    IMDPP_RETURN_IF_ERROR(
        ApplyMember(kPlannerKnobs, "", key, v, "planner config", &knobs));
  }
  *cfg = std::move(knobs.config);
  return util::OkStatus();
}

namespace {

util::Status ParsePlannerAxes(const util::Json& array,
                              std::vector<SweepSpec::PlannerAxis>* out) {
  for (const util::Json& entry : array.elements()) {
    SweepSpec::PlannerAxis axis;
    if (entry.is_string()) {
      axis.name = entry.AsString();
    } else if (entry.is_object()) {
      const util::Json* name = entry.Find("planner");
      if (name == nullptr || !name->is_string()) {
        return util::InvalidArgumentError(
            "planner entry needs a string \"planner\"");
      }
      axis.name = name->AsString();
      if (const util::Json* o = entry.Find("config")) axis.overrides = *o;
    } else {
      return util::InvalidArgumentError(
          "planner entry must be a string or an object");
    }
    out->push_back(std::move(axis));
  }
  return util::OkStatus();
}

/// A dataset entry; a non-null `planners` also accepts the per-dataset
/// "planners" array of a sweep config.
util::Status ReadDatasetEntry(const util::Json& value, data::DatasetSpec* spec,
                              util::Json* config_overrides,
                              std::vector<SweepSpec::PlannerAxis>* planners) {
  *config_overrides = util::Json();
  if (value.is_string()) {
    *spec = data::ParseDatasetSpec(value.AsString());
    return util::OkStatus();
  }
  if (!value.is_object()) {
    return util::InvalidArgumentError(
        "dataset entry must be a string or an object");
  }
  const util::Json* name = value.Find("name");
  if (name == nullptr || !name->is_string()) {
    return util::InvalidArgumentError("dataset entry needs a string \"name\"");
  }
  Knobs knobs;
  knobs.dataset = data::ParseDatasetSpec(name->AsString());
  for (const auto& [key, v] : value.members()) {
    if (key == "name") continue;
    if (key == "config") {
      *config_overrides = v;
    } else if (key == "planners" && planners != nullptr) {
      IMDPP_RETURN_IF_ERROR(ParsePlannerAxes(v, planners));
    } else {
      IMDPP_RETURN_IF_ERROR(ApplyMember(kCoordinateKnobs, "dataset.", key, v,
                                        "dataset entry", &knobs));
    }
  }
  *spec = knobs.dataset;
  return util::OkStatus();
}

}  // namespace

util::Status DatasetSpecFromJson(const util::Json& value,
                                 data::DatasetSpec* spec,
                                 util::Json* config_overrides) {
  return ReadDatasetEntry(value, spec, config_overrides, nullptr);
}

util::Status ApplyKnobFlags(const ParsedArgs& args, Knobs* knobs) {
  for (const Knob& row : kKnobs) {
    if (row.flag == nullptr) continue;
    if (const std::string* text = args.Find(row.flag)) {
      IMDPP_RETURN_IF_ERROR(ApplyFlag(row, *text, knobs));
    }
  }
  return util::OkStatus();
}

util::Status CheckFlagsDeclared(const ParsedArgs& args,
                                std::span<const std::string_view>
                                    command_flags) {
  for (const auto& [name, value] : args.flags) {
    bool declared = std::find(command_flags.begin(), command_flags.end(),
                              name) != command_flags.end();
    for (const Knob& row : kKnobs) {
      declared = declared || (row.flag != nullptr && name == row.flag);
    }
    if (!declared) {
      return util::InvalidArgumentError("unknown flag \"--" + name +
                                        "\" (see `imdpp help`)");
    }
  }
  return util::OkStatus();
}

std::vector<KnobInfo> DescribeKnobs() {
  std::vector<KnobInfo> out;
  for (const Knob& row : kKnobs) {
    KnobInfo info{row.path, row.flag ? std::string("--") + row.flag : "", "",
                  row.range.Text(), row.help};
    std::visit(
        [&](auto field) {
          using T = FieldType<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            info.kind = "bool";
            info.range = "";
          } else if constexpr (std::is_same_v<T, uint64_t>) {
            info.kind = "seed";
            info.range = "[0, 2^64)";
          } else if constexpr (std::is_same_v<T, std::string>) {
            info.kind = "backend";
            info.range = row.choices ? "registered or \"\"" : "registered";
          } else if constexpr (std::is_enum_v<T>) {
            info.kind = "choice";
            info.range = row.choices;
          } else {
            info.kind = std::is_same_v<T, double> ? "double" : "int";
          }
        },
        row.field);
    out.push_back(std::move(info));
  }
  return out;
}

// -------------------------------------------------------------- sweeps

util::Status LoadSweepSpec(const util::Json& obj, SweepSpec* spec) {
  if (!obj.is_object()) {
    return util::InvalidArgumentError("sweep config must be a JSON object");
  }
  *spec = SweepSpec{};
  for (const auto& [key, v] : obj.members()) {
    if (key == "name") {
      if (!v.is_string()) {
        return util::InvalidArgumentError("name must be a string");
      }
      spec->name = v.AsString();
    } else if (key == "datasets") {
      for (const util::Json& entry : v.elements()) {
        SweepSpec::DatasetAxis axis;
        IMDPP_RETURN_IF_ERROR(ReadDatasetEntry(entry, &axis.spec,
                                               &axis.overrides,
                                               &axis.planners));
        spec->datasets.push_back(std::move(axis));
      }
    } else if (key == "planners") {
      IMDPP_RETURN_IF_ERROR(ParsePlannerAxes(v, &spec->planners));
    } else if (key == "budgets") {
      IMDPP_RETURN_IF_ERROR(
          ReadAxis(v, kBudgetKnob, kBudgetKnob.path, &spec->budgets));
    } else if (key == "promotions") {
      IMDPP_RETURN_IF_ERROR(ReadAxis(v, kPromotionsKnob, kPromotionsKnob.path,
                                     &spec->promotions));
    } else if (key == "thetas") {
      IMDPP_RETURN_IF_ERROR(ReadAxis(v, kThetaKnob, "thetas[]", &spec->thetas));
    } else if (key == "threads") {
      IMDPP_RETURN_IF_ERROR(
          ReadAxis(v, kThreadsKnob, "threads[]", &spec->num_threads));
    } else if (key == "backends") {
      IMDPP_RETURN_IF_ERROR(
          ReadAxis(v, kBackendKnob, "backends[]", &spec->backends));
    } else if (key == "config") {
      IMDPP_RETURN_IF_ERROR(ApplyPlannerConfigJson(v, &spec->base));
    } else {
      return util::InvalidArgumentError("unknown sweep config key \"" + key +
                                        "\"");
    }
  }
  if (spec->datasets.empty()) {
    return util::InvalidArgumentError(
        "sweep config needs a non-empty \"datasets\" array");
  }
  if (spec->planners.empty()) {
    return util::InvalidArgumentError(
        "sweep config needs a non-empty \"planners\" array");
  }
  if (spec->budgets.empty()) {
    return util::InvalidArgumentError(
        "sweep config needs a non-empty \"budgets\" array");
  }
  if (spec->promotions.empty()) {
    return util::InvalidArgumentError(
        "sweep config needs a non-empty \"promotions\" array");
  }
  return util::OkStatus();
}

util::Status ExpandSweep(const SweepSpec& spec,
                         std::vector<SweepPoint>* points) {
  points->clear();
  for (const SweepSpec::DatasetAxis& ds : spec.datasets) {
    api::PlannerConfig dataset_config = spec.base;
    IMDPP_RETURN_IF_ERROR(ApplyPlannerConfigJson(ds.overrides,
                                                 &dataset_config));
    for (int T : spec.promotions) {
      for (double b : spec.budgets) {
        // Singleton sentinel axes: one point at the config's own value.
        const std::vector<int> thetas =
            spec.thetas.empty() ? std::vector<int>{-1} : spec.thetas;
        const std::vector<int> threads =
            spec.num_threads.empty()
                ? std::vector<int>{dataset_config.num_threads}
                : spec.num_threads;
        // Empty sentinel = keep each point's own eval.backend (which
        // dataset/planner overrides may still set).
        const std::vector<std::string> backends =
            spec.backends.empty() ? std::vector<std::string>{std::string()}
                                  : spec.backends;
        const std::vector<SweepSpec::PlannerAxis>& planners =
            ds.planners.empty() ? spec.planners : ds.planners;
        for (int theta : thetas) {
          for (int nt : threads) {
            for (const std::string& backend : backends) {
              for (const SweepSpec::PlannerAxis& pl : planners) {
                SweepPoint point;
                point.dataset = ds.spec;
                point.planner = pl.name;
                point.budget = b;
                point.num_promotions = T;
                point.theta = theta;
                point.num_threads = nt;
                point.config = dataset_config;
                IMDPP_RETURN_IF_ERROR(
                    ApplyPlannerConfigJson(pl.overrides, &point.config));
                if (theta >= 0) point.config.market.overlap_theta = theta;
                point.config.num_threads = nt;
                if (!backend.empty()) point.config.eval.backend = backend;
                point.backend = point.config.eval.backend;
                point.adaptive = point.config.eval.adaptive.enabled;
                points->push_back(std::move(point));
              }
            }
          }
        }
      }
    }
  }
  return util::OkStatus();
}

// ------------------------------------------------------------ flag files

namespace {

constexpr int kMaxFlagfileDepth = 8;

util::Status ExpandTokens(const std::vector<std::string>& args, int depth,
                          std::vector<std::string>* out) {
  if (depth > kMaxFlagfileDepth) {
    return util::InvalidArgumentError("flag files nested deeper than " +
                                      std::to_string(kMaxFlagfileDepth) +
                                      " levels");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    std::string path;
    if (arg == "--flagfile") {
      if (i + 1 >= args.size()) {
        return util::InvalidArgumentError("--flagfile needs a file argument");
      }
      path = args[++i];
    } else if (arg.substr(0, 11) == "--flagfile=") {
      path = std::string(arg.substr(11));
    } else {
      out->push_back(args[i]);
      continue;
    }
    std::ifstream in(path);
    if (!in) {
      return util::InvalidArgumentError("cannot open flag file \"" + path +
                                        "\"");
    }
    std::vector<std::string> file_tokens;
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream words(line);
      std::string token;
      while (words >> token) file_tokens.push_back(token);
    }
    IMDPP_RETURN_IF_ERROR(ExpandTokens(file_tokens, depth + 1, out));
  }
  return util::OkStatus();
}

}  // namespace

const std::string* ParsedArgs::Find(std::string_view key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : flags) {
    if (k == key) found = &v;  // last occurrence wins
  }
  return found;
}

std::string ParsedArgs::GetOr(std::string_view key,
                              std::string_view fallback) const {
  const std::string* v = Find(key);
  return v != nullptr ? *v : std::string(fallback);
}

util::Status ParseArgs(const std::vector<std::string>& args, ParsedArgs* out) {
  *out = ParsedArgs{};
  std::vector<std::string> tokens;
  IMDPP_RETURN_IF_ERROR(ExpandTokens(args, 0, &tokens));
  // One spelling per flag, so an underscore alias and its hyphen form
  // share a slot and the later one wins.
  const auto add_flag = [out](std::string_view name, std::string value) {
    std::string key(name);
    std::replace(key.begin(), key.end(), '_', '-');
    out->flags.emplace_back(std::move(key), std::move(value));
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string_view token = tokens[i];
    if (token.substr(0, 2) != "--") {
      if (out->command.empty()) {
        out->command = tokens[i];
      } else {
        out->positional.push_back(tokens[i]);
      }
      continue;
    }
    std::string_view body = token.substr(2);
    if (body.empty()) return util::InvalidArgumentError("stray \"--\" argument");
    const size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      add_flag(body.substr(0, eq), std::string(body.substr(eq + 1)));
      continue;
    }
    // "--key value" unless the next token is itself a flag → bare switch.
    if (i + 1 < tokens.size() && tokens[i + 1].substr(0, 2) != "--") {
      add_flag(body, tokens[i + 1]);
      ++i;
    } else {
      add_flag(body, "true");
    }
  }
  return util::OkStatus();
}

}  // namespace imdpp::config
