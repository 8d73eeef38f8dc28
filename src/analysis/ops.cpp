#include "analysis/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <thread>

#include "analysis/profile_io.hpp"
#include "store/hash.hpp"

namespace dp::analysis::ops {

using obs::JsonValue;

namespace {

constexpr unsigned kSa = mask(Model::Sa);
constexpr unsigned kHybrid = mask(Model::Hybrid);
constexpr unsigned kBf = mask(Model::BfAnd) | mask(Model::BfOr);
constexpr fault::SamplingOptions kSampling{};
constexpr HybridOptions kPrefilter{};

constexpr Row kModel{"model", Kind::Text};
constexpr Row kJobs{"jobs", Kind::Count, 1, kAnyModel, kHardwareThreads};
constexpr Row kCollapse{"collapse", Kind::Bool, 1};
constexpr Row kNDetect{"ndetect", Kind::Count, 0};

// The rows marked request_only are served keys that dpcli sa/bf do not
// take as flags.
constexpr Row kAnalyzeRows[] = {
    kModel,
    kJobs,
    {"collapse", Kind::Bool, 1, kSa | kHybrid},
    {.key = "persist", .kind = Kind::Bool, .fallback = 1, .models = kSa | kBf,
     .request_only = true},
    {"bridge_count", Kind::Count, double(kSampling.target_count), kBf},
    {.key = "bridge_theta", .kind = Kind::Number, .fallback = kSampling.theta,
     .models = kBf, .positive = true, .request_only = true},
    {.key = "bridge_seed", .kind = Kind::Count,
     .fallback = double(kSampling.seed), .models = kBf, .request_only = true},
    {"prefilter_patterns", Kind::Count, double(kPrefilter.prefilter_patterns),
     kHybrid},
    {.key = "prefilter_seed", .kind = Kind::Count,
     .fallback = double(kPrefilter.prefilter_seed), .models = kHybrid,
     .request_only = true},
};
constexpr Row kNDetectRows[] = {
    {"n", Kind::Count, 1},
    kJobs,
    {"topup", Kind::Bool, 1},
    kCollapse,
};
constexpr Row kGradeRows[] = {
    {"patterns", Kind::Count, 1024},
    {"seed", Kind::Count, double(kPrefilter.prefilter_seed)},
    kCollapse,
    {"drop_detected", Kind::Bool, 1},
};
constexpr Row kSleepRows[] = {{"ms", Kind::Count, 10, kAnyModel, 10'000}};
constexpr Row kReportRows[] = {
    kModel,
    kJobs,
    {"prefilter_patterns", Kind::Count, double(kPrefilter.prefilter_patterns),
     kHybrid},
    kNDetect,
    {"ndetect_patterns", Kind::Count, 256},
};
constexpr Row kAtpgRows[] = {
    kModel,
    kJobs,
    {"prefilter_patterns", Kind::Count, 1024, kHybrid},
    kNDetect,
    {"ndetect_json", Kind::Text},
};

// Indexed by Op.
constexpr Schema kSchemas[] = {
    {"analyze", kAnalyzeRows, kAnyModel},
    {"ndetect", kNDetectRows, 0},
    {"grade", kGradeRows, 0},
    {"sleep", kSleepRows, 0},
    {"testability_report", kReportRows, kSa | kHybrid},
    {"atpg_tool", kAtpgRows, kSa | kHybrid},
};

constexpr Model kModels[] = {Model::Sa, Model::Hybrid, Model::BfAnd,
                             Model::BfOr};

const Row* find_row(const Schema& s, std::string_view key) {
  for (const Row& r : s.rows) {
    if (key == r.key) return &r;
  }
  return nullptr;
}

/// "sa, hybrid or bf.and" for a model mask.
std::string model_list(unsigned models, const char* last = " or ") {
  std::string out;
  for (Model m : kModels) {
    if (!(models & mask(m))) continue;
    models &= ~mask(m);
    out += model_name(m);
    if (models != 0) out += std::popcount(models) == 1 ? last : ", ";
  }
  return out;
}

/// "--bridge-count" for "bridge_count". A Bool row is spelled as the flag
/// that flips its default: "--no-collapse", "--quiet".
std::string flag_of(const Row& r) {
  std::string flag = r.kind == Kind::Bool && r.fallback != 0 ? "--no-" : "--";
  for (const char* c = r.key; *c != '\0'; ++c) flag += *c == '_' ? '-' : *c;
  return flag;
}

/// The "model" row of a schema with models; elsewhere "model" is text.
bool is_model(const Schema& s, const Row& r) {
  return s.models != 0 && std::string_view(r.key) == "model";
}

JsonValue default_of(const Schema& s, const Row& r, Model model) {
  switch (r.kind) {
    case Kind::Bool:
      return r.fallback != 0;
    case Kind::Count:
      return static_cast<std::uint64_t>(r.fallback);
    case Kind::Number:
      return r.fallback;
    case Kind::Text:
      break;
  }
  return is_model(s, r) ? model_name(model) : r.text;
}

}  // namespace

const char* model_name(Model m) {
  static constexpr const char* kNames[] = {"sa", "hybrid", "bf.and", "bf.or"};
  return kNames[static_cast<std::size_t>(m)];
}

const Schema& schema(Op op) { return kSchemas[static_cast<std::size_t>(op)]; }

std::uint64_t hardware_threads() {
  return std::max<std::uint64_t>(1, std::thread::hardware_concurrency());
}

Options validate(const Schema& s, const JsonValue& options, unsigned models) {
  if (!options.is_null() && !options.is_object()) {
    throw OptionError("options", "'options' must be an object");
  }
  static const JsonValue kEmpty = JsonValue::object();
  const JsonValue& given = options.is_null() ? kEmpty : options;
  Options out;
  out.given_ = JsonValue::object();

  // The model decides which other rows apply, so it is read first.
  const unsigned allowed = s.models & models;
  if (s.models != 0) {
    out.model_ = kModels[std::countr_zero(allowed)];
    if (const JsonValue* m = given.find("model")) {
      const auto it = std::find_if(
          std::begin(kModels), std::end(kModels), [&](Model candidate) {
            return (allowed & mask(candidate)) && m->is_string() &&
                   m->as_string() == model_name(candidate);
          });
      if (it == std::end(kModels)) {
        throw OptionError("model",
                          "option 'model' must be " + model_list(allowed));
      }
      out.model_ = *it;
    }
  }
  out.values_ = JsonValue::object();
  for (const Row& r : s.rows) {
    out.values_[r.key] = default_of(s, r, out.model_);
  }

  for (const auto& [key, value] : given.members()) {
    const Row* row = find_row(s, key);
    if (!row) {
      throw OptionError(key, "unknown option '" + key + "' for " + s.name);
    }
    out.given_[key] = true;
    if (is_model(s, *row)) continue;  // read above
    if (!(row->models & mask(out.model_))) {
      throw OptionError(key, "option '" + key + "' does not apply to model " +
                                 model_name(out.model_) + " (only " +
                                 model_list(row->models) + ")");
    }
    const auto reject = [&](const char* what) {
      throw OptionError(key, "option '" + key + "' " + what);
    };
    JsonValue& v = out.values_[key];
    switch (row->kind) {
      case Kind::Bool:
        if (value.kind() != JsonValue::Kind::Bool) reject("must be a boolean");
        v = value;
        break;
      case Kind::Count: {
        // Only an integer literal qualifies: 2.5 must not truncate to 2,
        // and a value the parser kept as a double (1e300, or beyond 2^63)
        // never reaches the float-to-int cast in as_int().
        if (value.kind() != JsonValue::Kind::Int || value.as_int() < 0) {
          reject("must be a non-negative integer");
        }
        const std::uint64_t cap =
            row->cap == kHardwareThreads ? hardware_threads() : row->cap;
        const auto u = static_cast<std::uint64_t>(value.as_int());
        v = cap != 0 ? std::min(u, cap) : u;
        break;
      }
      case Kind::Number:
        if (!value.is_number() || !std::isfinite(value.as_double())) {
          reject("must be a number");
        }
        if (row->positive && !(value.as_double() > 0.0)) reject("must be > 0");
        v = value.as_double();
        break;
      case Kind::Text:
        if (!value.is_string()) reject("must be a string");
        v = value;
        break;
    }
  }
  return out;
}

JsonValue argv_options(const Schema* s, const std::vector<std::string>& args,
                       std::vector<std::string>* positionals) {
  // Spellings retired in favour of a row: still rejected, but the message
  // names the replacement.
  static constexpr const char* kRenamed[][3] = {
      {"--full", "collapse", "--no-collapse"},
      {"--count", "bridge_count", "--bridge-count N"},
      {"--hybrid", "model", "--model hybrid"},
  };
  const std::span<const Row> rows = s ? s->rows : std::span<const Row>{};
  JsonValue out = JsonValue::object();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.empty() || a[0] != '-') {
      positionals->push_back(a);
      continue;
    }
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return !r.request_only && a == flag_of(r);
    });
    if (row == rows.end()) {
      std::string message = "unexpected argument '" + a + "'";
      for (const auto& [flag, key, now] : kRenamed) {
        if (s && s->models != 0 && a == flag && find_row(*s, key)) {
          message += std::string(" (now spelled ") + now + ")";
        }
      }
      throw OptionError(a, message);
    }
    if (row->kind == Kind::Bool) {
      out[row->key] = row->fallback == 0;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw OptionError(row->key, a + " requires a value");
    }
    const std::string& text = args[++i];
    out[row->key] = text;
    if (row->kind == Kind::Text) continue;
    try {
      JsonValue number = JsonValue::parse(text);
      if (number.is_number()) out[row->key] = std::move(number);
    } catch (const obs::JsonError&) {
      // Not a number: validate() rejects the string by kind.
    }
  }
  return out;
}

std::string usage(const Schema& s, unsigned models) {
  const unsigned allowed = (s.models != 0 ? s.models : kAnyModel) & models;
  std::string out;
  for (const Row& r : s.rows) {
    if (r.request_only || !(r.models & allowed)) continue;
    std::string flag = flag_of(r);
    std::string note = "default " + default_of(s, r, Model::Sa).dump(0);
    if (r.kind == Kind::Bool) {
      note.clear();
    } else if (is_model(s, r)) {
      if (std::popcount(allowed) < 2) continue;  // fixed by the command
      flag += " M";
      note = model_list(allowed, " | ") + ", default " +
             model_name(kModels[std::countr_zero(allowed)]);
    } else if (r.kind == Kind::Text) {
      flag += " TEXT";
      if (*r.text == '\0') note = "optional";
    } else {
      flag += r.kind == Kind::Count ? " N" : " X";
      if (r.unset) note = "optional";
      if (r.cap == kHardwareThreads) note += ", 0 = all cores";
      if (r.positive) note += ", must be > 0";
    }
    if ((r.models & allowed) != allowed) {
      note += std::string(note.empty() ? "" : " ") + "[" +
              model_list(r.models & allowed, ", ") + " only]";
    }
    if (!note.empty()) {
      flag.resize(std::max<std::size_t>(flag.size() + 1, 26), ' ');
    }
    out += "    " + flag + note + "\n";
  }
  return out;
}

AnalyzeRequest::AnalyzeRequest(const Options& o)
    : model(o.model()), persist(o.flag("persist")) {
  analysis.collapse = o.flag("collapse");
  analysis.jobs = static_cast<std::size_t>(o.count("jobs"));
  analysis.sampling.target_count =
      static_cast<std::size_t>(o.count("bridge_count"));
  analysis.sampling.theta = o.number("bridge_theta");
  analysis.sampling.seed = o.count("bridge_seed");
  hybrid.prefilter_patterns =
      static_cast<std::size_t>(o.count("prefilter_patterns"));
  hybrid.prefilter_seed = o.count("prefilter_seed");
}

std::string AnalyzeRequest::cache_key(const netlist::Circuit& circuit) const {
  if (model != Model::Hybrid) {
    return profile_cache_key(circuit, model_name(model), analysis);
  }
  return store::KeyBuilder()
      .str(profile_cache_key(circuit, "sa", analysis))
      .str("hybrid")
      .u64(hybrid.prefilter_patterns)
      .u64(hybrid.prefilter_seed)
      .flag(hybrid.drop_detected)
      .hex();
}

}  // namespace dp::analysis::ops
