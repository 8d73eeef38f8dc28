// One option schema for every front end of the analyses.
//
// Each operation -- a served request type or an analysis CLI -- declares
// its options once, as rows of a table (ops.cpp): key, kind, default,
// range and the fault models the row applies to. validate() checks a JSON
// options object against those rows; argv_options() turns CLI flags into
// the same object first, so a served typo and a CLI typo are caught by
// one piece of code:
//
//   --some-key V   ->  "some_key": V
//   --no-key       ->  "key": false   (boolean row that defaults on)
//   --key          ->  "key": true    (boolean row that defaults off)
//
// A tool with flags of its own (dpserved, dpload, dpfuzz) declares its
// rows beside its main() and goes through the same three functions.
//
// Every mistake -- an unknown key, a key that does not apply to the
// request's model, a wrong JSON kind, a value out of range -- throws
// OptionError naming the key. dpserved answers it with bad_request, the
// CLIs exit 2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/profiles.hpp"
#include "obs/json.hpp"

namespace dp::analysis::ops {

/// A client mistake in an options object or on a command line.
class OptionError : public std::runtime_error {
 public:
  OptionError(std::string key, const std::string& message)
      : std::runtime_error(message), key_(std::move(key)) {}
  /// The offending key ("options" when the object itself is malformed).
  const std::string& key() const { return key_; }

 private:
  std::string key_;
};

/// The fault models of the analyze operation; rows carry a mask of the
/// models they apply to.
enum class Model : std::uint8_t { Sa, Hybrid, BfAnd, BfOr };
constexpr unsigned mask(Model m) { return 1u << static_cast<unsigned>(m); }
inline constexpr unsigned kAnyModel = 0xf;
/// "sa", "hybrid", "bf.and", "bf.or" -- the served spelling.
const char* model_name(Model m);

enum class Op : std::uint8_t {
  Analyze,  ///< served analyze; dpcli sa and bf
  NDetect,  ///< served ndetect
  Grade,    ///< served grade
  Sleep,    ///< served sleep
  Report,   ///< testability_report
  Atpg,     ///< atpg_tool
};

enum class Kind : std::uint8_t {
  Bool,    ///< true / false
  Count,   ///< an integer literal >= 0; 2.5, 1e300 and 2^64 are rejected
  Number,  ///< any finite number
  Text,    ///< a string ("model": one of the allowed model names)
};

/// std::thread::hardware_concurrency(), at least 1.
std::uint64_t hardware_threads();
/// A Count cap that stands for hardware_threads(): the cap of every "jobs"
/// row. Each job is a thread plus a BDD manager and results are identical
/// for any count, so more only costs memory.
inline constexpr std::uint64_t kHardwareThreads = ~std::uint64_t{0};

struct Row {
  const char* key;
  Kind kind;
  double fallback = 0;  ///< the default: Bool 0/1, numbers exact (< 2^53)
  unsigned models = kAnyModel;  ///< the models the row applies to
  std::uint64_t cap = 0;  ///< Count: clamp (not reject) above; 0 = none
  bool positive = false;  ///< Number: must be > 0
  const char* text = "";  ///< Text: the default
  bool request_only = false;  ///< served requests only, no command-line flag
  bool unset = false;  ///< Count: absent means "not set" (read given())
};

struct Schema {
  const char* name;
  std::span<const Row> rows;
  unsigned models = 0;  ///< the models "model" may name; 0 = no "model" key
};

/// The rows of a built-in operation.
const Schema& schema(Op op);

/// A validated options object: every value has its row's kind and range
/// and applies to model(). Absent keys read as their row's default.
class Options {
 public:
  Model model() const { return model_; }
  bool flag(std::string_view key) const { return values_.at(key).as_bool(); }
  std::uint64_t count(std::string_view key) const {
    return static_cast<std::uint64_t>(values_.at(key).as_int());
  }
  double number(std::string_view key) const {
    return values_.at(key).as_double();
  }
  const std::string& text(std::string_view key) const {
    return values_.at(key).as_string();
  }
  /// Whether the request or command line set the key.
  bool given(std::string_view key) const { return given_.contains(key); }

 private:
  friend Options validate(const Schema&, const obs::JsonValue&, unsigned);
  Model model_ = Model::Sa;
  obs::JsonValue values_;  ///< every row's key, defaults filled in
  obs::JsonValue given_;   ///< the keys the caller set
};

/// Checks `options` (null = all defaults, else an object) against the
/// rows. `models` narrows what a "model" key may name -- a CLI subcommand
/// passes the models it runs; absent, the model is the first one allowed.
Options validate(const Schema& schema, const obs::JsonValue& options,
                 unsigned models = kAnyModel);
inline Options validate(Op op, const obs::JsonValue& options,
                        unsigned models = kAnyModel) {
  return validate(schema(op), options, models);
}

/// Splits CLI tokens into positionals and an options object for the
/// schema (nullptr: the command has no rows, so every flag is rejected).
/// A value that reads as a JSON number is stored as one, anything else as
/// a string, so validate() judges `--jobs 2.5` exactly like "jobs": 2.5.
/// Throws OptionError for a flag that names no row ("unexpected argument
/// '<flag>'") and for a missing value.
obs::JsonValue argv_options(const Schema* schema,
                            const std::vector<std::string>& args,
                            std::vector<std::string>* positionals);

/// One usage line per flag of the schema that applies to a model in
/// `models`.
std::string usage(const Schema& schema, unsigned models = kAnyModel);

/// The analyze operation, typed: the one mapping from validated options
/// to engine options. Keys that do not apply to the model keep their
/// defaults, so a default request keeps its cache key.
struct AnalyzeRequest {
  explicit AnalyzeRequest(const Options& options);

  Model model;
  bool persist;  ///< the front end attaches its artifact store only if set
  AnalysisOptions analysis;
  HybridOptions hybrid;

  /// The key the served profile cache and the artifact store share. For
  /// sa/bf it is profile_cache_key(); hybrid extends the sa key with the
  /// prefilter policy. jobs stays out: results are worker-count invariant.
  std::string cache_key(const netlist::Circuit& circuit) const;
};

}  // namespace dp::analysis::ops
