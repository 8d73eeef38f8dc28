#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/ops.hpp"
#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"

namespace dp::serve {

namespace ops = analysis::ops;
using obs::JsonValue;

namespace {

/// Thrown for anything the client got wrong; handle() maps it to a
/// bad_request response (engine exceptions stay "internal").
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The request "id" takes the options' Int-kind check: 2.5 must not be
/// answered as id 2, nor 1e300 reach a float-to-int cast.
long long request_id(const JsonValue& request) {
  const JsonValue* id = request.find("id");
  if (!id) return 0;
  if (id->kind() != JsonValue::Kind::Int) {
    throw BadRequest("'id' must be an integer");
  }
  return id->as_int();
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || !v->is_string()) {
    throw BadRequest(std::string("missing string field '") + key + "'");
  }
  return v->as_string();
}

/// The request's options, checked against the op's rows (ops.hpp).
ops::Options options_of(ops::Op op, const JsonValue& request) {
  static const JsonValue kNull;
  const JsonValue* v = request.find("options");
  return ops::validate(op, v ? *v : kNull);
}

/// The optional ndetect "vectors" field: an array of '0'/'1' bit-strings,
/// each exactly the circuit's input count long, character i = PI i.
std::vector<std::vector<bool>> parse_bit_vectors(const JsonValue& request,
                                                 std::size_t num_inputs) {
  std::vector<std::vector<bool>> out;
  const JsonValue* v = request.find("vectors");
  if (!v) return out;
  if (!v->is_array()) {
    throw BadRequest("'vectors' must be an array of bit-strings");
  }
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    const JsonValue& e = v->at(i);
    if (!e.is_string()) {
      throw BadRequest("'vectors' must be an array of bit-strings");
    }
    const std::string& s = e.as_string();
    if (s.size() != num_inputs) {
      throw BadRequest("vector " + std::to_string(i) + " has length " +
                       std::to_string(s.size()) + ", expected " +
                       std::to_string(num_inputs) +
                       " (one character per primary input)");
    }
    std::vector<bool> bits(num_inputs);
    for (std::size_t c = 0; c < s.size(); ++c) {
      if (s[c] != '0' && s[c] != '1') {
        throw BadRequest("vector " + std::to_string(i) +
                         " must contain only '0' and '1'");
      }
      bits[c] = s[c] == '1';
    }
    out.push_back(std::move(bits));
  }
  return out;
}

std::string bit_string_of(const std::vector<bool>& v) {
  std::string s(v.size(), '0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i]) s[i] = '1';
  }
  return s;
}

}  // namespace

/// One cached analyze response: the serialized profile document plus the
/// circuit name (evict-by-circuit) and its key (unlink on LRU eviction).
struct Service::CacheEntry {
  std::string key;
  std::string circuit;
  JsonValue payload;
};

Service::Service(const ServiceOptions& options, obs::MetricsRegistry* metrics)
    : options_(options), metrics_(metrics) {
  if (!options_.cache_dir.empty()) {
    store_ = std::make_unique<store::ArtifactStore>(
        options_.cache_dir, store::ArtifactStore::Options{}, metrics_);
  }
}

Service::~Service() = default;

std::size_t Service::profile_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

std::size_t Service::resident_forest_count() const {
  std::lock_guard<std::mutex> lock(forests_mutex_);
  return forests_.size();
}

bool Service::cache_lookup(const std::string& key, JsonValue* out) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    if (metrics_) metrics_->counter("serve.profile_cache.misses").add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (metrics_) metrics_->counter("serve.profile_cache.hits").add();
  *out = it->second->payload;  // copy out under the lock
  return true;
}

void Service::cache_insert(const std::string& key, const std::string& circuit,
                           JsonValue payload) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent request computed the same profile; results are
    // deterministic, so either copy is THE result. Keep the incumbent.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{key, circuit, std::move(payload)});
  cache_[key] = lru_.begin();
  while (cache_.size() > options_.profile_cache_entries && !lru_.empty()) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
    if (metrics_) metrics_->counter("serve.profile_cache.evictions").add();
  }
}

std::shared_ptr<const netlist::Circuit> Service::circuit_for(
    const JsonValue& request, std::string* key_out) {
  const JsonValue* bench = request.find("bench");
  std::string key;
  if (bench) {
    if (!bench->is_string()) throw BadRequest("'bench' must be a string");
    // Inline netlists are keyed by text hash, so re-sending the same
    // .bench body hits the resident parse.
    key = "bench:" + store::KeyBuilder().str(bench->as_string()).hex();
  } else {
    key = "name:" + require_string(request, "circuit");
  }
  if (key_out) *key_out = key;
  {
    std::lock_guard<std::mutex> lock(circuits_mutex_);
    auto it = circuits_.find(key);
    if (it != circuits_.end()) return it->second;
  }
  // Parse outside the lock; a duplicate racing parse is wasted work but
  // harmless (first insert wins below).
  std::shared_ptr<const netlist::Circuit> circuit;
  try {
    if (bench) {
      circuit = std::make_shared<netlist::Circuit>(
          netlist::read_bench_string(bench->as_string(), "inline"));
    } else {
      const std::string name = require_string(request, "circuit");
      for (const std::string& known : netlist::benchmark_names()) {
        if (known == name) {
          circuit = std::make_shared<netlist::Circuit>(
              netlist::make_benchmark(name));
          break;
        }
      }
      if (!circuit) {
        throw BadRequest("unknown circuit '" + name +
                         "' (send a built-in benchmark name, or the "
                         "netlist text in 'bench')");
      }
    }
  } catch (const netlist::NetlistError& e) {
    throw BadRequest(std::string("netlist: ") + e.what());
  }
  std::lock_guard<std::mutex> lock(circuits_mutex_);
  auto [it, inserted] = circuits_.emplace(key, std::move(circuit));
  return it->second;
}

std::shared_ptr<const core::SharedGoodFunctions> Service::forest_for(
    const std::string& key, const netlist::Circuit& circuit) {
  // The build runs under the map lock: the second of two racing requests
  // for a cold circuit blocks until the first finishes freezing, then
  // adopts that forest instead of building a duplicate universe. Requests
  // for already-resident circuits only pay the lookup.
  std::lock_guard<std::mutex> lock(forests_mutex_);
  auto it = forests_.find(key);
  if (it != forests_.end()) {
    if (metrics_) metrics_->counter("serve.forest.reuses").add();
    return it->second.forest;
  }
  // Defaults mirror what handle_analyze's AnalysisOptions would make the
  // engine build itself: default GoodFunctionOptions and node budget
  // (neither is client-settable), so adoption preserves bit-identity.
  auto forest = std::make_shared<const core::SharedGoodFunctions>(circuit);
  forests_.emplace(key, ForestEntry{circuit.name(), forest});
  if (metrics_) metrics_->counter("serve.forest.builds").add();
  return forest;
}

JsonValue Service::handle(const JsonValue& request) noexcept {
  long long id = 0;
  try {
    if (!request.is_object()) throw BadRequest("request must be an object");
    id = request_id(request);
    const std::string type = require_string(request, "type");
    obs::ScopedSpan span(obs::SpanCollector::current(), "serve." + type);
    if (type == "analyze") return handle_analyze(id, request);
    if (type == "ndetect") return handle_ndetect(id, request);
    if (type == "grade") return handle_grade(id, request);
    if (type == "hash") return handle_hash(id, request);
    if (type == "evict") return handle_evict(id, request);
    if (type == "metrics") return handle_metrics(id);
    if (type == "sleep") return handle_sleep(id, request);
    if (type == "ping") return make_ok_response(id, "ping");
    throw BadRequest("unknown request type '" + type + "'");
  } catch (const BadRequest& e) {
    if (metrics_) metrics_->counter("serve.errors.bad_request").add();
    return make_error_response(id, ErrorCode::BadRequest, e.what());
  } catch (const ops::OptionError& e) {
    if (metrics_) metrics_->counter("serve.errors.bad_request").add();
    return make_error_response(id, ErrorCode::BadRequest, e.what());
  } catch (const std::exception& e) {
    if (metrics_) metrics_->counter("serve.errors.internal").add();
    return make_error_response(id, ErrorCode::Internal, e.what());
  }
}

JsonValue Service::handle_analyze(long long id, const JsonValue& request) {
  const ops::Options opts = options_of(ops::Op::Analyze, request);
  ops::AnalyzeRequest req(opts);
  if (!opts.given("jobs")) req.analysis.jobs = options_.jobs;
  const std::string model = ops::model_name(req.model);
  std::string circuit_key;
  const std::shared_ptr<const netlist::Circuit> circuit =
      circuit_for(request, &circuit_key);
  analysis::AnalysisOptions& a = req.analysis;
  if (store_ && req.persist) a.persistence.store = store_.get();
  // One key addresses both caches (the artifact store's for sa/bf).
  const std::string key = req.cache_key(*circuit);

  if (metrics_) metrics_->counter("serve.requests.analyze").add();
  JsonValue cached;
  if (cache_lookup(key, &cached)) {
    JsonValue resp = make_ok_response(id, "analyze");
    resp["model"] = model;
    resp["circuit"] = circuit->name();
    resp["cached"] = true;
    resp["key"] = key;
    resp["profile"] = std::move(cached);
    return resp;
  }

  // Cache miss: the sweep will run, so pin (or build) the resident
  // frozen forest and hand it to the engine. Concurrent analyzes of the
  // same circuit adopt the same immutable node pool.
  a.shared_good = forest_for(circuit_key, *circuit);

  JsonValue profile;
  {
    obs::ScopedSpan span(obs::SpanCollector::current(),
                         "serve.analyze." + model);
    span.attr("circuit", circuit->name()).attr("jobs", a.jobs);
    if (model == "sa") {
      profile = analysis::profile_to_json(analysis::analyze_stuck_at(*circuit, a), key);
    } else if (model == "bf.and" || model == "bf.or") {
      const fault::BridgeType bt = model == "bf.and" ? fault::BridgeType::And
                                                     : fault::BridgeType::Or;
      profile = analysis::profile_to_json(
          analysis::analyze_bridging(*circuit, bt, a), key);
    } else {
      profile = analysis::hybrid_profile_to_json(
          analysis::analyze_stuck_at_hybrid(*circuit, a, req.hybrid));
    }
  }
  cache_insert(key, circuit->name(), profile);

  JsonValue resp = make_ok_response(id, "analyze");
  resp["model"] = model;
  resp["circuit"] = circuit->name();
  resp["cached"] = false;
  resp["key"] = key;
  resp["profile"] = std::move(profile);
  return resp;
}

JsonValue Service::handle_ndetect(long long id, const JsonValue& request) {
  const ops::Options opts = options_of(ops::Op::NDetect, request);
  std::string circuit_key;
  const std::shared_ptr<const netlist::Circuit> circuit =
      circuit_for(request, &circuit_key);

  const std::size_t n = static_cast<std::size_t>(opts.count("n"));
  const std::size_t jobs = opts.given("jobs")
                               ? static_cast<std::size_t>(opts.count("jobs"))
                               : options_.jobs;
  const bool topup = opts.flag("topup");
  const bool collapse = opts.flag("collapse");
  std::vector<std::vector<bool>> vectors =
      parse_bit_vectors(request, circuit->num_inputs());

  // The key covers everything the result depends on -- circuit content,
  // target n, the top-up/collapse policy, and the client's vector set.
  // jobs stays excluded: counts are satcounts of canonical functions,
  // identical for any worker count.
  store::KeyBuilder kb;
  kb.str(analysis::kNDetectSchema);
  kb.str(store::circuit_content_hash(*circuit));
  kb.u64(n);
  kb.flag(topup);
  kb.flag(collapse);
  kb.u64(vectors.size());
  for (const auto& v : vectors) kb.str(bit_string_of(v));
  const std::string key = kb.hex();

  if (metrics_) metrics_->counter("serve.requests.ndetect").add();
  JsonValue cached;
  if (cache_lookup(key, &cached)) {
    JsonValue resp = make_ok_response(id, "ndetect");
    resp["circuit"] = circuit->name();
    resp["cached"] = true;
    resp["key"] = key;
    resp["report"] = std::move(cached["report"]);
    resp["minted_vectors"] = std::move(cached["minted_vectors"]);
    return resp;
  }

  const std::vector<fault::StuckAtFault> faults =
      collapse ? fault::collapse_checkpoint_faults(*circuit)
               : fault::checkpoint_faults(*circuit);

  analysis::NDetectOptions a;
  a.jobs = jobs;
  a.shared_good = forest_for(circuit_key, *circuit);

  JsonValue payload = JsonValue::object();
  {
    obs::ScopedSpan span(obs::SpanCollector::current(), "serve.ndetect");
    span.attr("circuit", circuit->name()).attr("jobs", jobs);
    analysis::NDetectAnalyzer analyzer(*circuit, faults, a);
    const std::size_t given = vectors.size();
    std::size_t minted = 0;
    if (topup) minted = analyzer.top_up(vectors, n);
    analysis::NDetectReport report = analyzer.report(vectors, n);
    report.minted_vectors = minted;
    payload["report"] = analysis::ndetect_report_to_json(report, key);
    JsonValue minted_vectors = JsonValue::array();
    for (std::size_t i = given; i < vectors.size(); ++i) {
      minted_vectors.push_back(bit_string_of(vectors[i]));
    }
    payload["minted_vectors"] = std::move(minted_vectors);
  }
  cache_insert(key, circuit->name(), payload);

  JsonValue resp = make_ok_response(id, "ndetect");
  resp["circuit"] = circuit->name();
  resp["cached"] = false;
  resp["key"] = key;
  resp["report"] = std::move(payload["report"]);
  resp["minted_vectors"] = std::move(payload["minted_vectors"]);
  return resp;
}

JsonValue Service::handle_grade(long long id, const JsonValue& request) {
  const ops::Options opts = options_of(ops::Op::Grade, request);
  const std::shared_ptr<const netlist::Circuit> circuit =
      circuit_for(request);
  const std::size_t patterns =
      static_cast<std::size_t>(opts.count("patterns"));
  const std::uint64_t seed = opts.count("seed");
  const bool collapse = opts.flag("collapse");

  if (metrics_) metrics_->counter("serve.requests.grade").add();
  const std::vector<fault::StuckAtFault> faults =
      collapse ? fault::collapse_checkpoint_faults(*circuit)
               : fault::checkpoint_faults(*circuit);
  sim::WideFaultSimulator sim(*circuit);
  sim::WideSimOptions wopts;
  wopts.drop_detected = opts.flag("drop_detected");
  const auto grade = sim.grade_random(faults, patterns, seed, wopts);

  JsonValue resp = make_ok_response(id, "grade");
  resp["circuit"] = circuit->name();
  resp["total"] = grade.total;
  resp["detected"] = grade.detected();
  resp["num_patterns"] = grade.num_patterns;
  resp["coverage"] =
      grade.total == 0 ? 0.0
                       : static_cast<double>(grade.detected()) /
                             static_cast<double>(grade.total);
  resp["events"] = grade.events();
  return resp;
}

JsonValue Service::handle_hash(long long id, const JsonValue& request) {
  const std::shared_ptr<const netlist::Circuit> circuit =
      circuit_for(request);
  JsonValue resp = make_ok_response(id, "hash");
  resp["circuit"] = circuit->name();
  resp["hash"] = store::circuit_content_hash(*circuit);
  return resp;
}

JsonValue Service::handle_evict(long long id, const JsonValue& request) {
  // With "circuit": drop that circuit's cached profiles and its resident
  // netlist. Without: drop everything (a full cache reset between load
  // phases). The artifact store on disk is never touched.
  std::size_t evicted = 0;
  const JsonValue* which = request.find("circuit");
  if (which && !which->is_string()) {
    throw BadRequest("'circuit' must be a string");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (!which || it->circuit == which->as_string()) {
        cache_.erase(it->key);
        it = lru_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  {
    // Dropping the map entry only unpins the forest; any in-flight
    // analyze keeps its shared_ptr until its sweep completes.
    std::lock_guard<std::mutex> lock(forests_mutex_);
    if (!which) {
      forests_.clear();
    } else {
      for (auto it = forests_.begin(); it != forests_.end();) {
        if (it->second.circuit_name == which->as_string()) {
          it = forests_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(circuits_mutex_);
    if (!which) {
      circuits_.clear();
    } else {
      for (auto it = circuits_.begin(); it != circuits_.end();) {
        if ((*it->second).name() == which->as_string()) {
          it = circuits_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  if (metrics_) metrics_->counter("serve.requests.evict").add();
  JsonValue resp = make_ok_response(id, "evict");
  resp["evicted"] = evicted;
  return resp;
}

JsonValue Service::handle_metrics(long long id) {
  JsonValue resp = make_ok_response(id, "metrics");
  // Shaped exactly like a CLI --metrics-json file, so a client can dump
  // it to disk and validate_metrics accepts it unchanged.
  JsonValue doc = JsonValue::object();
  doc["tool"] = "dpserved";
  doc["schema"] = "dp.metrics.v1";
  doc["metrics"] = metrics_ ? metrics_->to_json() : JsonValue::object();
  resp["document"] = std::move(doc);
  return resp;
}

JsonValue Service::handle_sleep(long long id, const JsonValue& request) {
  // Deterministic busy-worker stand-in for deadline/backpressure tests
  // and load shaping; its row caps it so a client cannot park a worker
  // for long.
  const std::uint64_t ms = options_of(ops::Op::Sleep, request).count("ms");
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  JsonValue resp = make_ok_response(id, "sleep");
  resp["slept_ms"] = ms;
  return resp;
}

}  // namespace dp::serve
