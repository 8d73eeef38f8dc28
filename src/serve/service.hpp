// Request execution for dpserved: maps one parsed protocol request to
// the in-process analysis engines and keeps the expensive state resident
// between requests.
//
// Resident state and what "warm" means
// ------------------------------------
// Four layers stay hot across requests, which is the entire point of a
// daemon over a CLI-per-request workflow:
//   1. Circuits -- parsed netlists (built-in benchmarks or inline .bench
//      text) are constructed once and shared by reference afterwards.
//   2. Frozen forests -- one immutable good-function universe per
//      resident circuit (core::SharedGoodFunctions), built on first
//      analyze and adopted read-only by every subsequent request's
//      engine workers, concurrent ones included: an analyze that misses
//      the profile cache still skips the entire good-function build.
//      Held by shared_ptr, so an evict during an in-flight request only
//      unpins the forest; the request keeps its reference until done.
//   3. Profile cache -- a bounded in-memory LRU of fully serialized
//      analyze responses keyed exactly like the artifact store
//      (profile_cache_key + model-specific extras). A hit skips BDD
//      construction and DP entirely and responds in microseconds; the
//      response's "cached" flag is what dpload uses to split warm from
//      cold latencies.
//   4. Artifact store (optional) -- when a cache directory is attached,
//      sweeps run with persistence enabled, so profiles survive restarts
//      and interrupted sweeps resume from checkpoints. The store is
//      lock-striped (see store/artifact_store.hpp), so concurrent
//      workers use it without external locking.
//
// Identity contract: a served "analyze" response's profile document is
// byte-identical to serializing the corresponding in-process
// analyze_stuck_at / analyze_bridging / analyze_hybrid result, for any
// worker count -- sweeps are jobs-invariant and the serializers emit
// exact round-trip doubles. tests/serve_test.cpp pins this.
//
// handle() never throws: engine exceptions become {"ok":false, code
// "internal"}, option mistakes become "bad_request". Thread safety:
// handle() may be called from any number of worker threads concurrently.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dp/good_functions.hpp"
#include "netlist/circuit.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_store.hpp"

namespace dp::serve {

struct ServiceOptions {
  /// Default engine worker count for requests that do not send
  /// options.jobs (fault-partition sharding inside one request). The
  /// "jobs" rows of the option schema cap both the request value and
  /// dpserved's --jobs at the hardware thread count.
  std::size_t jobs = 1;
  /// Non-empty: open an ArtifactStore here and persist sweeps.
  std::string cache_dir;
  /// In-memory LRU capacity, in cached analyze responses.
  std::size_t profile_cache_entries = 64;
};

class Service {
 public:
  Service(const ServiceOptions& options, obs::MetricsRegistry* metrics);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Executes one request object and returns the response object.
  /// Request types: analyze, ndetect, grade, hash, evict, metrics, sleep,
  /// ping. ("shutdown" is intercepted by the Server before reaching here.)
  obs::JsonValue handle(const obs::JsonValue& request) noexcept;

  /// Current in-memory profile-cache entry count (tests).
  std::size_t profile_cache_size() const;

  /// Current resident frozen-forest count (tests).
  std::size_t resident_forest_count() const;

 private:
  struct CacheEntry;

  struct ForestEntry {
    std::string circuit_name;  ///< for name-scoped evicts
    std::shared_ptr<const core::SharedGoodFunctions> forest;
  };

  std::shared_ptr<const netlist::Circuit> circuit_for(
      const obs::JsonValue& request, std::string* key_out = nullptr);

  /// Returns the resident frozen good-function forest for `key`, building
  /// it on first use. Serialized per service (one build at a time); every
  /// later request for the same circuit adopts the same immutable forest.
  std::shared_ptr<const core::SharedGoodFunctions> forest_for(
      const std::string& key, const netlist::Circuit& circuit);

  obs::JsonValue handle_analyze(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_ndetect(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_grade(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_hash(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_evict(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_metrics(long long id);
  obs::JsonValue handle_sleep(long long id, const obs::JsonValue& request);

  /// False on miss; on hit copies the payload out under the lock and
  /// moves the entry to the LRU head.
  bool cache_lookup(const std::string& key, obs::JsonValue* out);
  void cache_insert(const std::string& key, const std::string& circuit,
                    obs::JsonValue payload);

  ServiceOptions options_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<store::ArtifactStore> store_;

  mutable std::mutex circuits_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const netlist::Circuit>>
      circuits_;

  mutable std::mutex forests_mutex_;
  std::unordered_map<std::string, ForestEntry> forests_;

  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
};

}  // namespace dp::serve
