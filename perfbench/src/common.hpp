// Shared plumbing for the workload runner: options, the result being
// built, seed derivation, quantiles, per-fault record digests and the
// pinned digests they are checked against, and span self-time
// accounting for the traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/profiles.hpp"
#include "dp/parallel_engine.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
namespace analysis = dp::analysis;
namespace core = dp::core;
namespace fault = dp::fault;
namespace netlist = dp::netlist;
namespace obs = dp::obs;

/// The seed the pinned digests (perfbench/digests.json) were made at.
/// Seed-dependent populations (the bridge samples) are checked against
/// pins only at this seed; at any other seed they are checked for
/// jobs-invariance instead.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Layer self times of a traced run must reconcile with the untraced
/// wall clock of the same work to within this share.
inline constexpr double kReconcileBound = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;      ///< pinned digests document
  std::string work_dir;       ///< scratch for sockets and server traces
  std::string dpserved_path;  ///< the daemon binary served_mix spawns
  bool inject_mismatch = false;  ///< self-test: corrupt every pin
};

double seconds_since(Clock::time_point t0);

/// Independent stream seed for one kind of random input, derived from
/// the workload seed (splitmix64 over seed and an FNV hash of `stream`).
std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream);

/// Nearest-rank quantile, q in [0, 1]; 0 on an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

obs::JsonValue json_array(const std::vector<double>& values);

// ---- machine-speed calibration ------------------------------------------------

/// Scales measured times to a reference machine speed. The benchmark runs
/// on a few cores of a shared host whose speed drifts by up to half again
/// over tens of seconds as the neighbours' load changes. A fixed loop is
/// read (timed) between the pieces of measured work; a piece's scale is
/// the loop's reference time over the median of the readings near it, and
/// its time is multiplied by that scale (or by a root or blend of scales),
/// i.e. reported about as it would read when the loop runs at its
/// reference time. The loop shares no code or data with the program, so a
/// change to the program moves a scaled figure as much as the raw one.
///
/// The loop chases a random cycle through a private table, plus some
/// hashing, on `threads` threads at once. Loop::kBeyondL2 (2 MiB) misses
/// the core's own caches and so feels contention for the shared cache and
/// memory; Loop::kInL2 (128 KiB) does not. Each workload picks the loops
/// and how strongly its work follows them, by measurement (see
/// perfbench/README.md).
class Calibration {
 public:
  enum class Loop { kInL2, kBeyondL2 };
  Calibration(std::size_t threads, Loop loop);
  /// Takes a reading and returns its index. Work timed between readings
  /// i - 1 and i is scaled by scale(i).
  std::size_t read();
  /// The reference time over the median of the readings from i - 1 -
  /// kWindow to i + kWindow: a reading is noisy on its own, while the
  /// host's speed drifts over seconds.
  double scale(std::size_t i) const;
  /// Median of every reading, seconds.
  double median_reading() const { return median(readings_); }

  static constexpr std::size_t kWindow = 2;

 private:
  std::size_t threads_;
  std::size_t steps_;
  double reference_s_;
  std::vector<std::vector<std::uint32_t>> tables_;
  std::vector<double> readings_;
};

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double self_peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: metrics by name plus the correctness ledger.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  obs::JsonValue info = obs::JsonValue::object();  ///< sample counts etc.

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why);
  /// A correctness failure fails every operation of the workload.
  void settle();
  obs::JsonValue to_json() const;
};

// ---- per-fault record digests --------------------------------------------

/// 64-bit FNV-1a over a canonical encoding of every FaultRecord field
/// (doubles by their exact bit pattern).
std::uint64_t record_hash(const analysis::FaultRecord& r);

/// Digest of a whole population: FNV-1a over the per-record hashes.
std::uint64_t population_digest(const std::vector<std::uint64_t>& hashes);

/// Bridging counterpart of analysis::make_stuck_at_record: the record
/// analyze_bridging stores for one analysis (site distances are the
/// maximum over the two bridged nets). The pin mode checks it against
/// analyze_bridging field by field.
analysis::FaultRecord make_bridge_record(const netlist::Structure& s,
                                         const fault::BridgingFault& f,
                                         const core::FaultAnalysis& a);

std::string hex64(std::uint64_t v);

/// One pinned population: per-record 32-bit hashes plus the partition.
struct PinnedPopulation {
  std::size_t faults = 0;
  std::vector<std::uint32_t> hashes;  ///< low 32 bits of record_hash
  std::string detectable;             ///< '0'/'1' per fault
};

class Pins {
 public:
  /// Loads the document; a missing or malformed file leaves no pins and
  /// records why (every check then fails).
  Pins(const std::string& path, bool inject_mismatch);
  const PinnedPopulation* find(const std::string& name) const;
  const std::string& error() const { return error_; }

  static obs::JsonValue population_json(
      const std::vector<analysis::FaultRecord>& records);

 private:
  std::map<std::string, PinnedPopulation> pops_;
  std::string error_;
};

/// Checks records (indices into population `name`) against the pins.
/// Returns the number of mismatching records; problems go to `result`.
std::size_t check_against_pins(Result& result, const Pins& pins,
                               const std::string& name,
                               const std::vector<std::size_t>& indices,
                               const std::vector<analysis::FaultRecord>& recs);

// ---- tracing ----------------------------------------------------------------

/// Spans per recording thread the traced runs keep.
inline constexpr std::size_t kSpanCapacity = 1u << 18;

/// Installs `collector` as SpanCollector::current() for its lifetime, so
/// spans from the benchmark (and any the program records itself) land in
/// it; untraced work runs outside any TraceOn.
class TraceOn {
 public:
  explicit TraceOn(obs::SpanCollector& collector) {
    obs::SpanCollector::install(&collector);
  }
  ~TraceOn() { obs::SpanCollector::install(nullptr); }
  TraceOn(const TraceOn&) = delete;
  TraceOn& operator=(const TraceOn&) = delete;
};

/// Self time (duration minus the time covered by child spans) summed by
/// layer, where the layer is the span name up to its first '.'.
struct SelfTimes {
  std::map<std::string, double> by_layer;  ///< seconds
  double total = 0.0;                      ///< sum over all layers
  std::size_t spans = 0;
  std::uint64_t dropped = 0;
};
SelfTimes self_times(const obs::SpanCollector& spans);

/// Adds obs.trace_overhead_frac (traced against untraced wall clock of
/// the same decomposed work) and obs.self_time_gap_frac (layer self times
/// against the untraced end-to-end wall clock of the public call), and
/// gates the latter on kReconcileBound.
void reconcile(Result& result, double untraced_wall, double traced_wall,
               double end_to_end_wall, const SelfTimes& self);

/// Adds the bdd.* per-circuit metrics: the ManagerStats deltas a
/// jobs-1 sweep's worker reports through ParallelStats.
void put_bdd_stats(Result& result, const std::string& circuit,
                   const core::ParallelStats& stats);

// ---- workloads --------------------------------------------------------------

Result run_exact_sweep(const Options& o);
Result run_hybrid_sa(const Options& o);
Result run_served_mix(const Options& o);
/// Recomputes every pinned population at kDefaultSeed and writes the
/// digests document to `path`. Returns false when a cross-check fails.
bool write_pins(const std::string& path);

}  // namespace pb
