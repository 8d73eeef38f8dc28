#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace pb {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Fnv {
  std::uint64_t h = kFnvOffset;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  Fnv f;
  f.bytes(stream.data(), stream.size());
  return splitmix64(seed ^ splitmix64(f.h));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

obs::JsonValue json_array(const std::vector<double>& values) {
  obs::JsonValue a = obs::JsonValue::array();
  for (const double v : values) a.push_back(v);
  return a;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::fail(const std::string& why) {
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
}

void Result::settle() {
  if (!correct) failed = attempted;
}

obs::JsonValue Result::to_json() const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["correct"] = correct;
  doc["attempted"] = static_cast<long long>(attempted);
  doc["failed"] = static_cast<long long>(failed);
  obs::JsonValue m = obs::JsonValue::object();
  for (const auto& [name, metric] : metrics) {
    obs::JsonValue v = obs::JsonValue::object();
    v["value"] = metric.value;
    v["unit"] = metric.unit;
    m[name] = std::move(v);
  }
  doc["metrics"] = std::move(m);
  obs::JsonValue p = obs::JsonValue::array();
  for (const std::string& s : problems) p.push_back(s);
  doc["problems"] = std::move(p);
  doc["info"] = info;
  return doc;
}

Calibration::Calibration(std::size_t threads, Loop loop)
    : threads_(std::max<std::size_t>(threads, 1)) {
  // Slots, steps per reading, and the reference time: about the reading
  // on a quiet 4-vCPU Intel Xeon VM (GCC 12.2, -O3) at this thread count.
  const bool beyond = loop == Loop::kBeyondL2;
  const std::uint32_t slots = beyond ? 1u << 19 : 1u << 15;
  steps_ = beyond ? 100'000 : 500'000;
  reference_s_ = beyond ? 0.007 : threads_ == 1 ? 0.004 : 0.005;
  for (std::size_t t = 0; t < threads_; ++t) {
    // One random cycle through every slot (Sattolo's shuffle).
    std::vector<std::uint32_t> next(slots);
    for (std::uint32_t i = 0; i < slots; ++i) next[i] = i;
    std::uint64_t x = 0x243f6a8885a308d3ull + t;
    for (std::uint32_t i = slots - 1; i > 0; --i) {
      x = splitmix64(x);
      std::swap(next[i], next[x % i]);
    }
    tables_.push_back(std::move(next));
  }
}

std::size_t Calibration::read() {
  auto loop = [steps = steps_](const std::vector<std::uint32_t>& next) {
    std::uint32_t at = 0;
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < steps; ++i) {
      at = next[at];
      h = splitmix64(h ^ at);
    }
    volatile std::uint64_t sink = h;
    (void)sink;
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads_; ++t) {
    pool.emplace_back(loop, std::cref(tables_[t]));
  }
  loop(tables_[0]);
  for (std::thread& t : pool) t.join();
  readings_.push_back(seconds_since(t0));
  return readings_.size() - 1;
}

double Calibration::scale(std::size_t i) const {
  if (readings_.empty()) return 1.0;
  const std::size_t lo = i >= 1 + kWindow ? i - 1 - kWindow : 0;
  const std::size_t hi = std::min(readings_.size(), i + kWindow + 1);
  return reference_s_ /
         median(std::vector<double>(readings_.begin() + static_cast<std::ptrdiff_t>(lo),
                                    readings_.begin() + static_cast<std::ptrdiff_t>(hi)));
}

// ---- digests ---------------------------------------------------------------

std::uint64_t record_hash(const analysis::FaultRecord& r) {
  Fnv f;
  f.u64(r.detectable);
  f.f64(r.detectability);
  f.f64(r.upper_bound);
  f.f64(r.adherence);
  f.u64(r.pos_fed);
  f.u64(r.pos_observable);
  f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.max_levels_to_po)));
  f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.level_from_pi)));
  f.u64(r.branch_site);
  f.u64(r.bridge_stuck_at);
  f.u64(r.gates_evaluated);
  f.u64(r.gates_skipped);
  return f.h;
}

std::uint64_t population_digest(const std::vector<std::uint64_t>& hashes) {
  Fnv f;
  for (const std::uint64_t h : hashes) f.u64(h);
  return f.h;
}

analysis::FaultRecord make_bridge_record(const netlist::Structure& s,
                                         const fault::BridgingFault& f,
                                         const core::FaultAnalysis& a) {
  analysis::FaultRecord r;
  r.detectable = a.detectable;
  r.detectability = a.detectability;
  r.upper_bound = a.upper_bound;
  r.adherence = a.adherence;
  r.pos_fed = a.pos_fed;
  r.pos_observable = a.pos_observable;
  r.max_levels_to_po =
      std::max(s.max_levels_to_po(f.a), s.max_levels_to_po(f.b));
  r.level_from_pi = std::max(s.level_from_pi(f.a), s.level_from_pi(f.b));
  r.bridge_stuck_at = a.bridge_stuck_at;
  r.gates_evaluated = a.stats.gates_evaluated;
  r.gates_skipped = a.stats.gates_skipped;
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Pins::Pins(const std::string& path, bool inject_mismatch) {
  std::ifstream in(path);
  if (!in) {
    error_ = "cannot read pinned digests " + path;
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    const obs::JsonValue doc = obs::JsonValue::parse(ss.str());
    if (doc.at("schema").as_string() != "perfbench.digests.v1") {
      error_ = "pinned digests: unknown schema";
      return;
    }
    for (const auto& [name, v] : doc.at("populations").members()) {
      PinnedPopulation p;
      p.faults = static_cast<std::size_t>(v.at("faults").as_int());
      p.detectable = v.at("detectable").as_string();
      const std::string& recs = v.at("records").as_string();
      if (recs.size() != 8 * p.faults || p.detectable.size() != p.faults) {
        error_ = "pinned digests: bad record block for " + name;
        return;
      }
      p.hashes.resize(p.faults);
      for (std::size_t i = 0; i < p.faults; ++i) {
        p.hashes[i] = static_cast<std::uint32_t>(
            std::stoul(recs.substr(8 * i, 8), nullptr, 16));
        if (inject_mismatch) p.hashes[i] ^= 1u;
      }
      pops_.emplace(name, std::move(p));
    }
  } catch (const std::exception& e) {
    error_ = std::string("pinned digests: ") + e.what();
    pops_.clear();
  }
}

const PinnedPopulation* Pins::find(const std::string& name) const {
  const auto it = pops_.find(name);
  return it == pops_.end() ? nullptr : &it->second;
}

obs::JsonValue Pins::population_json(
    const std::vector<analysis::FaultRecord>& records) {
  std::vector<std::uint64_t> hashes;
  std::string recs, det;
  for (const analysis::FaultRecord& r : records) {
    hashes.push_back(record_hash(r));
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x",
                  static_cast<unsigned>(hashes.back() & 0xffffffffu));
    recs += buf;
    det += r.detectable ? '1' : '0';
  }
  obs::JsonValue v = obs::JsonValue::object();
  v["faults"] = static_cast<long long>(records.size());
  v["digest"] = hex64(population_digest(hashes));
  v["detectable"] = det;
  v["records"] = recs;
  return v;
}

std::size_t check_against_pins(Result& result, const Pins& pins,
                               const std::string& name,
                               const std::vector<std::size_t>& indices,
                               const std::vector<analysis::FaultRecord>& recs) {
  const PinnedPopulation* p = pins.find(name);
  if (!p) {
    result.fail("no pinned digests for " + name +
                (pins.error().empty() ? "" : " (" + pins.error() + ")"));
    return recs.size();
  }
  std::size_t bad = 0;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const std::size_t i = indices[k];
    const auto h = static_cast<std::uint32_t>(record_hash(recs[k]));
    if (i >= p->faults || h != p->hashes[i]) {
      if (bad == 0) {
        result.fail(name + ": record " + std::to_string(i) +
                    " differs from the pinned digest");
      }
      ++bad;
    }
  }
  return bad;
}

// ---- tracing ----------------------------------------------------------------

SelfTimes self_times(const obs::SpanCollector& spans) {
  const obs::SpanCollector::Snapshot snap = spans.snapshot();
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.parent != 0) child_ns[s.parent] += s.dur_ns;
  }
  SelfTimes out;
  out.spans = snap.spans.size();
  out.dropped = snap.dropped;
  for (const obs::SpanRecord& s : snap.spans) {
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : it->second;
    const std::uint64_t self = s.dur_ns > covered ? s.dur_ns - covered : 0;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const double sec = static_cast<double>(self) * 1e-9;
    out.by_layer[layer] += sec;
    out.total += sec;
  }
  return out;
}

void reconcile(Result& result, double untraced_wall, double traced_wall,
               double end_to_end_wall, const SelfTimes& self) {
  const double overhead =
      untraced_wall > 0 ? traced_wall / untraced_wall - 1.0 : 0.0;
  const double gap =
      end_to_end_wall > 0
          ? std::fabs(self.total - end_to_end_wall) / end_to_end_wall
          : 1.0;
  result.put("obs.trace_overhead_frac", overhead, "frac");
  result.put("obs.self_time_gap_frac", gap, "frac");
  result.put("obs.spans", static_cast<double>(self.spans), "count");
  obs::JsonValue layers = obs::JsonValue::object();
  for (const auto& [layer, s] : self.by_layer) layers[layer] = s;
  result.info["self_s_by_layer"] = std::move(layers);
  result.info["untraced_wall_s"] = untraced_wall;
  result.info["end_to_end_wall_s"] = end_to_end_wall;
  result.info["traced_wall_s"] = traced_wall;
  if (self.dropped > 0) {
    result.fail("span collector dropped " + std::to_string(self.dropped) +
                " spans");
  }
  if (gap > kReconcileBound) {
    result.fail("layer self times (" + std::to_string(self.total) +
                " s) miss the untraced wall clock (" +
                std::to_string(end_to_end_wall) + " s) by more than " +
                std::to_string(kReconcileBound));
  }
}

void put_bdd_stats(Result& result, const std::string& circuit,
                   const core::ParallelStats& stats) {
  std::size_t peak = 0;
  for (const core::WorkerStats& w : stats.workers) {
    peak = std::max(peak, w.peak_live_nodes);
  }
  const std::string sfx = "." + circuit;
  result.put("bdd.apply_calls" + sfx,
             static_cast<double>(stats.total_apply_calls()), "count");
  result.put("bdd.cache_hit_rate" + sfx, stats.cache_hit_rate(), "frac");
  result.put("bdd.gc_runs" + sfx, static_cast<double>(stats.total_gc_runs()),
             "count");
  result.put("bdd.peak_live_nodes" + sfx, static_cast<double>(peak), "count");
}

}  // namespace pb
