// hybrid_sa: one closed-loop client at jobs 1 calling
// analysis::analyze_stuck_at_hybrid back to back on c1355 and c1908.
// The random-pattern prefilter resolves nearly every fault, so the wide
// simulator and the good-function build for the small DP remainder carry
// each call; the BDD apply path does little.
#include <algorithm>
#include <cmath>

#include "analysis/hybrid.hpp"
#include "common.hpp"
#include "dp_pass.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "setup.hpp"
#include "sim/wide_sim.hpp"

namespace pb {

namespace {

const char* const kCircuits[] = {"c1355", "c1908"};
/// Call pattern: c1355 twice per c1908. A c1355 call takes ~5 ms when the
/// prefilter resolves every fault and ~27 ms when DP runs on the rest
/// (about 3 calls in 5); c1908 calls take 30-80 ms. In this mix the median
/// call sits inside c1355's DP mode and the p90 call inside the body of
/// c1908's, not on an edge between modes.
constexpr int kCycle[] = {0, 0, 1};
/// Calls per timed pass (a multiple of the cycle), calls between two
/// calibration readings, and the fewest passes a run makes.
constexpr std::size_t kPassCalls = 96;
constexpr std::size_t kGroupCalls = 8;
constexpr std::size_t kMinPasses = 4;

struct HybridInputs {
  std::unique_ptr<netlist::Circuit> circuits[2];
  std::unique_ptr<netlist::Structure> structures[2];
  std::vector<fault::StuckAtFault> faults[2];
};

HybridInputs make_inputs(SetupTimes& t) {
  HybridInputs in;
  const auto t0 = Clock::now();
  for (int c = 0; c < 2; ++c) {
    in.circuits[c] = std::make_unique<netlist::Circuit>(
        netlist::make_benchmark(kCircuits[c]));
    in.structures[c] = std::make_unique<netlist::Structure>(*in.circuits[c]);
  }
  const auto t1 = Clock::now();
  t.faults = 0;
  for (int c = 0; c < 2; ++c) {
    in.faults[c] = fault::collapse_checkpoint_faults(*in.circuits[c]);
    t.faults += in.faults[c].size();
  }
  t.netlist_s = std::chrono::duration<double>(t1 - t0).count();
  t.fault_s = seconds_since(t1);
  t.total_s = seconds_since(t0);
  return in;
}

std::string pin_name(int c) { return std::string(kCircuits[c]) + ".sa"; }

/// Checks one hybrid result: its partition against the pinned exact
/// partition and every DP-resolved record against its pinned digest.
/// Returns false on any mismatch.
bool check_call(Result& r, const Pins& pins, int c,
                const analysis::HybridProfile& p) {
  const PinnedPopulation* pin = pins.find(pin_name(c));
  if (!pin || pin->faults != p.faults.size()) {
    r.fail("no matching pinned population for " + pin_name(c));
    return false;
  }
  std::vector<std::size_t> idx;
  std::vector<analysis::FaultRecord> recs;
  for (std::size_t i = 0; i < p.faults.size(); ++i) {
    const analysis::HybridFaultRecord& f = p.faults[i];
    if (f.detectable != (pin->detectable[i] == '1')) {
      r.fail(pin_name(c) + ": hybrid partition differs from the exact "
                           "partition at fault " + std::to_string(i));
      return false;
    }
    if (f.resolved_by == analysis::ResolvedBy::ExactDp) {
      idx.push_back(i);
      recs.push_back(f.dp);
    }
  }
  return check_against_pins(r, pins, pin_name(c), idx, recs) == 0;
}

std::uint64_t prefilter_seed(std::uint64_t base, std::size_t call) {
  return derive_seed(base + call, "prefilter-call");
}

void timed(const Options& o, const HybridInputs& in, const Pins& pins,
           SetupSamples& setup, Result& r) {
  const std::uint64_t base = derive_seed(o.seed, "prefilter");
  analysis::AnalysisOptions a;
  a.jobs = 1;
  // A call is part simulation, whose data stays in the core's caches,
  // and part forest build, whose BDD tables do not: its time is scaled by
  // the geometric mean of the two loops' scales.
  Calibration in_l2(1, Calibration::Loop::kInL2);
  Calibration beyond_l2(1, Calibration::Loop::kBeyondL2);
  auto read = [&] {
    in_l2.read();
    return beyond_l2.read();  // the same index in both
  };
  // One pass is kPassCalls calls, each with its own prefilter seed, with
  // calibration readings and a set-up after every kGroupCalls; every pass
  // makes the same calls in the same order. A group's call times are
  // scaled by the readings around it.
  struct Group {
    std::vector<double> call_s;
    std::size_t reading;
  };
  std::uint64_t calls = 0, bad_calls = 0, pass_faults = 0;
  auto pass = [&] {
    std::vector<Group> groups(1);
    pass_faults = 0;
    read();
    for (std::size_t k = 0; k < kPassCalls; ++k) {
      const int c = kCycle[k % std::size(kCycle)];
      analysis::HybridOptions h;
      h.prefilter_seed = prefilter_seed(base, k);
      const auto tc = Clock::now();
      const analysis::HybridProfile p =
          analysis::analyze_stuck_at_hybrid(*in.circuits[c], a, h);
      groups.back().call_s.push_back(seconds_since(tc));
      ++calls;
      pass_faults += p.faults.size();
      if (!check_call(r, pins, c, p)) ++bad_calls;
      if (groups.back().call_s.size() == kGroupCalls || k + 1 == kPassCalls) {
        groups.back().reading = read();
        setup.again(make_inputs);
        if (k + 1 < kPassCalls) groups.emplace_back();
      }
    }
    return groups;
  };
  pass();  // warm-up, untimed (its calls are checked all the same)
  std::vector<std::vector<Group>> passes;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < o.seconds || passes.size() < kMinPasses) {
    passes.push_back(pass());
  }
  const double elapsed = seconds_since(t0);

  std::vector<double> raw_s, scaled_s, lat;
  for (const std::vector<Group>& groups : passes) {
    double raw = 0.0, scaled = 0.0;
    for (const Group& g : groups) {
      const double k =
          std::sqrt(in_l2.scale(g.reading) * beyond_l2.scale(g.reading));
      for (const double x : g.call_s) {
        raw += x;
        scaled += k * x;
        lat.push_back(k * x);
      }
    }
    raw_s.push_back(raw);
    scaled_s.push_back(scaled);
  }
  const double faults = static_cast<double>(pass_faults);
  r.attempted = calls;
  r.failed = bad_calls;
  r.put("throughput_per_s", faults / median(scaled_s), "1/s");
  r.put("latency_p50_ms", 1e3 * quantile(lat, 0.5), "ms");
  r.put("latency_p90_ms", 1e3 * quantile(lat, 0.9), "ms");
  r.put("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.info["faults_per_s"] = faults / median(scaled_s);
  r.info["raw_faults_per_s"] = faults / median(raw_s);
  r.info["latency_samples"] = static_cast<long long>(lat.size());
  r.info["calls"] = static_cast<long long>(calls);
  r.info["passes"] = static_cast<long long>(passes.size());
  r.info["pass_raw_s"] = json_array(raw_s);
  r.info["pass_scaled_s"] = json_array(scaled_s);
  r.info["calibration_median_s.in_l2"] = in_l2.median_reading();
  r.info["calibration_median_s.beyond_l2"] = beyond_l2.median_reading();
  r.info["measured_s"] = elapsed;
  r.info["latency_unit"] = "one analyze_stuck_at_hybrid call at jobs 1";
}

struct Decomposed {
  std::vector<bool> detectable;
  double prefilter_s = 0.0;
  std::uint64_t events = 0;
  std::size_t resolved = 0;
  DpPass dp;
};

/// analyze_stuck_at_hybrid rebuilt from its public pieces: collapse,
/// wide-simulator grade, Structure, then exact DP on the remainder.
Decomposed decompose(const netlist::Circuit& circuit, std::uint64_t seed) {
  obs::SpanCollector* const spans = obs::SpanCollector::current();
  const analysis::HybridOptions defaults;
  Decomposed d;
  std::vector<fault::StuckAtFault> faults;
  {
    obs::ScopedSpan span(spans, "fault.collapse");
    faults = fault::collapse_checkpoint_faults(circuit);
  }
  dp::sim::WideFaultSimulator::Grade grade;
  {
    obs::ScopedSpan span(spans, "sim.prefilter");
    const auto t0 = Clock::now();
    const dp::sim::WideFaultSimulator wide(circuit);
    dp::sim::WideSimOptions wopt;
    wopt.drop_detected = defaults.drop_detected;
    grade = wide.grade_random(faults, defaults.prefilter_patterns, seed, wopt);
    d.prefilter_s = seconds_since(t0);
  }
  d.events = grade.events();
  std::vector<fault::StuckAtFault> remainder;
  std::vector<std::size_t> where;
  d.detectable.assign(faults.size(), true);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (grade.detection_counts[i] == 0) {
      remainder.push_back(faults[i]);
      where.push_back(i);
    }
  }
  d.resolved = faults.size() - remainder.size();
  std::unique_ptr<netlist::Structure> structure;
  {
    obs::ScopedSpan span(spans, "netlist.structure");
    structure = std::make_unique<netlist::Structure>(circuit);
  }
  if (!remainder.empty()) {
    d.dp = dp_pass(circuit, *structure, remainder);
    for (std::size_t k = 0; k < where.size(); ++k) {
      d.detectable[where[k]] = d.dp.records[k].detectable;
    }
  }
  return d;
}

void traced(const Options& o, const HybridInputs& in, const Pins& pins,
            Result& r) {
  const std::uint64_t base = derive_seed(o.seed, "prefilter");
  const std::size_t calls = std::max<std::size_t>(
      12, static_cast<std::size_t>(o.seconds * 2.0));
  analysis::AnalysisOptions a;
  a.jobs = 1;

  // Per call, back to back so all three see the same machine state:
  // (a) the public call untraced -- reference partition and end-to-end
  // wall clock; (b) its decomposition untraced; (c) the same traced.
  std::vector<analysis::HybridProfile> ref;
  std::vector<Decomposed> dec;
  // One untimed round first, so no timed call pays for cold caches.
  for (const auto& circuit : in.circuits) {
    analysis::analyze_stuck_at_hybrid(*circuit, a);
    decompose(*circuit, analysis::HybridOptions{}.prefilter_seed);
  }
  obs::SpanCollector spans(kSpanCapacity);
  double wall_a = 0.0, wall_b = 0.0, wall_c = 0.0;
  for (std::size_t k = 0; k < calls; ++k) {
    const netlist::Circuit& circuit = *in.circuits[kCycle[k % std::size(kCycle)]];
    const std::uint64_t seed = prefilter_seed(base, k);
    analysis::HybridOptions h;
    h.prefilter_seed = seed;
    auto t0 = Clock::now();
    ref.push_back(analysis::analyze_stuck_at_hybrid(circuit, a, h));
    wall_a += seconds_since(t0);
    t0 = Clock::now();
    decompose(circuit, seed);
    wall_b += seconds_since(t0);
    const TraceOn on(spans);
    t0 = Clock::now();
    obs::ScopedSpan root(&spans, "bench.hybrid_call");
    dec.push_back(decompose(circuit, seed));
    root.stop();
    wall_c += seconds_since(t0);
  }
  const SelfTimes self = self_times(spans);

  std::uint64_t bad = 0, faults = 0, resolved = 0, events = 0, remainder = 0;
  double prefilter_total = 0.0, sweep = 0.0, busy = 0.0;
  std::vector<double> prefilter_s, build_s;
  core::ParallelStats dp_stats[2];
  std::size_t frozen[2] = {0, 0};
  for (std::size_t k = 0; k < calls; ++k) {
    const int c = kCycle[k % std::size(kCycle)];
    const analysis::HybridProfile& p = ref[k];
    const Decomposed& d = dec[k];
    bool ok = check_call(r, pins, c, p) && d.detectable.size() == p.faults.size();
    for (std::size_t i = 0; ok && i < p.faults.size(); ++i) {
      ok = d.detectable[i] == p.faults[i].detectable;
    }
    if (!ok) {
      r.fail(pin_name(c) + ": recomposed partition differs from "
                           "analyze_stuck_at_hybrid");
      ++bad;
    }
    faults += p.faults.size();
    resolved += d.resolved;
    events += d.events;
    remainder += p.faults.size() - d.resolved;
    prefilter_total += d.prefilter_s;
    prefilter_s.push_back(d.prefilter_s);
    sweep += p.engine_stats.wall_seconds;
    busy += p.engine_stats.total_analyze_seconds();
    if (!d.dp.records.empty()) {
      build_s.push_back(d.dp.good_build_s);
      dp_stats[c].merge(d.dp.stats);
      frozen[c] = d.dp.frozen_nodes;
    }
  }
  r.attempted = calls;
  r.failed = bad;
  const double n = static_cast<double>(calls);
  r.put("sim.prefilter_s", median(prefilter_s), "s");
  r.put("sim.events", static_cast<double>(events) / n, "count");
  r.put("sim.pattern_gates_per_s",
        static_cast<double>(events) * dp::sim::kWideLanes / prefilter_total,
        "1/s");
  r.put("sim.resolved_frac",
        static_cast<double>(resolved) / static_cast<double>(faults), "frac");
  r.put("analysis.dp_remainder_faults", static_cast<double>(remainder) / n,
        "count");
  r.put("dp.good_build_s", median(build_s), "s");
  r.put("dp.frozen_nodes", static_cast<double>(frozen[0] + frozen[1]), "count");
  r.put("dp.sweep_s", sweep / n, "s");
  r.put("dp.busy_s", busy / n, "s");
  r.put("dp.idle_frac", sweep > 0 ? 1.0 - busy / sweep : 0.0, "frac");
  core::ParallelStats all = dp_stats[0];
  all.merge(dp_stats[1]);
  const std::vector<double> fault_s = all.all_fault_seconds();
  r.put("dp.fault_p50_ms", 1e3 * quantile(fault_s, 0.5), "ms");
  r.put("dp.fault_p90_ms", 1e3 * quantile(fault_s, 0.9), "ms");
  r.put("dp.gates_evaluated",
        static_cast<double>(all.total_gates_evaluated()) / n, "count");
  r.put("dp.gates_skipped",
        static_cast<double>(all.total_gates_skipped()) / n, "count");
  for (int c = 0; c < 2; ++c) put_bdd_stats(r, kCircuits[c], dp_stats[c]);
  r.info["traced_calls"] = static_cast<long long>(calls);
  r.info["per_call_counts"] = "sim.events, analysis.*, dp.gates_*, dp.*_s";
  reconcile(r, wall_b, wall_c, wall_a, self);
}

}  // namespace

Result run_hybrid_sa(const Options& o) {
  Result r;
  SetupSamples setup;
  HybridInputs in = setup.first(make_inputs);
  const Pins pins(o.pins_path, o.inject_mismatch);
  if (o.trace) {
    traced(o, in, pins, r);
  } else {
    timed(o, in, pins, setup, r);
  }
  setup.report(r);
  r.settle();
  return r;
}

}  // namespace pb
