// exact_sweep: exact DP in-process, fault-parallel at jobs 4 on the
// shared frozen forest. c1355 stuck-at (the AND-rule-heavy, cache-friendly
// regime) and c432 AND/OR bridging on the paper's distance-weighted
// sample (the GC-heavy, low-hit regime), interleaved chunk by chunk so
// any window sees both kernels.
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "dp/parallel_engine.hpp"
#include "dp_pass.hpp"
#include "fault/sampling.hpp"
#include "netlist/generators.hpp"
#include "netlist/layout.hpp"
#include "netlist/structure.hpp"
#include "setup.hpp"

namespace pb {

namespace {

constexpr std::size_t kJobs = 4;
/// Faults of each population in the batch every timed pass analyzes, and
/// faults per analyze_each call.
constexpr std::size_t kBatch = 128;
constexpr std::size_t kChunk = 32;
/// Timed passes a run makes at least, whatever --seconds says.
constexpr std::size_t kMinPasses = 4;

struct SweepInputs {
  std::unique_ptr<netlist::Circuit> c1355, c432;
  std::unique_ptr<netlist::Structure> s1355, s432;
  std::vector<fault::StuckAtFault> sa;
  std::vector<fault::BridgingFault> bf_and, bf_or;
};

SweepInputs make_inputs(std::uint64_t seed, SetupTimes& t) {
  SweepInputs in;
  const auto t0 = Clock::now();
  in.c1355 = std::make_unique<netlist::Circuit>(netlist::make_benchmark("c1355"));
  in.c432 = std::make_unique<netlist::Circuit>(netlist::make_benchmark("c432"));
  in.s1355 = std::make_unique<netlist::Structure>(*in.c1355);
  in.s432 = std::make_unique<netlist::Structure>(*in.c432);
  const auto t1 = Clock::now();
  in.sa = fault::collapse_checkpoint_faults(*in.c1355);
  const netlist::LayoutEstimate layout(*in.c432, *in.s432);
  fault::SamplingOptions sampling;
  sampling.seed = derive_seed(seed, "bridge");
  in.bf_and = fault::nfbf_fault_set(*in.c432, *in.s432, layout,
                                    fault::BridgeType::And, sampling);
  in.bf_or = fault::nfbf_fault_set(*in.c432, *in.s432, layout,
                                   fault::BridgeType::Or, sampling);
  t.netlist_s = std::chrono::duration<double>(t1 - t0).count();
  t.fault_s = seconds_since(t1);
  t.total_s = seconds_since(t0);
  t.faults = in.sa.size() + in.bf_and.size() + in.bf_or.size();
  return in;
}

template <typename T>
std::vector<T> slice(const std::vector<T>& v, std::size_t begin,
                     std::size_t end) {
  return std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(begin),
                        v.begin() + static_cast<std::ptrdiff_t>(end));
}

/// `n` evenly strided indices over [0, size).
std::vector<std::size_t> stride(std::size_t size, std::size_t n) {
  n = std::min(n, size);
  std::vector<std::size_t> idx;
  for (std::size_t k = 0; k < n; ++k) idx.push_back(k * size / n);
  return idx;
}

template <typename T>
std::vector<T> pick(const std::vector<T>& v, const std::vector<std::size_t>& idx) {
  std::vector<T> out;
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

bool same_records(const std::vector<analysis::FaultRecord>& a,
                  const std::vector<analysis::FaultRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (record_hash(a[i]) != record_hash(b[i])) return false;
  }
  return true;
}

/// Records of `faults` from a ParallelEngine sweep at `jobs`.
template <typename Fault, typename MakeRecord>
std::vector<analysis::FaultRecord> engine_records(
    core::ParallelEngine& engine, const std::vector<Fault>& faults,
    MakeRecord&& make) {
  std::vector<analysis::FaultRecord> recs(faults.size());
  engine.analyze_each(faults, [&](std::size_t i, core::FaultAnalysis&& a) {
    recs[i] = make(faults[i], a);
  });
  return recs;
}

void timed(const Options& o, const SweepInputs& in, const Pins& pins,
           SetupSamples& setup, Result& r) {
  const bool pinned_bridges = o.seed == kDefaultSeed;
  const auto sa_rec = [&](const fault::StuckAtFault& f,
                          const core::FaultAnalysis& a) {
    return analysis::make_stuck_at_record(*in.s1355, f, a);
  };
  const auto bf_rec = [&](const fault::BridgingFault& f,
                          const core::FaultAnalysis& a) {
    return make_bridge_record(*in.s432, f, a);
  };

  // The batch: kBatch faults of each population, evenly strided from an
  // offset the seed picks, cut into chunks of kChunk (one analyze_each
  // call each) taken round-robin over the populations. Every pass runs
  // the same chunks in the same order.
  const std::size_t offset = derive_seed(o.seed, "batch") % 7;
  const auto batch_idx = [&](std::size_t size) {
    std::vector<std::size_t> idx = stride(size - offset, kBatch);
    for (std::size_t& i : idx) i += offset;
    return idx;
  };
  const std::vector<std::size_t> idx[3] = {batch_idx(in.sa.size()),
                                           batch_idx(in.bf_and.size()),
                                           batch_idx(in.bf_or.size())};
  const auto sa = pick(in.sa, idx[0]);
  const std::vector<fault::BridgingFault> bridges[2] = {pick(in.bf_and, idx[1]),
                                                        pick(in.bf_or, idx[2])};
  const std::size_t batch = idx[0].size() + idx[1].size() + idx[2].size();
  struct Chunk {
    int pop;
    std::size_t begin, end;
  };
  std::vector<Chunk> chunks;
  for (std::size_t begin = 0; begin < kBatch; begin += kChunk) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t end = std::min(idx[k].size(), begin + kChunk);
      if (begin < end) chunks.push_back({k, begin, end});
    }
  }

  core::ParallelEngine::Options popt;
  popt.jobs = kJobs;
  core::ParallelEngine e1355(*in.c1355, *in.s1355, popt);
  core::ParallelEngine e432(*in.c432, *in.s432, popt);
  // The sweep's time is scaled by the square root of the loop's scale:
  // the loop runs entirely beyond the core's caches and slows about twice
  // as much (in log terms) as the sweep does when the host is busy.
  Calibration calibration(kJobs, Calibration::Loop::kBeyondL2);

  // One pass: every chunk in turn, a calibration reading and a set-up
  // after each. Fills the records of each population and returns the
  // pass's pieces.
  struct Piece {
    double seconds;
    std::vector<double> fault_s;  ///< engine per-fault clock
    std::size_t reading;          ///< the calibration reading closing it
  };
  std::vector<analysis::FaultRecord> recs[3];
  for (int k = 0; k < 3; ++k) recs[k].resize(idx[k].size());
  auto pass = [&] {
    std::vector<Piece> pieces;
    calibration.read();
    for (const Chunk& ch : chunks) {
      const auto t0 = Clock::now();
      const std::vector<analysis::FaultRecord> part =
          ch.pop == 0
              ? engine_records(e1355, slice(sa, ch.begin, ch.end), sa_rec)
              : engine_records(e432, slice(bridges[ch.pop - 1], ch.begin, ch.end),
                               bf_rec);
      const double dt = seconds_since(t0);
      const core::ParallelStats& stats =
          ch.pop == 0 ? e1355.stats() : e432.stats();
      pieces.push_back({dt, stats.all_fault_seconds(), calibration.read()});
      std::copy(part.begin(), part.end(),
                recs[ch.pop].begin() + static_cast<std::ptrdiff_t>(ch.begin));
      setup.again([&](SetupTimes& t) { make_inputs(o.seed, t); });
    }
    return pieces;
  };

  // Warm-up pass, untimed: checked against the pins, and the reference
  // every timed pass must reproduce.
  pass();
  const std::vector<analysis::FaultRecord> first[3] = {recs[0], recs[1], recs[2]};
  std::size_t mismatches = check_against_pins(r, pins, "c1355.sa", idx[0], first[0]);
  if (pinned_bridges) {
    mismatches += check_against_pins(r, pins, "c432.bf.and", idx[1], first[1]);
    mismatches += check_against_pins(r, pins, "c432.bf.or", idx[2], first[2]);
  }

  std::vector<std::vector<Piece>> passes;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < o.seconds || passes.size() < kMinPasses) {
    passes.push_back(pass());
    for (int k = 0; k < 3; ++k) {
      if (!same_records(recs[k], first[k])) {
        ++mismatches;
        r.fail("exact_sweep: records changed between passes");
      }
    }
  }
  const double elapsed = seconds_since(t0);

  std::vector<double> raw_s, scaled_s, lat;
  for (const std::vector<Piece>& pieces : passes) {
    double raw = 0.0, scaled = 0.0;
    for (const Piece& p : pieces) {
      const double k = std::sqrt(calibration.scale(p.reading));
      raw += p.seconds;
      scaled += k * p.seconds;
      for (const double x : p.fault_s) lat.push_back(k * x);
    }
    raw_s.push_back(raw);
    scaled_s.push_back(scaled);
  }
  const double faults = static_cast<double>(batch);
  r.attempted = batch * passes.size();
  r.failed = mismatches;
  r.put("throughput_per_s", faults / median(scaled_s), "1/s");
  r.put("latency_p50_ms", 1e3 * quantile(lat, 0.5), "ms");
  r.put("latency_p90_ms", 1e3 * quantile(lat, 0.9), "ms");
  r.put("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.info["faults_per_s"] = faults / median(scaled_s);
  r.info["raw_faults_per_s"] = faults / median(raw_s);
  r.info["latency_samples"] = static_cast<long long>(lat.size());
  r.info["passes"] = static_cast<long long>(passes.size());
  r.info["pass_raw_s"] = json_array(raw_s);
  r.info["pass_scaled_s"] = json_array(scaled_s);
  r.info["calibration_median_s"] = calibration.median_reading();
  r.info["measured_s"] = elapsed;
  r.info["latency_unit"] = "one fault's analysis at jobs 4";

  if (!pinned_bridges) {
    // Jobs-invariance in place of pins: the first bridges of each type
    // again at jobs 1 must give the same records.
    core::ParallelEngine::Options serial;
    serial.jobs = 1;
    core::ParallelEngine e1(*in.c432, *in.s432, serial);
    for (int k = 1; k < 3; ++k) {
      const std::size_t n = std::min<std::size_t>(32, first[k].size());
      const auto again = engine_records(e1, slice(bridges[k - 1], 0, n), bf_rec);
      if (!same_records(again, slice(first[k], 0, n))) {
        r.fail("c432 bridging: jobs-1 records differ from jobs-4 records");
      }
    }
  }
}

void traced(const Options& o, const SweepInputs& in, const Pins& pins,
            Result& r) {
  const bool pinned_bridges = o.seed == kDefaultSeed;
  // Sized so the passes below fit the run's time.
  const std::size_t n = std::max<std::size_t>(
      4, static_cast<std::size_t>(o.seconds * 1.5));
  const std::vector<std::size_t> sa_idx = stride(in.sa.size(), n);
  const std::vector<std::size_t> and_idx = stride(in.bf_and.size(), n);
  const std::vector<std::size_t> or_idx = stride(in.bf_or.size(), n);
  const auto sa = pick(in.sa, sa_idx);
  auto bf = pick(in.bf_and, and_idx);
  const auto bf_or = pick(in.bf_or, or_idx);
  bf.insert(bf.end(), bf_or.begin(), bf_or.end());

  obs::SpanCollector spans(kSpanCapacity);
  Interleaved il{&spans};
  const DpPass p_sa = dp_pass_interleaved(*in.c1355, *in.s1355, sa, il);
  const DpPass p_bf = dp_pass_interleaved(*in.c432, *in.s432, bf, il);
  const SelfTimes self = self_times(spans);

  // The same faults at jobs 4: idle share and jobs-invariance.
  core::ParallelEngine::Options par;
  par.jobs = kJobs;
  core::ParallelEngine e4sa(*in.c1355, *in.s1355, par);
  const auto r4sa = engine_records(
      e4sa, sa, [&](const fault::StuckAtFault& f, const core::FaultAnalysis& a) {
        return analysis::make_stuck_at_record(*in.s1355, f, a);
      });
  core::ParallelEngine e4bf(*in.c432, *in.s432, par);
  const auto r4bf = engine_records(
      e4bf, bf, [&](const fault::BridgingFault& f, const core::FaultAnalysis& a) {
        return make_bridge_record(*in.s432, f, a);
      });
  if (!same_records(p_sa.records, r4sa) || !same_records(p_bf.records, r4bf)) {
    r.fail("exact_sweep: traced jobs-1 records differ from jobs-4 records");
  }
  std::size_t mismatches =
      check_against_pins(r, pins, "c1355.sa", sa_idx, p_sa.records);
  if (pinned_bridges) {
    const auto mid = p_bf.records.begin() +
                     static_cast<std::ptrdiff_t>(and_idx.size());
    mismatches += check_against_pins(
        r, pins, "c432.bf.and", and_idx,
        std::vector<analysis::FaultRecord>(p_bf.records.begin(), mid));
    mismatches += check_against_pins(
        r, pins, "c432.bf.or", or_idx,
        std::vector<analysis::FaultRecord>(mid, p_bf.records.end()));
  }
  r.attempted = sa.size() + bf.size();
  r.failed = mismatches;

  const core::ParallelStats& s1 = e4sa.stats();
  const core::ParallelStats& s2 = e4bf.stats();
  const double sweep = s1.wall_seconds + s2.wall_seconds;
  const double busy = s1.total_analyze_seconds() + s2.total_analyze_seconds();
  r.put("dp.sweep_s", sweep, "s");
  r.put("dp.busy_s", busy, "s");
  r.put("dp.idle_frac",
        sweep > 0 ? 1.0 - busy / (static_cast<double>(kJobs) * sweep) : 0.0,
        "frac");
  r.put("dp.good_build_s", p_sa.good_build_s + p_bf.good_build_s, "s");
  r.put("dp.frozen_nodes",
        static_cast<double>(p_sa.frozen_nodes + p_bf.frozen_nodes), "count");
  std::vector<double> lat = p_sa.stats.all_fault_seconds();
  const std::vector<double> lat_bf = p_bf.stats.all_fault_seconds();
  lat.insert(lat.end(), lat_bf.begin(), lat_bf.end());
  r.put("dp.fault_p50_ms", 1e3 * quantile(lat, 0.5), "ms");
  r.put("dp.fault_p90_ms", 1e3 * quantile(lat, 0.9), "ms");
  r.put("dp.gates_evaluated",
        static_cast<double>(p_sa.stats.total_gates_evaluated() +
                            p_bf.stats.total_gates_evaluated()),
        "count");
  r.put("dp.gates_skipped",
        static_cast<double>(p_sa.stats.total_gates_skipped() +
                            p_bf.stats.total_gates_skipped()),
        "count");
  put_bdd_stats(r, "c1355", p_sa.stats);
  put_bdd_stats(r, "c432", p_bf.stats);
  r.info["traced_faults"] = static_cast<long long>(r.attempted);
  reconcile(r, il.untraced_s, il.traced_s, il.untraced_s, self);
}

}  // namespace

Result run_exact_sweep(const Options& o) {
  Result r;
  SetupSamples setup;
  SweepInputs in = setup.first(
      [&](SetupTimes& t) { return make_inputs(o.seed, t); });
  r.info["bridge_seed"] = hex64(derive_seed(o.seed, "bridge"));
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
