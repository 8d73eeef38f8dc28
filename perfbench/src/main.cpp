// perfbench: runs one benchmark workload and prints its result as
// one JSON line (the last line of stdout). perfbench/run.py builds this
// binary, passes the paths, and turns the line into the benchmark's
// result.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    --pins DIGESTS --work-dir DIR --dpserved PATH
//                    [--inject-mismatch]
//   perfbench --pin OUT      recompute the pinned digests
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "analysis/profile_io.hpp"
#include "common.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/sampling.hpp"
#include "netlist/generators.hpp"
#include "netlist/layout.hpp"
#include "netlist/structure.hpp"

namespace pb {

namespace {

const std::set<std::string> kAll = {"exact_sweep", "hybrid_sa", "served_mix"};
const std::set<std::string> kSweeps = {"exact_sweep", "hybrid_sa"};

struct Entry {
  std::string name;
  std::string unit;
  std::set<std::string> workloads;  ///< where the layer is exercised
};

/// Every metric a run reports. A workload that does not exercise a layer
/// reports that layer's metrics as 0; one that does but fails to produce
/// a metric is a benchmark bug.
std::vector<Entry> catalogue(bool trace) {
  std::vector<Entry> out;
  if (!trace) {
    for (const auto& [n, u] : {std::pair{"setup_s", "s"},
                               {"throughput_per_s", "1/s"},
                               {"latency_p50_ms", "ms"},
                               {"latency_p90_ms", "ms"},
                               {"peak_rss_mb", "MB"}}) {
      out.push_back({n, u, kAll});
    }
    return out;
  }
  for (const auto& [n, u] :
       {std::pair{"netlist.build_s", "s"}, {"fault.enumerate_s", "s"},
        {"fault.count", "count"}, {"dp.good_build_s", "s"},
        {"dp.frozen_nodes", "count"}, {"dp.sweep_s", "s"}, {"dp.busy_s", "s"},
        {"dp.idle_frac", "frac"}, {"dp.fault_p50_ms", "ms"},
        {"dp.fault_p90_ms", "ms"}, {"dp.gates_evaluated", "count"},
        {"dp.gates_skipped", "count"}}) {
    out.push_back({n, u, kSweeps});
  }
  const std::pair<const char*, std::set<std::string>> circuits[] = {
      {"c1355", kSweeps},
      {"c432", {"exact_sweep"}},
      {"c1908", {"hybrid_sa"}},
      {"alu181", {"served_mix"}}};
  for (const auto& [c, w] : circuits) {
    for (const auto& [n, u] :
         {std::pair{"bdd.apply_calls", "count"}, {"bdd.cache_hit_rate", "frac"},
          {"bdd.gc_runs", "count"}, {"bdd.peak_live_nodes", "count"}}) {
      out.push_back({std::string(n) + "." + c, u, w});
    }
  }
  for (const auto& [n, u] :
       {std::pair{"sim.prefilter_s", "s"}, {"sim.events", "count"},
        {"sim.pattern_gates_per_s", "1/s"}, {"sim.resolved_frac", "frac"},
        {"analysis.dp_remainder_faults", "count"}}) {
    out.push_back({n, u, {"hybrid_sa"}});
  }
  for (const char* t : {"analyze", "grade", "ndetect"}) {
    out.push_back({std::string("serve.latency_p50_ms.") + t, "ms", {"served_mix"}});
    out.push_back({std::string("serve.latency_p90_ms.") + t, "ms", {"served_mix"}});
  }
  for (const auto& [n, u] :
       {std::pair{"serve.wait_frac", "frac"},
        {"serve.profile_cache_hit_rate", "frac"},
        {"serve.queue_high_water", "count"}, {"serve.rejected", "count"},
        {"serve.generator_lag_ms", "ms"}}) {
    out.push_back({n, u, {"served_mix"}});
  }
  for (const auto& [n, u] : {std::pair{"obs.trace_overhead_frac", "frac"},
                             {"obs.self_time_gap_frac", "frac"},
                             {"obs.spans", "count"}}) {
    out.push_back({n, u, kAll});
  }
  return out;
}

/// Fills the metrics of layers the workload does not exercise; returns
/// false (with a message) when an exercised one is missing.
bool complete(Result& r, const std::string& workload, bool trace) {
  for (const Entry& e : catalogue(trace)) {
    const auto it = r.metrics.find(e.name);
    if (!e.workloads.count(workload)) {
      if (it == r.metrics.end()) r.put(e.name, 0.0, e.unit);
      continue;
    }
    if (it == r.metrics.end() || it->second.unit != e.unit) {
      // A run that stopped early on a correctness failure may lack it.
      if (r.correct) {
        std::cerr << "perfbench: " << workload << " did not report "
                  << e.name << " [" << e.unit << "]\n";
        return false;
      }
      r.put(e.name, 0.0, e.unit);
    }
  }
  return true;
}

obs::JsonValue build_info() {
  obs::JsonValue b = obs::JsonValue::object();
  b["build_type"] = PB_BUILD_TYPE;
  b["flags"] = PB_BUILD_FLAGS;
  b["compiler"] = PB_COMPILER;
  b["compiler_version"] = __VERSION__;
  b["ndebug"] =
#ifdef NDEBUG
      true;
#else
      false;
#endif
  return b;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PB_BUILD_FLAGS).find("-fsanitize") != std::string::npos;
#endif
}

int usage() {
  std::cerr << "usage: perfbench --workload exact_sweep|hybrid_sa|"
               "served_mix --seed N --seconds S --trace 0|1\n"
               "                        --pins PATH --work-dir DIR "
               "--dpserved PATH [--inject-mismatch]\n"
               "       perfbench --pin OUT\n";
  return 2;
}

}  // namespace

bool write_pins(const std::string& path) {
  obs::JsonValue pops = obs::JsonValue::object();
  analysis::AnalysisOptions a;
  a.jobs = 4;
  for (const char* name : {"c95", "alu181", "c432", "c1355", "c1908"}) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    pops[std::string(name) + ".sa"] =
        Pins::population_json(analysis::analyze_stuck_at(c, a).faults);
    std::cerr << "pinned " << name << ".sa\n";
  }
  // The bridge samples exact_sweep draws at the default seed, recorded
  // through analyze_bridging; the benchmark's own chunked engine path
  // (make_bridge_record) must reproduce them exactly.
  const netlist::Circuit c432 = netlist::make_benchmark("c432");
  const netlist::Structure s432(c432);
  const netlist::LayoutEstimate layout(c432, s432);
  a.sampling.seed = derive_seed(kDefaultSeed, "bridge");
  core::ParallelEngine::Options popt;
  popt.jobs = 4;
  core::ParallelEngine engine(c432, s432, popt);
  for (const auto type : {fault::BridgeType::And, fault::BridgeType::Or}) {
    const std::string name =
        type == fault::BridgeType::And ? "c432.bf.and" : "c432.bf.or";
    const auto profile = analysis::analyze_bridging(c432, type, a);
    const auto faults = fault::nfbf_fault_set(c432, s432, layout, type, a.sampling);
    std::vector<analysis::FaultRecord> mine(faults.size());
    engine.analyze_each(faults, [&](std::size_t i, core::FaultAnalysis&& fa) {
      mine[i] = make_bridge_record(s432, faults[i], fa);
    });
    if (mine.size() != profile.faults.size()) return false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (record_hash(mine[i]) != record_hash(profile.faults[i])) {
        std::cerr << name << ": engine record " << i
                  << " differs from analyze_bridging\n";
        return false;
      }
    }
    pops[name] = Pins::population_json(profile.faults);
    std::cerr << "pinned " << name << "\n";
  }
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "perfbench.digests.v1";
  doc["seed"] = static_cast<long long>(kDefaultSeed);
  doc["record_hash"] =
      "low 32 bits of FNV-1a-64 over every FaultRecord field, doubles by bit "
      "pattern; digest = FNV-1a-64 over the full 64-bit record hashes";
  doc["populations"] = std::move(pops);
  return obs::write_json_file_atomic(path, doc);
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Options o;
  std::string pin_out;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) std::exit(usage());
      return args[++i];
    };
    try {
      if (args[i] == "--workload") o.workload = value();
      else if (args[i] == "--seed") o.seed = std::stoull(value());
      else if (args[i] == "--seconds") o.seconds = std::stod(value());
      else if (args[i] == "--trace") o.trace = value() == "1";
      else if (args[i] == "--pins") o.pins_path = value();
      else if (args[i] == "--work-dir") o.work_dir = value();
      else if (args[i] == "--dpserved") o.dpserved_path = value();
      else if (args[i] == "--inject-mismatch") o.inject_mismatch = true;
      else if (args[i] == "--pin") pin_out = value();
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (sanitized()) {
    std::cerr << "perfbench: refusing to measure a sanitizer build ("
              << PB_BUILD_FLAGS << ")\n";
    return 2;
  }
  if (!pin_out.empty()) return write_pins(pin_out) ? 0 : 1;
  if (!kAll.count(o.workload) || o.seconds <= 0) return usage();

  Result r;
  try {
    if (o.workload == "exact_sweep") r = run_exact_sweep(o);
    else if (o.workload == "hybrid_sa") r = run_hybrid_sa(o);
    else r = run_served_mix(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  if (!complete(r, o.workload, o.trace)) return 3;
  r.info["build"] = build_info();
  r.info["seed"] = static_cast<long long>(o.seed);
  r.info["traced"] = o.trace;
  std::cout << r.to_json().dump(0) << std::endl;
  return 0;
}
