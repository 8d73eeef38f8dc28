// dpfuzz -- budgeted differential-fuzzing campaigns over the oracle
// matrix (DP vs exhaustive simulation, serial vs parallel, cold vs warm
// vs resumed cache). Exit 0: campaign clean. Exit 1: discrepancies found
// (reproducers written), self-test failure, or a failed report write.
//
//   dpfuzz [--seed N] [--cases N] [--max-gates N] [--max-inputs N]
//          [--jobs N] [--shapes a,b,...] [--no-bridging] [--no-parallel]
//          [--no-shared-forest] [--no-store] [--no-hybrid] [--no-ndetect]
//          [--no-shrink] [--scratch-dir PATH] [--repro-dir PATH]
//          [--metrics-json PATH] [--max-failures N] [--self-test] [--quiet]
//
// --no-shared-forest is the escape hatch for the parallel arm: the
// engine falls back to per-worker good-function builds and the
// sharing-mode A/B comparison is skipped.
//
// --metrics-json writes the dp.fuzzreport.v1 document (validated by
// bench/validate_metrics alongside the dp.metrics.v1 bench documents).
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "verify/fuzzer.hpp"

namespace {

namespace ops = dp::analysis::ops;

/// The flags, as option rows (analysis/ops.hpp); defaults come from
/// CampaignConfig. The boolean rows default on and are spelled --no-KEY.
const dp::verify::CampaignConfig kDefaults;
const ops::Row kRows[] = {
    {"seed", ops::Kind::Count, double(kDefaults.cases.seed)},
    {"cases", ops::Kind::Count, double(kDefaults.num_cases)},
    {"max_gates", ops::Kind::Count, double(kDefaults.cases.max_gates)},
    {"max_inputs", ops::Kind::Count, double(kDefaults.cases.max_inputs)},
    {"jobs", ops::Kind::Count, double(kDefaults.oracle.jobs)},
    {.key = "shapes", .kind = ops::Kind::Text},
    {"bridging", ops::Kind::Bool, 1},
    {"parallel", ops::Kind::Bool, 1},
    {"shared_forest", ops::Kind::Bool, 1},
    {"store", ops::Kind::Bool, 1},
    {"hybrid", ops::Kind::Bool, 1},
    {"ndetect", ops::Kind::Bool, 1},
    {"shrink", ops::Kind::Bool, 1},
    {.key = "scratch_dir", .kind = ops::Kind::Text},
    {.key = "repro_dir", .kind = ops::Kind::Text},
    {.key = "metrics_json", .kind = ops::Kind::Text},
    {"max_failures", ops::Kind::Count, double(kDefaults.max_failures)},
    {"self_test", ops::Kind::Bool, 0},
    {"quiet", ops::Kind::Bool, 0},
};
const ops::Schema kFlags{"dpfuzz", kRows};

std::string usage() {
  return "usage: dpfuzz [options]\n" + ops::usage(kFlags) +
         "  shapes: mixed fanout xor reconvergent chain (default: all)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  dp::cli::handle_version_flag(args, "dpfuzz");
  namespace fs = std::filesystem;

  std::vector<std::string> pos;
  const ops::Options o = dp::cli::parse_options(kFlags, args, &pos, 0, usage());
  dp::verify::CampaignConfig config;
  config.cases.seed = o.count("seed");
  config.num_cases = o.count("cases");
  config.cases.max_gates = static_cast<int>(o.count("max_gates"));
  config.cases.max_inputs = static_cast<int>(o.count("max_inputs"));
  config.oracle.jobs = o.count("jobs");
  std::stringstream shapes(o.text("shapes"));
  for (std::string token; std::getline(shapes, token, ',');) {
    const auto shape = dp::netlist::circuit_shape_from_string(token);
    if (!shape) {
      std::cerr << "error: unknown shape '" << token << "'\n" << usage();
      return 2;
    }
    config.cases.shapes.push_back(*shape);
  }
  config.cases.include_bridging = o.flag("bridging");
  config.oracle.check_parallel = o.flag("parallel");
  config.oracle.shared_forest = o.flag("shared_forest");
  config.oracle.check_shared_forest = o.flag("shared_forest");
  config.oracle.check_store = o.flag("store");
  config.oracle.check_hybrid = o.flag("hybrid");
  config.oracle.check_ndetect = o.flag("ndetect");
  config.shrink = o.flag("shrink");
  std::string scratch_dir = o.text("scratch_dir");
  config.repro_dir = o.text("repro_dir");
  const std::string& metrics_path = o.text("metrics_json");
  config.max_failures = o.count("max_failures");
  const bool self_test = o.flag("self_test");
  config.progress = o.flag("quiet") ? nullptr : &std::cout;
  if (config.cases.max_inputs < config.cases.min_inputs ||
      config.cases.max_gates < config.cases.min_gates) {
    std::cerr << "error: --max-inputs >= " << config.cases.min_inputs
              << " and --max-gates >= " << config.cases.min_gates
              << " required\n";
    return 2;
  }

  // The store arm needs a scratch directory; default to a per-process
  // temp dir (concurrent ctest invocations must not collide) and remove
  // it on the way out unless the user pointed us somewhere.
  bool own_scratch = false;
  if (config.oracle.check_store && scratch_dir.empty()) {
    std::ostringstream os;
    os << fs::temp_directory_path().string() << "/dpfuzz_scratch_"
       << ::getpid();
    scratch_dir = os.str();
    own_scratch = true;
  }
  config.oracle.scratch_dir = scratch_dir;

  int exit_code = 0;
  if (self_test) {
    dp::verify::CampaignConfig st = config;
    st.num_cases = std::min<std::size_t>(st.num_cases, 4);
    if (!dp::verify::run_self_test(st, std::cout)) exit_code = 1;
  }

  dp::verify::CampaignResult result;
  if (exit_code == 0) {
    result = dp::verify::run_campaign(config);
    std::cout << "[dpfuzz] " << result.cases_run << "/" << result.num_cases
              << " cases, " << result.faults_checked << " faults, "
              << result.vectors_checked << " vectors checked, "
              << result.discrepancy_count << " discrepancies ("
              << result.wall_seconds << " s, jobs " << result.jobs
              << ", parallel " << (result.checked_parallel ? "on" : "off")
              << ", store " << (result.checked_store ? "on" : "off")
              << ", hybrid " << (result.checked_hybrid ? "on" : "off")
              << ", ndetect " << (result.checked_ndetect ? "on" : "off")
              << ")\n";
    for (const dp::verify::CaseFailure& f : result.failures) {
      std::cout << "[dpfuzz] FAILURE case " << f.case_index << " seed "
                << std::hex << f.case_seed << std::dec << " shape "
                << f.shape << ": " << f.discrepancies.size()
                << " discrepancies, shrunk to " << f.shrunk_gates
                << " gates";
      if (!f.repro_bench_path.empty()) {
        std::cout << " (repro: " << f.repro_bench_path << ")";
      }
      std::cout << "\n";
      for (const dp::verify::Discrepancy& d : f.discrepancies) {
        std::cout << "[dpfuzz]   " << d.oracle << " @ " << d.subject << ": "
                  << d.detail << "\n";
      }
    }
    if (!result.ok()) exit_code = 1;

    if (!metrics_path.empty()) {
      std::string error;
      if (!dp::verify::write_report(metrics_path, result, &error)) {
        std::cerr << "[dpfuzz] FAILED to write " << metrics_path << ": "
                  << error << "\n";
        exit_code = 1;
      } else {
        std::cout << "[metrics] wrote " << metrics_path << "\n";
      }
    }
  }

  if (own_scratch) {
    std::error_code ec;
    fs::remove_all(scratch_dir, ec);
  }
  return exit_code;
}
