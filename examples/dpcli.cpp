// dpcli -- command-line front end for the Difference Propagation library.
//
//   dpcli list                          built-in benchmark circuits
//   dpcli info <circuit>                netlist statistics + structure
//   dpcli sa <circuit> [options]        stuck-at testability profile
//                                       (--model hybrid: random-pattern
//                                       prefilter, exact DP on the rest)
//   dpcli bf <circuit> [options]        bridging-fault study (AND + OR)
//   dpcli fault <circuit> <net> <0|1>   analyze one stem stuck-at fault
//   dpcli syndrome <circuit>            per-net syndromes (signal probs)
//   dpcli atpg <circuit>                compact test set + coverage
//   dpcli diagnose <circuit> <net> <0|1>  locate an injected fault via
//                                         the exact fault dictionary
//   dpcli write <circuit>               emit the netlist as .bench text
//   dpcli dot <circuit> <net>           good-function BDD in dot syntax
//   dpcli hash <circuit>                structural content hash (the
//                                       artifact-cache key component);
//                                       `dpcli <circuit> --hash` works too
//
// The options of sa and bf are rows of the served analyze operation
// (analysis/ops.hpp): `--bridge-count 500` is "bridge_count": 500, and
// `dpcli` with no arguments lists them. Every command also accepts
// --metrics-json, --trace-out, --cache-dir and --resume/--no-resume.
//
// <circuit> is a built-in benchmark name or a path to a .bench file.
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnosis.hpp"
#include "analysis/hybrid.hpp"
#include "analysis/ops.hpp"
#include "analysis/profiles.hpp"
#include "analysis/random_pattern.hpp"
#include "analysis/report.hpp"
#include "bdd/dot_export.hpp"
#include "cli_common.hpp"
#include "dp/engine.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"
#include "verify/reference_sim.hpp"

using namespace dp;
namespace ops = analysis::ops;

namespace {

constexpr unsigned kSaModels =
    ops::mask(ops::Model::Sa) | ops::mask(ops::Model::Hybrid);
/// bf runs bf.and then bf.or with the same options; validating against
/// bf.and alone also rejects any --model.
constexpr unsigned kBfModel = ops::mask(ops::Model::BfAnd);

int usage() {
  std::cerr
      << "usage: dpcli <command> [args]\n"
         "  list | info C | sa C [options] | bf C [options]\n"
         "  fault C NET 0|1 | diagnose C NET 0|1 | syndrome C | atpg C\n"
         "  write C | dot C NET | hash C (or: C --hash)\n"
         "  (C = benchmark name or .bench path)\n"
         "  sa options (hybrid: random-pattern prefilter first, exact DP\n"
         "  only on the undetected remainder):\n"
      << ops::usage(ops::schema(ops::Op::Analyze), kSaModels)
      << "  bf options (bf.and, then bf.or):\n"
      << ops::usage(ops::schema(ops::Op::Analyze), kBfModel)
      << "  global: --metrics-json PATH (dp.metrics.v1 document),\n"
         "          --trace-out PATH (dp.trace.v1 spans, one per fault),\n"
         "          --cache-dir PATH (artifact cache), --resume/--no-resume\n";
  return 2;
}

int cmd_list() {
  for (const std::string& name : netlist::benchmark_names()) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    std::cout << name << ": " << c.num_inputs() << " PI, " << c.num_outputs()
              << " PO, " << c.num_gates() << " gates\n";
  }
  return 0;
}

int cmd_info(const netlist::Circuit& c) {
  netlist::Structure st(c);
  std::cout << "circuit " << c.name() << "\n";
  std::cout << "  inputs  : " << c.num_inputs() << "\n";
  std::cout << "  outputs : " << c.num_outputs() << "\n";
  std::cout << "  gates   : " << c.num_gates() << "\n";
  std::cout << "  depth   : " << st.depth() << " levels\n";
  std::size_t fanout_stems = 0, max_fanout = 0;
  for (netlist::NetId id = 0; id < c.num_nets(); ++id) {
    const std::size_t fo = c.fanout_count(id);
    if (fo > 1) ++fanout_stems;
    max_fanout = std::max(max_fanout, fo);
  }
  std::cout << "  fanout stems: " << fanout_stems
            << " (max fanout " << max_fanout << ")\n";
  std::cout << "  checkpoint faults: " << fault::checkpoint_faults(c).size()
            << " (collapsed: " << fault::collapse_checkpoint_faults(c).size()
            << ")\n";
  return 0;
}

int cmd_sa_hybrid(const netlist::Circuit& c, const ops::AnalyzeRequest& req,
                  cli::Telemetry& tel) {
  const analysis::HybridProfile p =
      analysis::analyze_stuck_at_hybrid(c, req.analysis, req.hybrid);
  p.engine_stats.export_metrics(tel.metrics());
  p.export_metrics(tel.metrics());
  std::cout << "hybrid stuck-at analysis of " << c.name() << " ("
            << (req.analysis.collapse ? "collapsed" : "uncollapsed")
            << " checkpoints)\n";
  std::cout << "  faults            : " << p.faults.size() << "\n";
  std::cout << "  prefilter resolved: " << p.prefilter_resolved() << " ("
            << analysis::TextTable::num(p.prefilter_fraction()) << " of all, "
            << p.prefilter_patterns << " random patterns)\n";
  std::cout << "  exact DP remainder: " << p.dp_resolved() << " analyzed, "
            << p.redundant_count() << " undetectable\n";
  std::cout << "  phase seconds     : prefilter "
            << analysis::TextTable::num(p.prefilter_seconds) << ", DP "
            << analysis::TextTable::num(p.dp_seconds) << "\n";
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << p.engine_stats;
  return 0;
}

int cmd_sa(const netlist::Circuit& c, const ops::AnalyzeRequest& req,
           cli::Telemetry& tel) {
  if (req.model == ops::Model::Hybrid) return cmd_sa_hybrid(c, req, tel);
  const analysis::CircuitProfile p =
      analysis::analyze_stuck_at(c, req.analysis);
  p.engine_stats.export_metrics(tel.metrics());
  std::cout << "stuck-at profile of " << c.name() << " ("
            << (req.analysis.collapse ? "collapsed" : "uncollapsed")
            << " checkpoints)\n";
  std::cout << "  faults       : " << p.faults.size() << "\n";
  std::cout << "  undetectable : " << p.faults.size() - p.detectable_count()
            << "\n";
  std::cout << "  mean det     : "
            << analysis::TextTable::num(p.mean_detectability_detectable())
            << "\n";
  std::cout << "  patterns for 95%/99% random coverage: "
            << analysis::patterns_for_coverage(p, 0.95) << " / "
            << analysis::patterns_for_coverage(p, 0.99) << "\n\n";
  analysis::print_histogram(std::cout, p.detectability_histogram(20),
                            "detectability profile", "detection probability");
  std::cout << "\n";
  analysis::print_series(std::cout, p.detectability_by_po_distance(),
                         "bathtub curve", "max levels to PO",
                         "mean detectability");
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << p.engine_stats;
  return 0;
}

/// Enumerates the potentially detectable non-feedback bridging faults,
/// samples them with the paper's distance-weighted policy (§2.2) and
/// reports exact detectabilities and stuck-at equivalence, AND then OR.
int cmd_bf(const netlist::Circuit& c, const ops::AnalyzeRequest& req,
           cli::Telemetry& tel) {
  const netlist::Structure structure(c);
  analysis::TextTable t({"type", "enumerated NFBFs", "analyzed", "detectable",
                         "mean det", "stuck-at-like"});
  std::optional<analysis::Histogram> and_histogram;
  core::ParallelStats last_stats;
  for (fault::BridgeType type :
       {fault::BridgeType::And, fault::BridgeType::Or}) {
    const analysis::CircuitProfile p =
        analysis::analyze_bridging(c, type, req.analysis);
    p.engine_stats.export_metrics(tel.metrics());
    t.add_row({fault::to_string(type),
               std::to_string(
                   fault::enumerate_nfbfs(c, structure, type).size()),
               std::to_string(p.faults.size()),
               std::to_string(p.detectable_count()),
               analysis::TextTable::num(p.mean_detectability_detectable()),
               analysis::TextTable::num(p.bridge_stuck_at_fraction())});
    if (type == fault::BridgeType::And) {
      and_histogram = p.detectability_histogram(20);
    }
    last_stats = p.engine_stats;
  }
  std::cout << "bridging-fault study of " << c.name()
            << " (sampling weight exp(-z/theta), theta = "
            << req.analysis.sampling.theta << ", paper section 2.2)\n";
  t.print(std::cout);
  std::cout << "\n";
  analysis::print_histogram(std::cout, *and_histogram,
                            "AND NFBF detectability profile",
                            "detection probability");
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << last_stats;
  return 0;
}

int cmd_fault(const netlist::Circuit& c, const std::string& net,
              const std::string& value, cli::Telemetry& tel) {
  if (value != "0" && value != "1") {
    std::cerr << "stuck value must be 0 or 1, got '" << value << "'\n";
    return 2;
  }
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  const fault::StuckAtFault f{*id, std::nullopt, value == "1"};
  const core::FaultAnalysis a = dp.analyze(f);
  mgr.export_metrics(tel.metrics());
  std::cout << describe(f, c) << ":\n";
  std::cout << "  detectable     : " << (a.detectable ? "yes" : "no") << "\n";
  std::cout << "  detectability  : " << a.detectability << "\n";
  std::cout << "  syndrome bound : " << a.upper_bound << "\n";
  std::cout << "  adherence      : " << a.adherence << "\n";
  std::cout << "  POs fed/obsrvd : " << a.pos_fed << "/" << a.pos_observable
            << "\n";
  std::cout << "  gates eval/skip: " << a.stats.gates_evaluated << "/"
            << a.stats.gates_skipped << "  (ref underflows "
            << mgr.stats().ref_underflows << ")\n";
  if (a.detectable) {
    const auto cube = a.test_set.sat_one();
    std::cout << "  a test vector  : ";
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      std::cout << (cube[i] < 0 ? 'x' : static_cast<char>('0' + cube[i]));
    }
    std::cout << "  (PIs in order";
    for (std::size_t i = 0; i < std::min<std::size_t>(c.num_inputs(), 8); ++i) {
      std::cout << " " << c.net_name(c.inputs()[i]);
    }
    std::cout << (c.num_inputs() > 8 ? " ...)\n" : ")\n");
  }
  return 0;
}

int cmd_syndrome(const netlist::Circuit& c, cli::Telemetry& tel) {
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  analysis::TextTable t({"net", "type", "syndrome", "bdd nodes"});
  for (netlist::NetId id : c.topo_order()) {
    t.add_row({c.net_name(id), std::string(netlist::to_string(c.type(id))),
               analysis::TextTable::num(good.syndrome(id)),
               std::to_string(good.at(id).dag_size())});
  }
  t.print(std::cout);
  mgr.export_metrics(tel.metrics());
  return 0;
}

/// Greedy compact vector set covering every detectable collapsed fault
/// (shared by the atpg and diagnose subcommands).
std::vector<std::vector<bool>> build_compact_vectors(
    const netlist::Circuit& c, core::DifferencePropagator& dp,
    std::size_t* redundant_out = nullptr) {
  std::vector<std::vector<bool>> vectors;
  std::size_t redundant = 0;
  for (const auto& f : fault::collapse_checkpoint_faults(c)) {
    const core::FaultAnalysis a = dp.analyze(f);
    if (!a.detectable) {
      ++redundant;
      continue;
    }
    bool covered = false;
    for (const auto& v : vectors) {
      if (a.test_set.eval(v)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    const auto cube = a.test_set.sat_one();
    std::vector<bool> v(c.num_inputs(), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = cube[i] == 1;
    vectors.push_back(std::move(v));
  }
  if (redundant_out) *redundant_out = redundant;
  return vectors;
}

int cmd_atpg(const netlist::Circuit& c, cli::Telemetry& tel) {
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  const auto faults = fault::collapse_checkpoint_faults(c);
  std::size_t redundant = 0;
  const auto vectors = build_compact_vectors(c, dp, &redundant);
  mgr.export_metrics(tel.metrics());
  const auto grade = sim::WideFaultSimulator(c).grade_vectors(faults, vectors);
  std::cout << "# " << c.name() << ": " << vectors.size() << " vectors, "
            << grade.detected() << "/" << grade.total << " faults detected, "
            << redundant << " redundant\n";
  for (const auto& v : vectors) {
    for (bool b : v) std::cout << (b ? '1' : '0');
    std::cout << "\n";
  }
  return 0;
}

int cmd_diagnose(const netlist::Circuit& c, const std::string& net,
                 const std::string& value, cli::Telemetry& tel) {
  if (value != "0" && value != "1") {
    std::cerr << "stuck value must be 0 or 1, got '" << value << "'\n";
    return 2;
  }
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }

  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  // Dictionary over a compact ATPG vector set.
  const auto faults = fault::collapse_checkpoint_faults(c);
  const auto vectors = build_compact_vectors(c, dp);
  const analysis::FaultDictionary dict(dp, faults, vectors);

  // "Defective unit": simulate the requested fault and collect its
  // failing-PO signatures on the same vectors.
  const fault::StuckAtFault injected{*id, std::nullopt, value == "1"};
  const verify::ReferenceSimulator unit(c);
  std::vector<analysis::PoSignature> observed;
  for (const auto& v : vectors) {
    const std::vector<bool> good_out = unit.outputs(v);
    const std::vector<bool> bad_out = unit.outputs(v, injected);
    analysis::PoSignature sig = 0;
    for (std::size_t p = 0; p < c.num_outputs(); ++p) {
      if (good_out[p] != bad_out[p]) sig |= analysis::PoSignature{1} << p;
    }
    observed.push_back(sig);
  }

  const auto ranked = dict.diagnose(observed);
  std::cout << "injected " << describe(injected, c) << "; dictionary over "
            << vectors.size() << " vectors, resolution "
            << analysis::TextTable::num(dict.resolution()) << "\n";
  std::cout << "top candidates (distance 0 = perfect match):\n";
  for (std::size_t k = 0; k < std::min<std::size_t>(5, ranked.size()); ++k) {
    const auto& cand = ranked[k];
    std::cout << "  " << describe(dict.fault_at(cand.fault_index), c)
              << "  distance " << cand.distance << "\n";
  }
  mgr.export_metrics(tel.metrics());
  return 0;
}

int cmd_dot(const netlist::Circuit& c, const std::string& net) {
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  write_dot(std::cout, good.at(*id), [&](bdd::Var v) {
    return c.net_name(c.inputs()[v]);
  });
  return 0;
}

int cmd_hash(const netlist::Circuit& c) {
  std::cout << store::circuit_content_hash(c) << "\n";
  return 0;
}

int dispatch(const std::vector<std::string>& args, cli::Telemetry& tel) {
  const std::string& cmd = args[0];
  // `dpcli <circuit> --hash`: flag form of the hash command.
  if (args.size() == 2 && args[1] == "--hash") {
    return cmd_hash(cli::load_circuit(args[0]));
  }
  // Only sa and bf have option rows; any flag given to another command is
  // an unexpected argument, so a typo like `sa c17 --ful` never runs the
  // default configuration.
  const bool analyze = cmd == "sa" || cmd == "bf";
  std::vector<std::string> pos;
  const obs::JsonValue flags = ops::argv_options(
      analyze ? &ops::schema(ops::Op::Analyze) : nullptr, args, &pos);

  std::size_t arity = 2;  // command + circuit
  if (cmd == "list") {
    arity = 1;
  } else if (cmd == "fault" || cmd == "diagnose") {
    arity = 4;
  } else if (cmd == "dot") {
    arity = 3;
  }
  if (pos.size() > arity) {
    throw ops::OptionError(pos[arity],
                           "unexpected argument '" + pos[arity] + "'");
  }
  if (pos.size() < arity) return usage();
  if (cmd == "list") return cmd_list();
  // Checked before the netlist is read: a bad value is a usage error even
  // when the circuit is missing or large.
  std::optional<ops::AnalyzeRequest> req;
  if (analyze) {
    req.emplace(ops::validate(ops::Op::Analyze, flags,
                              cmd == "sa" ? kSaModels : kBfModel));
    // --cache-dir's store (hybrid sweeps do not persist).
    req->analysis.persistence.store = tel.store();
    req->analysis.persistence.resume = tel.resume();
  }
  const netlist::Circuit circuit = cli::load_circuit(pos[1]);

  if (cmd == "hash") return cmd_hash(circuit);
  if (cmd == "info") return cmd_info(circuit);
  if (cmd == "sa") return cmd_sa(circuit, *req, tel);
  if (cmd == "bf") return cmd_bf(circuit, *req, tel);
  if (cmd == "fault") return cmd_fault(circuit, pos[2], pos[3], tel);
  if (cmd == "diagnose") return cmd_diagnose(circuit, pos[2], pos[3], tel);
  if (cmd == "syndrome") return cmd_syndrome(circuit, tel);
  if (cmd == "atpg") return cmd_atpg(circuit, tel);
  if (cmd == "write") {
    netlist::write_bench(std::cout, circuit);
    return 0;
  }
  if (cmd == "dot") return cmd_dot(circuit, pos[2]);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::handle_version_flag(args, "dpcli");
  if (args.empty()) return usage();

  cli::Telemetry tel;
  tel.strip_flags(args);
  if (args.empty()) return usage();

  int rc;
  try {
    rc = dispatch(args, tel);
  } catch (const ops::OptionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "dpcli: " << e.what() << "\n";
    return 1;
  }
  if (!tel.write("dpcli", args[0]) && rc == 0) rc = 1;
  return rc;
}
