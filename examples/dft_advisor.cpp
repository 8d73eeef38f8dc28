// Design-for-testability advisor: applies the paper's testable-design
// conclusions. It locates the circuit-center nets the bathtub curve says
// are hardest, then compares two equal-cost DFT edits:
//   * observation points (extra POs on those nets), and
//   * control points (an extra PI XOR-ed into each net),
// re-running the exact analysis on each modified design. The paper's
// claim: "detectability is best increased through enhanced observability".
//
//   $ ./dft_advisor                       # c1355, 4 test points
//   $ ./dft_advisor c432 --test-points 6  # or a .bench path
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/profiles.hpp"
#include "analysis/report.hpp"
#include "cli_common.hpp"
#include "netlist/structure.hpp"
#include "netlist/testpoints.hpp"

using namespace dp;

namespace {

namespace ops = analysis::ops;

/// The flags, as option rows (analysis/ops.hpp).
const ops::Row kRows[] = {
    {"test_points", ops::Kind::Count, 4},
};
const ops::Schema kFlags{"dft_advisor", kRows};

/// Center nets: maximize min(level from PI, levels to PO); tie-break by
/// fanout (a well-connected center net influences more faults).
std::vector<netlist::NetId> pick_center_nets(const netlist::Circuit& c,
                                             const netlist::Structure& s,
                                             std::size_t k) {
  std::vector<netlist::NetId> nets;
  for (netlist::NetId id = 0; id < c.num_nets(); ++id) {
    if (c.type(id) == netlist::GateType::Input) continue;
    if (netlist::is_constant(c.type(id))) continue;
    if (s.max_levels_to_po(id) < 0) continue;
    nets.push_back(id);
  }
  std::sort(nets.begin(), nets.end(), [&](netlist::NetId a, netlist::NetId b) {
    const int ca = std::min(s.level_from_pi(a), s.max_levels_to_po(a));
    const int cb = std::min(s.level_from_pi(b), s.max_levels_to_po(b));
    if (ca != cb) return ca > cb;
    return c.fanout_count(a) > c.fanout_count(b);
  });
  nets.resize(std::min(k, nets.size()));
  return nets;
}

void report_row(analysis::TextTable& t, const std::string& label,
                const analysis::CircuitProfile& p) {
  t.add_row({label, std::to_string(p.faults.size()),
             std::to_string(p.faults.size() - p.detectable_count()),
             analysis::TextTable::num(p.mean_detectability_detectable()),
             analysis::TextTable::num(p.mean_detectability_per_po(), 5)});
}

}  // namespace

// The function-try-block turns load failures (an unknown circuit, a
// missing .bench file) into a message and exit 1.
int main(int argc, char** argv) try {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::handle_version_flag(args, "dft_advisor");
  std::vector<std::string> pos;
  const ops::Options o = cli::parse_options(
      kFlags, args, &pos, 1,
      "usage: dft_advisor [circuit] [options]\n" + ops::usage(kFlags));
  const std::size_t k = o.count("test_points");

  netlist::Circuit base = cli::load_circuit(pos.empty() ? "c1355" : pos[0]);
  netlist::Structure structure(base);
  const auto taps = pick_center_nets(base, structure, k);

  std::cout << "DFT advisor for " << base.name() << " -- " << taps.size()
            << " test points at the circuit center:\n";
  for (netlist::NetId id : taps) {
    std::cout << "  " << base.net_name(id) << " (from-PI "
              << structure.level_from_pi(id) << ", to-PO "
              << structure.max_levels_to_po(id) << ", fanout "
              << base.fanout_count(id) << ")\n";
  }
  std::cout << "\n";

  const analysis::CircuitProfile p_base = analysis::analyze_stuck_at(base);
  const analysis::CircuitProfile p_obs =
      analysis::analyze_stuck_at(netlist::add_observation_points(base, taps));
  const analysis::CircuitProfile p_ctl =
      analysis::analyze_stuck_at(netlist::add_control_points(base, taps));

  analysis::TextTable t({"design", "faults", "undetectable", "mean det",
                         "mean det/#POs"});
  report_row(t, "baseline", p_base);
  report_row(t, "+" + std::to_string(taps.size()) + " observe points", p_obs);
  report_row(t, "+" + std::to_string(taps.size()) + " control points", p_ctl);
  t.print(std::cout);

  const double gain_obs = p_obs.mean_detectability_detectable() -
                          p_base.mean_detectability_detectable();
  const double gain_ctl = p_ctl.mean_detectability_detectable() -
                          p_base.mean_detectability_detectable();
  std::cout << "\nMean-detectability gain: observation points "
            << analysis::TextTable::num(gain_obs, 5) << ", control points "
            << analysis::TextTable::num(gain_ctl, 5) << "\n";
  std::cout << (gain_obs >= gain_ctl
                    ? "Consistent with the paper: enhance observability first."
                    : "Note: control points won here; the paper expects "
                      "observability to dominate on average.")
            << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "dft_advisor: " << e.what() << "\n";
  return 1;
}
