// Syndrome testing (Savir, the paper's ref [11]): exact faulty syndromes
// from the symbolic engine, and their relationship to detectability.
#include <gtest/gtest.h>

#include "dp/symbolic_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "verify/reference_sim.hpp"

namespace dp::core {
namespace {

using fault::StuckAtFault;
using netlist::Circuit;

struct Rig {
  explicit Rig(Circuit&& c)
      : circuit(std::move(c)),
        structure(circuit),
        manager(0),
        good(manager, circuit),
        sym(good, structure) {}
  Circuit circuit;
  netlist::Structure structure;
  bdd::Manager manager;
  GoodFunctions good;
  SymbolicFaultSimulator sym;
};

TEST(SyndromeTestTest, SyndromeDetectableImpliesDetectable) {
  Rig rig(netlist::make_alu181());
  std::size_t syndrome_detectable = 0, detectable = 0;
  for (const StuckAtFault& f : fault::checkpoint_faults(rig.circuit)) {
    const auto st = rig.sym.syndrome_test(f);
    const auto an = rig.sym.analyze(f);
    if (st.syndrome_detectable) {
      ++syndrome_detectable;
      EXPECT_TRUE(an.detectable) << describe(f, rig.circuit);
    }
    if (an.detectable) ++detectable;
    // Per-PO: a changed syndrome requires an observable difference there.
    for (std::size_t p = 0; p < st.good_syndromes.size(); ++p) {
      if (st.good_syndromes[p] != st.faulty_syndromes[p]) {
        EXPECT_TRUE(an.po_observable[p]);
      }
    }
  }
  // Syndrome testing catches many -- typically most -- but not all faults.
  EXPECT_GT(syndrome_detectable, detectable / 2);
  EXPECT_LE(syndrome_detectable, detectable);
}

TEST(SyndromeTestTest, UndetectableFaultKeepsAllSyndromes) {
  Circuit c("redundant");
  auto a = c.add_input("a");
  auto na = c.add_gate(netlist::GateType::Not, {a}, "na");
  auto y = c.add_gate(netlist::GateType::Or, {a, na}, "y");
  c.mark_output(y);
  c.finalize();
  Rig rig(std::move(c));
  const auto st = rig.sym.syndrome_test(
      StuckAtFault{*rig.circuit.find_net("y"), std::nullopt, true});
  EXPECT_FALSE(st.syndrome_detectable);
  EXPECT_EQ(st.good_syndromes, st.faulty_syndromes);
}

TEST(SyndromeTestTest, BalancedFlipEscapesSyndromeTesting) {
  // An XOR output under an input stem fault flips EVERY vector's response
  // pair-wise: as many 0->1 as 1->0 transitions, so the syndrome is
  // unchanged although the fault is trivially detectable. The classic
  // blind spot of count-based testing.
  Circuit c("xorblind");
  auto a = c.add_input("a");
  auto b = c.add_input("b");
  auto y = c.add_gate(netlist::GateType::Xor, {a, b}, "y");
  c.mark_output(y);
  c.finalize();
  Rig rig(std::move(c));
  const StuckAtFault f{*rig.circuit.find_net("a"), std::nullopt, false};
  EXPECT_TRUE(rig.sym.analyze(f).detectable);
  const auto st = rig.sym.syndrome_test(f);
  EXPECT_FALSE(st.syndrome_detectable);
  EXPECT_DOUBLE_EQ(st.good_syndromes[0], 0.5);
  EXPECT_DOUBLE_EQ(st.faulty_syndromes[0], 0.5);
}

TEST(SyndromeTestTest, FaultySyndromesMatchExhaustiveSimulation) {
  Rig rig(netlist::make_c95_analog());
  const verify::ReferenceSimulator ref(rig.circuit);
  const auto faults = fault::collapse_checkpoint_faults(rig.circuit);
  const std::size_t n = rig.circuit.num_inputs();
  std::size_t checked = 0;
  for (const StuckAtFault& f : faults) {
    const auto st = rig.sym.syndrome_test(f);
    // Brute-force the faulty syndrome of each PO.
    std::vector<std::size_t> ones(rig.circuit.num_outputs(), 0);
    for (std::uint64_t v = 0; v < (1ull << n); ++v) {
      std::vector<bool> point(n);
      for (std::size_t i = 0; i < n; ++i) point[i] = (v >> i) & 1;
      const std::vector<bool> out = ref.outputs(point, f);
      for (std::size_t p = 0; p < out.size(); ++p) ones[p] += out[p];
    }
    for (std::size_t p = 0; p < rig.circuit.num_outputs(); ++p) {
      ASSERT_DOUBLE_EQ(st.faulty_syndromes[p],
                       static_cast<double>(ones[p]) /
                           static_cast<double>(1ull << n))
          << describe(f, rig.circuit) << " PO " << p;
    }
    if (++checked == 30) break;
  }
}

}  // namespace
}  // namespace dp::core
