// The central cross-validation: Difference Propagation must agree exactly
// with exhaustive fault simulation -- same complete test sets, same
// detectabilities, same syndromes -- for every checkpoint fault and for
// bridging faults, across the small benchmark circuits and random DAGs.
#include <gtest/gtest.h>

#include <string>

#include "dp/engine.hpp"
#include "netlist/generators.hpp"
#include "verify/reference_sim.hpp"

namespace dp::core {
namespace {

using fault::BridgeType;
using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::NetId;
using netlist::Structure;

/// Everything needed to run DP and the exhaustive baseline side by side.
struct Rig {
  explicit Rig(Circuit&& c)
      : circuit(std::move(c)),
        structure(circuit),
        manager(0),
        good(manager, circuit),
        dp(good, structure),
        ref(circuit) {}

  Circuit circuit;
  Structure structure;
  bdd::Manager manager;
  GoodFunctions good;
  DifferencePropagator dp;
  verify::ReferenceSimulator ref;

  /// Compares DP's symbolic test set with the reference's bitmap.
  template <typename Fault>
  void check_fault(const Fault& f, const std::string& what) {
    const FaultAnalysis a = dp.analyze(f);
    const verify::TestSet tests = ref.test_set(f);
    const double sim_det = tests.detectability();
    ASSERT_DOUBLE_EQ(a.detectability, sim_det) << what;
    ASSERT_EQ(a.detectable, sim_det > 0.0) << what;

    const std::size_t n = circuit.num_inputs();
    for (std::uint64_t v = 0; v < tests.size; ++v) {
      std::vector<bool> point(n);
      for (std::size_t i = 0; i < n; ++i) point[i] = (v >> i) & 1;
      ASSERT_EQ(a.test_set.eval(point), tests.contains(v))
          << what << " at vector " << v;
    }

    // Invariants: detectability never exceeds the excitation bound, and
    // adherence is the exact ratio (paper §4.1 eq. 3).
    ASSERT_LE(a.detectability, a.upper_bound + 1e-12) << what;
    if (a.upper_bound > 0) {
      ASSERT_NEAR(a.adherence, a.detectability / a.upper_bound, 1e-12);
    }
    // Observability never exceeds structural PO reach.
    ASSERT_LE(a.pos_observable, a.pos_fed) << what;
  }
};

class DpVsExhaustiveSaTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DpVsExhaustiveSaTest, AllCheckpointFaultsAgree) {
  Rig rig(netlist::make_benchmark(GetParam()));
  for (const StuckAtFault& f : fault::checkpoint_faults(rig.circuit)) {
    rig.check_fault(f, describe(f, rig.circuit));
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, DpVsExhaustiveSaTest,
                         ::testing::Values("c17", "fulladder", "c95",
                                           "alu181"));

class DpVsExhaustiveRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpVsExhaustiveRandomTest, RandomDagsAgreeOnStuckAt) {
  Rig rig(netlist::make_random_circuit(GetParam(), 9, 40, 5));
  for (const StuckAtFault& f :
       fault::collapse_checkpoint_faults(rig.circuit)) {
    rig.check_fault(f, describe(f, rig.circuit));
  }
}

TEST_P(DpVsExhaustiveRandomTest, RandomDagsAgreeOnBridging) {
  Rig rig(netlist::make_random_circuit(GetParam() ^ 0x5555, 8, 30, 4));
  for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
    const auto faults =
        fault::enumerate_nfbfs(rig.circuit, rig.structure, type);
    // Cap per circuit to keep the sweep fast; coverage comes from seeds.
    std::size_t checked = 0;
    for (const BridgingFault& f : faults) {
      rig.check_fault(f, describe(f, rig.circuit));
      if (++checked == 60) break;
    }
    EXPECT_GT(checked, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsExhaustiveRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DpEngineTest, SyndromesMatchExhaustiveSimulation) {
  Rig rig(netlist::make_c95_analog());
  for (NetId id = 0; id < rig.circuit.num_nets(); ++id) {
    EXPECT_DOUBLE_EQ(rig.good.syndrome(id), rig.ref.syndrome(id))
        << rig.circuit.net_name(id);
  }
}

TEST(DpEngineTest, BridgingFaultsAgreeOnC17AndC95) {
  for (const char* name : {"c17", "c95"}) {
    Rig rig(netlist::make_benchmark(name));
    for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
      const auto faults =
          fault::enumerate_nfbfs(rig.circuit, rig.structure, type);
      std::size_t checked = 0;
      for (const BridgingFault& f : faults) {
        rig.check_fault(f, std::string(name) + " " + describe(f, rig.circuit));
        if (++checked == 80) break;
      }
    }
  }
}

TEST(DpEngineTest, PoFaultsHaveAdherenceOne) {
  // "PO faults always have adherence values of one" (§4.1): a stem fault
  // on a PO is excited iff it is detected there.
  Rig rig(netlist::make_c95_analog());
  for (NetId po : rig.circuit.outputs()) {
    for (bool v : {false, true}) {
      const FaultAnalysis a = rig.dp.analyze(StuckAtFault{po, std::nullopt, v});
      if (a.detectable) {
        EXPECT_GE(a.adherence, 1.0 - 1e-12)
            << rig.circuit.net_name(po) << " sa" << v;
      }
    }
  }
}

TEST(DpEngineTest, UndetectableStuckAtOnRedundantLine) {
  // y = a | !a is constantly 1: sa1 on y is undetectable, sa0 detectable
  // everywhere.
  Circuit c("redundant");
  NetId a = c.add_input("a");
  NetId na = c.add_gate(netlist::GateType::Not, {a}, "na");
  NetId y = c.add_gate(netlist::GateType::Or, {a, na}, "y");
  c.mark_output(y);
  c.finalize();
  Rig rig(std::move(c));
  const NetId yy = *rig.circuit.find_net("y");
  const FaultAnalysis sa1 = rig.dp.analyze(StuckAtFault{yy, std::nullopt, true});
  EXPECT_FALSE(sa1.detectable);
  EXPECT_DOUBLE_EQ(sa1.detectability, 0.0);
  EXPECT_DOUBLE_EQ(sa1.upper_bound, 0.0);  // syndrome is 1 -> 1 - 1 = 0
  const FaultAnalysis sa0 = rig.dp.analyze(StuckAtFault{yy, std::nullopt, false});
  EXPECT_DOUBLE_EQ(sa0.detectability, 1.0);
  EXPECT_DOUBLE_EQ(sa0.adherence, 1.0);
}

TEST(DpEngineTest, BranchFaultDiffersFromStemFault) {
  // In C17 net 11 branches to gates 16 and 19; the branch fault must be
  // observable on strictly fewer POs than the stem fault.
  Rig rig(netlist::make_c17());
  const NetId n11 = *rig.circuit.find_net("11");
  const NetId n16 = *rig.circuit.find_net("16");
  const FaultAnalysis stem =
      rig.dp.analyze(StuckAtFault{n11, std::nullopt, true});
  const FaultAnalysis branch = rig.dp.analyze(
      StuckAtFault{n11, netlist::PinRef{n16, 1}, true});
  EXPECT_NE(stem.test_set, branch.test_set);
  EXPECT_GE(stem.pos_fed, branch.pos_fed);
  // Branch into gate 16 can reach both POs (16 feeds 22 and 23).
  EXPECT_EQ(branch.pos_fed, 2u);
}

TEST(DpEngineTest, UnexcitableBranchFaultSkipsWholeCone) {
  // g = a & !a is constantly 0, so a sa0 branch fault on g's line into h
  // has a zero difference seed: nothing differs anywhere, and selective
  // trace must skip EVERY gate rather than dragging the downstream cone
  // through gate_difference with a zero seed.
  Circuit c("unexcitable");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId na = c.add_gate(netlist::GateType::Not, {a}, "na");
  NetId g = c.add_gate(netlist::GateType::And, {a, na}, "g");
  NetId h = c.add_gate(netlist::GateType::Or, {g, b}, "h");
  NetId k = c.add_gate(netlist::GateType::And, {g, b}, "k");
  c.mark_output(h);
  c.mark_output(k);
  c.finalize();
  Rig rig(std::move(c));

  const FaultAnalysis a1 = rig.dp.analyze(
      StuckAtFault{g, netlist::PinRef{h, 0}, false});
  EXPECT_FALSE(a1.detectable);
  EXPECT_DOUBLE_EQ(a1.upper_bound, 0.0);
  EXPECT_EQ(a1.stats.gates_evaluated, 0u);
  EXPECT_EQ(a1.stats.gates_skipped, rig.circuit.num_gates());
}

TEST(DpEngineTest, BranchFaultPosFedUsesTheStem) {
  // C17's net 11 branches into gates 16 and 19. Gate 19 feeds only PO 23,
  // but the checkpoint line is the BRANCH OF NET 11, whose stem reaches
  // both POs -- pos_fed must count from the stem, not the fed gate.
  Rig rig(netlist::make_c17());
  const NetId n11 = *rig.circuit.find_net("11");
  const NetId n19 = *rig.circuit.find_net("19");
  std::uint32_t pin = 0;
  const auto& fi = rig.circuit.fanins(n19);
  while (pin < fi.size() && fi[pin] != n11) ++pin;
  ASSERT_LT(pin, fi.size()) << "net 11 must feed gate 19";

  const FaultAnalysis branch = rig.dp.analyze(
      StuckAtFault{n11, netlist::PinRef{n19, pin}, true});
  EXPECT_EQ(branch.pos_fed, 2u);  // the stem's reach, not gate 19's
  // The difference itself can only travel through gate 19 -> PO 23.
  EXPECT_LE(branch.pos_observable, 1u);
  ASSERT_EQ(branch.po_observable.size(), 2u);
  EXPECT_FALSE(branch.po_observable[0]);  // PO 22 is not in gate 19's cone
}

TEST(DpEngineTest, BridgeBetweenIdenticalFunctionsIsUndetectable) {
  // Two structurally distinct nets computing the same function: bridging
  // them never disturbs anything.
  Circuit c("same");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId g1 = c.add_gate(netlist::GateType::And, {a, b}, "g1");
  NetId g2 = c.add_gate(netlist::GateType::And, {b, a}, "g2");
  NetId o1 = c.add_gate(netlist::GateType::Not, {g1}, "o1");
  NetId o2 = c.add_gate(netlist::GateType::Not, {g2}, "o2");
  c.mark_output(o1);
  c.mark_output(o2);
  c.finalize();
  Rig rig(std::move(c));
  const BridgingFault f{*rig.circuit.find_net("g1"),
                        *rig.circuit.find_net("g2"), BridgeType::And};
  const FaultAnalysis an = rig.dp.analyze(f);
  EXPECT_FALSE(an.detectable);
  EXPECT_DOUBLE_EQ(an.upper_bound, 0.0);  // wires never disagree
}

TEST(DpEngineTest, BridgeStuckAtClassification) {
  // AND bridge between a and !a wires both to constant 0: a double
  // stuck-at by the paper's "zero variables in the fault function" test.
  Circuit c("bsa");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId na = c.add_gate(netlist::GateType::Not, {a}, "na");
  NetId g = c.add_gate(netlist::GateType::And, {na, b}, "g");
  NetId h = c.add_gate(netlist::GateType::Or, {a, b}, "h");
  c.mark_output(g);
  c.mark_output(h);
  c.finalize();
  Rig rig(std::move(c));
  const NetId aa = *rig.circuit.find_net("a");
  const NetId nna = *rig.circuit.find_net("na");
  const FaultAnalysis and_bridge =
      rig.dp.analyze(BridgingFault{aa, nna, BridgeType::And});
  EXPECT_TRUE(and_bridge.bridge_stuck_at);
  const FaultAnalysis or_bridge =
      rig.dp.analyze(BridgingFault{aa, nna, BridgeType::Or});
  EXPECT_TRUE(or_bridge.bridge_stuck_at);  // wired-OR of a, !a is constant 1
  // A generic bridge is NOT stuck-at-like.
  const NetId bb = *rig.circuit.find_net("b");
  const FaultAnalysis generic =
      rig.dp.analyze(BridgingFault{aa, bb, BridgeType::And});
  EXPECT_FALSE(generic.bridge_stuck_at);
}

TEST(DpEngineTest, SelectiveTraceSkipsCleanGates) {
  Rig rig(netlist::make_c95_analog());
  // A fault near the POs leaves most of the multiplier untouched.
  const NetId po = rig.circuit.outputs()[7];
  const FaultAnalysis a =
      rig.dp.analyze(StuckAtFault{po, std::nullopt, true});
  EXPECT_GT(a.stats.gates_skipped, 0u);
  EXPECT_LT(a.stats.gates_evaluated,
            rig.circuit.num_gates());

  // Without selective trace every gate is evaluated.
  DifferencePropagator full(rig.good, rig.structure, {/*selective_trace=*/false});
  const FaultAnalysis b = full.analyze(StuckAtFault{po, std::nullopt, true});
  EXPECT_EQ(b.stats.gates_skipped, 0u);
  EXPECT_EQ(b.stats.gates_evaluated, rig.circuit.num_gates());
  EXPECT_EQ(b.test_set, a.test_set);  // identical result either way
}

TEST(DpEngineTest, PoObservabilityMatchesDiffSupport) {
  Rig rig(netlist::make_c17());
  const NetId n10 = *rig.circuit.find_net("10");
  const FaultAnalysis a =
      rig.dp.analyze(StuckAtFault{n10, std::nullopt, true});
  // Net 10 feeds only PO 22 (index 0).
  ASSERT_EQ(a.po_observable.size(), 2u);
  EXPECT_TRUE(a.po_observable[0]);
  EXPECT_FALSE(a.po_observable[1]);
  EXPECT_EQ(a.pos_fed, 1u);
  EXPECT_EQ(a.pos_observable, 1u);
}

TEST(DpEngineTest, XorExpansionPreservesFaultFreeFunctionButNotProfile) {
  // c499_analog vs c1355_analog: POs compute identical functions...
  bdd::Manager m1(0), m2(0);
  Circuit c499 = netlist::make_c499_analog();
  Circuit c1355 = netlist::make_c1355_analog();
  GoodFunctions g499(m1, c499);
  GoodFunctions g1355(m2, c1355);
  for (std::size_t i = 0; i < c499.num_outputs(); ++i) {
    // Same manager-independent check: equal satcounts and equal evaluation
    // on probe vectors (cheap proxy for function equality across managers).
    EXPECT_DOUBLE_EQ(g499.at(c499.outputs()[i]).sat_count(41),
                     g1355.at(c1355.outputs()[i]).sat_count(41))
        << "PO " << i;
  }
  // ...while the netlist sizes (and hence fault populations) differ.
  EXPECT_GT(c1355.num_gates(), c499.num_gates());
}

}  // namespace
}  // namespace dp::core
