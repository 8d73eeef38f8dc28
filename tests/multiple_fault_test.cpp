// Multiple stuck-at faults: generation, engine semantics, and the central
// cross-validation against exhaustive simulation.
#include <gtest/gtest.h>

#include "dp/engine.hpp"
#include "fault/multiple.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "verify/reference_sim.hpp"

namespace dp {
namespace {

using fault::MultipleStuckAtFault;
using fault::StuckAtFault;
using netlist::Circuit;

TEST(MultipleFaultModelTest, SamplerProducesDistinctWellFormedFaults) {
  const Circuit c = netlist::make_c95_analog();
  const auto faults = fault::sample_multiple_faults(c, 2, 100, 7);
  EXPECT_EQ(faults.size(), 100u);
  for (const auto& mf : faults) {
    ASSERT_EQ(mf.components.size(), 2u);
    EXPECT_FALSE(fault::same_line(mf.components[0], mf.components[1]));
  }
  // Deterministic in the seed.
  EXPECT_EQ(fault::sample_multiple_faults(c, 2, 100, 7), faults);
  EXPECT_NE(fault::sample_multiple_faults(c, 2, 100, 8), faults);
  // Higher multiplicities work too.
  for (const auto& mf : fault::sample_multiple_faults(c, 4, 20, 9)) {
    EXPECT_EQ(mf.components.size(), 4u);
  }
  EXPECT_THROW(fault::sample_multiple_faults(c, 1, 5, 1),
               netlist::NetlistError);
}

TEST(MultipleFaultModelTest, DescribeListsAllComponents) {
  const Circuit c = netlist::make_c17();
  const auto faults = fault::sample_multiple_faults(c, 3, 1, 2);
  ASSERT_EQ(faults.size(), 1u);
  const std::string d = describe(faults[0], c);
  EXPECT_EQ(std::count(d.begin(), d.end(), ','), 2);
  EXPECT_NE(d.find("sa"), std::string::npos);
}

class MultipleFaultDpTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MultipleFaultDpTest, DpMatchesExhaustiveSimulation) {
  const Circuit c = netlist::make_benchmark(GetParam());
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  const verify::ReferenceSimulator ref(c);

  for (std::size_t multiplicity : {2u, 3u}) {
    const auto faults =
        fault::sample_multiple_faults(c, multiplicity, 60, 1990);
    for (const auto& mf : faults) {
      const core::FaultAnalysis a = dp.analyze(mf);
      const double sim_det = ref.test_set(mf).detectability();
      ASSERT_DOUBLE_EQ(a.detectability, sim_det) << describe(mf, c);
      ASSERT_LE(a.detectability, a.upper_bound + 1e-12) << describe(mf, c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, MultipleFaultDpTest,
                         ::testing::Values("c17", "fulladder", "c95",
                                           "alu181"));

TEST(MultipleFaultDpTest, MaskingPairExists) {
  // Classic multiple-fault phenomenon: two faults can partially mask each
  // other, so the double fault's test set differs from the union of the
  // single test sets. Verify we can find such a pair on the ALU.
  const Circuit c = netlist::make_alu181();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  const auto singles = fault::collapse_checkpoint_faults(c);
  bool masking_found = false;
  const auto doubles = fault::sample_multiple_faults(c, 2, 150, 3);
  for (const auto& mf : doubles) {
    const bdd::Bdd t0 = dp.analyze(mf.components[0]).test_set;
    const bdd::Bdd t1 = dp.analyze(mf.components[1]).test_set;
    const bdd::Bdd td = dp.analyze(mf).test_set;
    if (td != (t0 | t1)) {
      masking_found = true;
      break;
    }
  }
  EXPECT_TRUE(masking_found);
  (void)singles;
}

TEST(MultipleFaultDpTest, DominantComponentAloneStillDetected) {
  // A double fault where one component is a PO stem is always detectable:
  // the PO line itself is pinned.
  const Circuit c = netlist::make_c95_analog();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  MultipleStuckAtFault mf;
  mf.components.push_back(StuckAtFault{c.outputs()[0], std::nullopt, true});
  mf.components.push_back(StuckAtFault{c.inputs()[0], std::nullopt, false});
  const core::FaultAnalysis a = dp.analyze(mf);
  EXPECT_TRUE(a.detectable);
  // The PO stem's own excitation already reaches the output.
  EXPECT_GE(a.detectability,
            dp.analyze(mf.components[0]).detectability * 0.5);
}

TEST(MultipleFaultDpTest, IllFormedFaultsRejected) {
  const Circuit c = netlist::make_c17();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  MultipleStuckAtFault empty;
  EXPECT_THROW((void)dp.analyze(empty), netlist::NetlistError);

  MultipleStuckAtFault clash;
  clash.components.push_back(StuckAtFault{c.inputs()[0], std::nullopt, true});
  clash.components.push_back(StuckAtFault{c.inputs()[0], std::nullopt, false});
  EXPECT_THROW((void)dp.analyze(clash), netlist::NetlistError);
}

TEST(MultipleFaultDpTest, SingletonMultipleEqualsSingleAnalysis) {
  const Circuit c = netlist::make_c95_analog();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  for (const StuckAtFault& f : fault::collapse_checkpoint_faults(c)) {
    MultipleStuckAtFault mf;
    mf.components.push_back(f);
    const core::FaultAnalysis single = dp.analyze(f);
    const core::FaultAnalysis multi = dp.analyze(mf);
    ASSERT_EQ(single.test_set, multi.test_set) << describe(f, c);
    ASSERT_DOUBLE_EQ(single.upper_bound, multi.upper_bound);
  }
}

}  // namespace
}  // namespace dp
