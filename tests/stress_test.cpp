// Stress and failure-injection tests: node-budget exhaustion on the
// C6288-class multiplier, decomposition as the escape hatch, GC under
// engine load, and robustness of the sweep drivers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/random_pattern.hpp"
#include "dp/engine.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/wide_sim.hpp"
#include "verify/reference_sim.hpp"

namespace dp {
namespace {

TEST(MultiplierStressTest, ParametricMultiplierIsCorrect) {
  for (int bits : {2, 3, 5, 6}) {
    netlist::Circuit c = netlist::make_multiplier(bits);
    ASSERT_EQ(c.num_inputs(), static_cast<std::size_t>(2 * bits));
    ASSERT_EQ(c.num_outputs(), static_cast<std::size_t>(2 * bits));
    const verify::ReferenceSimulator ref(c);
    const std::uint64_t limit = 1ull << (2 * bits);
    for (std::uint64_t v = 0; v < limit; ++v) {
      std::vector<bool> in(c.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = (v >> i) & 1;
      const std::vector<bool> out = ref.outputs(in);
      const std::uint64_t a = v & ((1ull << bits) - 1);
      const std::uint64_t b = v >> bits;
      std::uint64_t got = 0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        got |= std::uint64_t{out[i]} << i;
      }
      ASSERT_EQ(got, a * b) << bits << "-bit " << a << "*" << b;
    }
  }
  EXPECT_THROW(netlist::make_multiplier(1), netlist::NetlistError);
}

TEST(MultiplierStressTest, BigMultiplierExhaustsNodeBudget) {
  // C6288-class: the 16x16 multiplier's product BDDs are exponential in
  // any order; a small node budget must fail loudly via OutOfNodes.
  netlist::Circuit c = netlist::make_multiplier(16);
  bdd::Manager mgr(0, /*max_nodes=*/1000000);
  EXPECT_THROW(core::GoodFunctions(mgr, c), bdd::OutOfNodes);
}

TEST(MultiplierStressTest, DecompositionTamesTheBuildAndFailsCleanly) {
  // The paper's escape hatch tames the GOOD-FUNCTION build: with cut
  // points the same budget suffices where the exact build blew up. Fault
  // analysis on the multiplier remains out of reach -- the difference
  // functions themselves are multiplier-shaped (the classic C6288
  // pathology) -- and must fail cleanly per fault, leaving the manager
  // usable.
  netlist::Circuit c = netlist::make_multiplier(16);
  netlist::Structure st(c);
  bdd::Manager mgr(0, /*max_nodes=*/1000000);
  core::GoodFunctionOptions opt;
  opt.cut_threshold = 500;
  core::GoodFunctions good(mgr, c, opt);
  EXPECT_FALSE(good.exact());
  EXPECT_GT(good.cut_nets().size(), 0u);

  core::DifferencePropagator dp(good, st);
  // A deep PI fault exceeds any practical budget...
  const fault::StuckAtFault deep{c.inputs()[0], std::nullopt, false};
  EXPECT_THROW((void)dp.analyze(deep), bdd::OutOfNodes);
  // ...but the failure is recoverable: collect and analyze a shallow
  // fault (a PO stem: single-net cone) on the same manager.
  mgr.gc();
  const fault::StuckAtFault shallow{c.outputs()[0], std::nullopt, true};
  const core::FaultAnalysis a = dp.analyze(shallow);
  EXPECT_TRUE(a.detectable);
  EXPECT_GT(a.detectability, 0.0);
}

TEST(GcStressTest, RepeatedAnalysisIsStableAcrossCollections) {
  // Force frequent GC with a tiny threshold stand-in: run many faults on
  // one manager and verify results stay identical to a fresh manager.
  netlist::Circuit c = netlist::make_alu181();
  netlist::Structure st(c);
  const auto faults = fault::collapse_checkpoint_faults(c);

  bdd::Manager shared(0);
  core::GoodFunctions good(shared, c);
  core::DifferencePropagator dp(good, st);
  std::vector<double> first;
  for (const auto& f : faults) first.push_back(dp.analyze(f).detectability);
  shared.gc();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_DOUBLE_EQ(dp.analyze(faults[i]).detectability, first[i]);
  }
  // Explicit GC between every fault changes nothing either.
  for (std::size_t i = 0; i < 25; ++i) {
    shared.gc();
    EXPECT_DOUBLE_EQ(dp.analyze(faults[i]).detectability, first[i]);
  }
}

TEST(RandomPatternTest, CoverageCurveIsMonotoneAndCalibrated) {
  const analysis::CircuitProfile p =
      analysis::analyze_stuck_at(netlist::make_c95_analog());
  double prev = 0.0;
  for (std::size_t n : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    const double cov = analysis::expected_random_coverage(p, n);
    EXPECT_GE(cov, prev);
    EXPECT_LE(cov, 1.0);
    prev = cov;
  }
  // One pattern covers exactly the mean detectability (per definition).
  double mean = 0.0;
  std::size_t det = 0;
  for (const auto& f : p.faults) {
    if (f.detectable) {
      mean += f.detectability;
      ++det;
    }
  }
  mean /= static_cast<double>(det);
  EXPECT_NEAR(analysis::expected_random_coverage(p, 1), mean, 1e-12);

  const std::size_t n95 = analysis::patterns_for_coverage(p, 0.95);
  EXPECT_GE(analysis::expected_random_coverage(p, n95), 0.95);
  EXPECT_LT(analysis::expected_random_coverage(p, n95 - 1), 0.95);
  EXPECT_THROW(analysis::patterns_for_coverage(p, 1.5),
               std::invalid_argument);
  EXPECT_THROW(analysis::patterns_for_coverage(p, 0.0),
               std::invalid_argument);
}

TEST(RandomPatternTest, PredictionMatchesSimulatedGrading) {
  const netlist::Circuit c = netlist::make_c95_analog();
  const analysis::CircuitProfile p = analysis::analyze_stuck_at(c);
  const sim::WideFaultSimulator wide(c);
  const auto faults = fault::collapse_checkpoint_faults(c);

  const double predicted = analysis::expected_random_coverage(p, 128);
  double simulated = 0.0;
  for (int seed = 0; seed < 8; ++seed) {
    const auto grade = wide.grade_random(faults, 128, 31 + seed);
    simulated += static_cast<double>(grade.detected()) /
                 static_cast<double>(grade.total);
  }
  simulated /= 8.0;
  EXPECT_NEAR(predicted, simulated, 0.03);
}

}  // namespace
}  // namespace dp
