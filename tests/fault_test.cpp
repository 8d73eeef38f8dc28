// Fault-model tests: checkpoint enumeration, equivalence collapsing,
// bridging-fault screening, distance-weighted sampling.
#include <gtest/gtest.h>

#include <set>

#include "fault/bridging.hpp"
#include "fault/sampling.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"

namespace dp::fault {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NetId;
using netlist::Structure;

TEST(CheckpointTest, C17CountsMatchTheory) {
  // Checkpoints: 5 PIs + fanout branches. In C17, nets 3, 11 and 16 each
  // drive two pins -> 6 branches. 11 checkpoints x 2 polarities = 22.
  Circuit c = netlist::make_c17();
  const auto faults = checkpoint_faults(c);
  EXPECT_EQ(faults.size(), 22u);
  std::size_t stems = 0, branches = 0;
  for (const auto& f : faults) (f.is_branch() ? branches : stems)++;
  EXPECT_EQ(stems, 10u);
  EXPECT_EQ(branches, 12u);
}

TEST(CheckpointTest, BranchesOnlyOnFanoutStems) {
  Circuit c = netlist::make_alu181();
  for (const auto& f : checkpoint_faults(c)) {
    if (f.is_branch()) {
      EXPECT_GT(c.fanout_count(f.net), 1u) << describe(f, c);
    } else {
      EXPECT_EQ(c.type(f.net), GateType::Input) << describe(f, c);
    }
  }
}

TEST(CheckpointTest, CollapsingShrinksAndKeepsRepresentatives) {
  Circuit c = netlist::make_c17();
  const auto all = checkpoint_faults(c);
  const auto collapsed = collapse_checkpoint_faults(c);
  EXPECT_LT(collapsed.size(), all.size());
  // Every fault appears in exactly one equivalence class.
  const auto classes = checkpoint_equivalence_classes(c);
  std::size_t covered = 0;
  for (const auto& cls : classes) covered += 1 + cls.collapsed.size();
  EXPECT_EQ(covered, all.size());
  EXPECT_EQ(classes.size(), collapsed.size());
}

TEST(CheckpointTest, C17CollapsedClasses) {
  // Both PIs 1,2,7 feed NAND gates singly -> their sa0 faults group with
  // the co-input branch sa0 faults.
  Circuit c = netlist::make_c17();
  const auto classes = checkpoint_equivalence_classes(c);
  std::size_t multi = 0;
  for (const auto& cls : classes) {
    if (!cls.collapsed.empty()) {
      ++multi;
      // All members share the stuck value and feed the same gate.
      EXPECT_FALSE(cls.representative.stuck_value);  // NAND: sa0 controls
    }
  }
  EXPECT_GT(multi, 0u);
}

TEST(CheckpointTest, DescribeMentionsPolarityAndBranch) {
  Circuit c = netlist::make_c17();
  const auto faults = checkpoint_faults(c);
  bool saw_branch = false;
  for (const auto& f : faults) {
    const std::string d = describe(f, c);
    EXPECT_NE(d.find(f.stuck_value ? "sa1" : "sa0"), std::string::npos);
    if (f.is_branch()) {
      saw_branch = true;
      EXPECT_NE(d.find("->"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_branch);
}

TEST(BridgingTest, FeedbackPairsScreened) {
  Circuit c = netlist::make_c17();
  Structure s(c);
  const NetId n3 = *c.find_net("3");
  const NetId n22 = *c.find_net("22");
  EXPECT_TRUE(is_feedback_bridge(s, n3, n22));
  const NetId n10 = *c.find_net("10");
  const NetId n19 = *c.find_net("19");
  EXPECT_FALSE(is_feedback_bridge(s, n10, n19));

  for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
    for (const auto& f : enumerate_nfbfs(c, s, type)) {
      EXPECT_FALSE(is_feedback_bridge(s, f.a, f.b)) << describe(f, c);
      EXPECT_NE(f.a, f.b);
    }
  }
}

TEST(BridgingTest, TriviallyUndetectableScreened) {
  // Two inputs driving only one common AND gate: the AND bridge changes
  // nothing. Construct directly.
  Circuit c("triv");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId g = c.add_gate(GateType::And, {a, b}, "g");
  c.mark_output(g);
  c.finalize();
  Structure s(c);
  EXPECT_TRUE(is_trivially_undetectable(c, {a, b, BridgeType::And}));
  EXPECT_FALSE(is_trivially_undetectable(c, {a, b, BridgeType::Or}));
  const auto and_faults = enumerate_nfbfs(c, s, BridgeType::And);
  for (const auto& f : and_faults) {
    EXPECT_FALSE(f.a == a && f.b == b);
  }
}

TEST(BridgingTest, NorGateAbsorbsOrBridge) {
  Circuit c("nor");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId g = c.add_gate(GateType::Nor, {a, b}, "g");
  c.mark_output(g);
  c.finalize();
  EXPECT_TRUE(is_trivially_undetectable(c, {a, b, BridgeType::Or}));
  EXPECT_FALSE(is_trivially_undetectable(c, {a, b, BridgeType::And}));
}

TEST(BridgingTest, FanoutDefeatsTrivialScreen) {
  // Same AND gate, but wire a also feeds a second gate: detectable.
  Circuit c("fanout");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId g = c.add_gate(GateType::And, {a, b}, "g");
  NetId h = c.add_gate(GateType::Not, {a}, "h");
  c.mark_output(g);
  c.mark_output(h);
  c.finalize();
  EXPECT_FALSE(is_trivially_undetectable(c, {a, b, BridgeType::And}));
}

TEST(BridgingTest, EnumerationIsSymmetricallyOrdered) {
  Circuit c = netlist::make_c95_analog();
  Structure s(c);
  std::set<std::pair<NetId, NetId>> seen;
  for (const auto& f : enumerate_nfbfs(c, s, BridgeType::And)) {
    EXPECT_LT(f.a, f.b);
    EXPECT_TRUE(seen.insert({f.a, f.b}).second) << "duplicate pair";
  }
  EXPECT_GT(seen.size(), 100u);
}

TEST(SamplingTest, SmallSetsPassThroughUnsampled) {
  Circuit c = netlist::make_c17();
  Structure s(c);
  netlist::LayoutEstimate layout(c, s);
  const auto all = enumerate_nfbfs(c, s, BridgeType::And);
  SamplingOptions opt;
  opt.target_count = 10000;  // larger than the population
  const auto sample = nfbf_fault_set(c, s, layout, BridgeType::And, opt);
  EXPECT_EQ(sample.size(), all.size());
}

TEST(SamplingTest, DeterministicForFixedSeed) {
  Circuit c = netlist::make_c432_analog();
  Structure s(c);
  netlist::LayoutEstimate layout(c, s);
  SamplingOptions opt;
  opt.target_count = 200;
  opt.seed = 42;
  const auto s1 = nfbf_fault_set(c, s, layout, BridgeType::Or, opt);
  const auto s2 = nfbf_fault_set(c, s, layout, BridgeType::Or, opt);
  ASSERT_EQ(s1.size(), 200u);
  EXPECT_EQ(s1, s2);
  opt.seed = 43;
  const auto s3 = nfbf_fault_set(c, s, layout, BridgeType::Or, opt);
  EXPECT_NE(s1, s3);
}

TEST(SamplingTest, ShortDistancesAreFavored) {
  Circuit c = netlist::make_c432_analog();
  Structure s(c);
  netlist::LayoutEstimate layout(c, s);
  const auto all = enumerate_nfbfs(c, s, BridgeType::And);
  SamplingOptions opt;
  opt.target_count = 300;
  opt.theta = 0.05;  // strong bias
  const auto sample = sample_bridging_faults(c, layout, all, opt);

  auto mean_dist = [&](const std::vector<BridgingFault>& v) {
    double sum = 0;
    for (const auto& f : v) sum += layout.distance(f.a, f.b);
    return sum / static_cast<double>(v.size());
  };
  EXPECT_LT(mean_dist(sample), mean_dist(all));
}

TEST(SamplingTest, InvalidThetaThrows) {
  Circuit c = netlist::make_c432_analog();
  Structure s(c);
  netlist::LayoutEstimate layout(c, s);
  const auto all = enumerate_nfbfs(c, s, BridgeType::And);
  SamplingOptions opt;
  opt.target_count = 10;
  opt.theta = 0.0;
  EXPECT_THROW(sample_bridging_faults(c, layout, all, opt),
               netlist::NetlistError);
  // Also when the whole population fits the target and no sampling runs.
  opt.target_count = all.size();
  EXPECT_THROW(sample_bridging_faults(c, layout, all, opt),
               netlist::NetlistError);
}

}  // namespace
}  // namespace dp::fault
