// Simulator tests: the reference simulator's injection semantics and
// exhaustive sweeps against hand models, the wide engine's grading and
// lane masking, and the wide exhaustive grade against the reference.
#include <gtest/gtest.h>

#include <random>

#include "fault/bridging.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "sim/wide_sim.hpp"
#include "verify/reference_sim.hpp"

namespace dp::sim {
namespace {

using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::GateType;
using verify::ReferenceSimulator;

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = (v >> i) & 1;
  return b;
}

/// n PIs, each buffered to its own PO.
Circuit make_buffers(std::size_t n) {
  Circuit c("buffers");
  for (std::size_t i = 0; i < n; ++i) {
    const NetId pi = c.add_input("i" + std::to_string(i));
    c.mark_output(c.add_gate(GateType::Buf, {pi}, "o" + std::to_string(i)));
  }
  c.finalize();
  return c;
}

/// One n-input AND gate driving the only PO (a buffer for n = 1).
Circuit make_and(std::size_t n) {
  Circuit c("and" + std::to_string(n));
  std::vector<NetId> pis;
  for (std::size_t i = 0; i < n; ++i) {
    pis.push_back(c.add_input("i" + std::to_string(i)));
  }
  c.mark_output(c.add_gate(n == 1 ? GateType::Buf : GateType::And, pis, "o"));
  c.finalize();
  return c;
}

/// C17 by hand: vector v drives PIs (1, 2, 3, 6, 7) from bits 0..4.
struct C17Model {
  explicit C17Model(std::uint64_t v)
      : i1(v & 1), i2((v >> 1) & 1), i3((v >> 2) & 1), i6((v >> 3) & 1),
        i7((v >> 4) & 1) {}
  bool i1, i2, i3, i6, i7;
  bool n10 = !(i1 && i3);
  bool n11 = !(i3 && i6);
  bool n16 = !(i2 && n11);
  bool n19 = !(n11 && i7);
  /// POs 22 = NAND(10, 16) and 23 = NAND(16, 19).
  static std::vector<bool> outputs(bool n10, bool n16, bool n19) {
    return {!(n10 && n16), !(n16 && n19)};
  }
};

// ---- reference simulator -------------------------------------------------

TEST(PatternSimTest, ExhaustiveInputWordsEnumerateAllVectors) {
  // Vector v drives PI i with bit i of v, in both exhaustive sweeps: a
  // stem sa0 on PI i is detected exactly by the vectors with bit i set,
  // the lowest of them being 2^i. Nine PIs cover the in-word stripes
  // (PIs 0-5), the word index (PIs 6-7) and the 256-lane block (PI 8).
  const std::size_t n = 9;
  const Circuit c = make_buffers(n);
  const ReferenceSimulator ref(c);
  std::vector<StuckAtFault> faults;
  for (std::size_t i = 0; i < n; ++i) {
    faults.push_back({c.inputs()[i], std::nullopt, false});
  }
  WideSimOptions keep;
  keep.drop_detected = false;
  const auto grade = WideFaultSimulator(c).grade_exhaustive(faults, keep);
  ASSERT_EQ(grade.num_patterns, 1u << n);
  for (std::size_t i = 0; i < n; ++i) {
    const verify::TestSet tests = ref.test_set(faults[i]);
    ASSERT_EQ(tests.size, 1u << n);
    for (std::uint64_t v = 0; v < tests.size; ++v) {
      ASSERT_EQ(tests.contains(v), ((v >> i) & 1) == 1)
          << "PI " << i << " vector " << v;
    }
    EXPECT_EQ(grade.first_detection[i], 1u << i) << "PI " << i;
    EXPECT_EQ(grade.detection_counts[i], 1u << (n - 1)) << "PI " << i;
  }
}

TEST(PatternSimTest, GateEvaluationMatchesTruthTables) {
  Circuit c("gates");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  // Truth tables over vector v = (a, b) = bits (0, 1).
  const std::vector<std::pair<GateType, unsigned>> expect = {
      {GateType::And, 0x8}, {GateType::Nand, 0x7}, {GateType::Or, 0xe},
      {GateType::Nor, 0x1}, {GateType::Xor, 0x6},  {GateType::Xnor, 0x9}};
  for (const auto& [t, tt] : expect) {
    c.mark_output(c.add_gate(t, {a, b}, std::string(netlist::to_string(t))));
  }
  c.finalize();
  const ReferenceSimulator ref(c);
  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::vector<bool> out = ref.outputs(bits_of(v, 2));
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(out[k], ((expect[k].second >> v) & 1) == 1)
          << netlist::to_string(expect[k].first) << " vector " << v;
    }
  }
}

TEST(FaultSimTest, StemStuckAtForcesNet) {
  const Circuit c = netlist::make_c17();
  const ReferenceSimulator ref(c);
  const StuckAtFault f{*c.find_net("16"), std::nullopt, true};
  for (std::uint64_t v = 0; v < 32; ++v) {
    const C17Model m(v);
    EXPECT_EQ(ref.outputs(bits_of(v, 5), f),
              C17Model::outputs(m.n10, true, m.n19))
        << "vector " << v;
  }
}

TEST(FaultSimTest, BranchStuckAtLeavesStemClean) {
  // Branch 11->16 stuck at 1: gate 16 sees 1 on pin 1, so 16 = NOT(2);
  // net 11 keeps its good value, and so does gate 19, which also reads it.
  const Circuit c = netlist::make_c17();
  const ReferenceSimulator ref(c);
  const StuckAtFault f{*c.find_net("11"),
                       netlist::PinRef{*c.find_net("16"), 1}, true};
  for (std::uint64_t v = 0; v < 32; ++v) {
    const C17Model m(v);
    EXPECT_EQ(ref.outputs(bits_of(v, 5), f),
              C17Model::outputs(m.n10, !m.i2, m.n19))
        << "vector " << v;
  }
}

TEST(FaultSimTest, AndBridgeWiresBothNets) {
  const Circuit c = netlist::make_c17();
  const ReferenceSimulator ref(c);
  const NetId n10 = *c.find_net("10");
  const NetId n19 = *c.find_net("19");
  const BridgingFault f{std::min(n10, n19), std::max(n10, n19),
                        fault::BridgeType::And};
  for (std::uint64_t v = 0; v < 32; ++v) {
    const C17Model m(v);
    const bool wired = m.n10 && m.n19;
    EXPECT_EQ(ref.outputs(bits_of(v, 5), f),
              C17Model::outputs(wired, m.n16, wired))
        << "vector " << v;
  }
}

TEST(FaultSimTest, BridgeConsumersSeeWiredValue) {
  // a -> g = NOT(a); b independent. Bridge (a, b): g must compute
  // NOT(wired) even though b comes later in the original topo order.
  Circuit c("order");
  NetId a = c.add_input("a");
  NetId g = c.add_gate(GateType::Not, {a}, "g");
  NetId b = c.add_input("b");
  NetId h = c.add_gate(GateType::Not, {b}, "h");
  c.mark_output(g);
  c.mark_output(h);
  c.finalize();
  const ReferenceSimulator ref(c);
  const BridgingFault f{a, b, fault::BridgeType::Or};
  for (std::uint64_t v = 0; v < 4; ++v) {
    const bool wired = v != 0;
    EXPECT_EQ(ref.outputs(bits_of(v, 2), f),
              (std::vector<bool>{!wired, !wired}))
        << "vector " << v;
  }
}

TEST(ReferenceSimTest, FeedbackBridgeThrows) {
  // Bridging a net with its own consumer closes a loop; the reference
  // orders bridges by an honest Kahn sort, so it refuses instead of
  // assuming the bridge is non-feedback.
  Circuit c("loop");
  NetId a = c.add_input("a");
  NetId g = c.add_gate(GateType::Not, {a}, "g");
  c.mark_output(g);
  c.finalize();
  const ReferenceSimulator ref(c);
  const BridgingFault f{a, g, fault::BridgeType::And};
  EXPECT_THROW((void)ref.test_set(f), std::logic_error);
  EXPECT_THROW((void)ref.outputs({true}, f), std::logic_error);
}

TEST(FaultSimTest, ExhaustiveDetectabilityKnownValues) {
  // Full adder, sum output chain: sa0 on PI "a" (stem).
  // a is XORed into sum: every vector flips sum when a = 1 -> all 4
  // vectors with a = 1 detect via sum. Detectability = 1/2.
  const Circuit c = netlist::make_full_adder();
  const ReferenceSimulator ref(c);
  const StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_DOUBLE_EQ(ref.test_set(f).detectability(), 0.5);
  // sa1 on "a": detected whenever a = 0 -> also 1/2.
  const StuckAtFault f1{c.inputs()[0], std::nullopt, true};
  EXPECT_DOUBLE_EQ(ref.test_set(f1).detectability(), 0.5);
}

TEST(FaultSimTest, ExhaustiveSyndromeKnownValues) {
  const Circuit c = netlist::make_full_adder();
  const ReferenceSimulator ref(c);
  // sum = a ^ b ^ cin has syndrome 1/2; cout = majority has 1/2.
  EXPECT_DOUBLE_EQ(ref.syndrome(*c.find_net("sum")), 0.5);
  EXPECT_DOUBLE_EQ(ref.syndrome(*c.find_net("cout")), 0.5);
  // ab = a & b has syndrome 1/4.
  EXPECT_DOUBLE_EQ(ref.syndrome(*c.find_net("ab")), 0.25);
}

TEST(FaultSimTest, ExhaustiveTestSetMatchesDetectability) {
  // The 64-lane sweep and the one-pattern path must agree: vector v is in
  // the test set iff some PO differs under v, and the detectability is
  // the member count over 2^5.
  const Circuit c = netlist::make_c17();
  const ReferenceSimulator ref(c);
  for (const auto& f : fault::checkpoint_faults(c)) {
    const verify::TestSet tests = ref.test_set(f);
    std::uint64_t count = 0;
    for (std::uint64_t v = 0; v < 32; ++v) {
      const bool detects =
          ref.outputs(bits_of(v, 5)) != ref.outputs(bits_of(v, 5), f);
      EXPECT_EQ(tests.contains(v), detects) << describe(f, c) << " " << v;
      count += detects;
    }
    EXPECT_DOUBLE_EQ(tests.detectability(), static_cast<double>(count) / 32.0)
        << describe(f, c);
  }
}

TEST(FaultSimTest, InputLimitEnforced) {
  const Circuit c = netlist::make_c499_analog();  // 41 PIs
  const ReferenceSimulator ref(c);
  const StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_THROW((void)ref.test_set(f), std::invalid_argument);
  EXPECT_THROW((void)ref.syndrome(c.outputs()[0]), std::invalid_argument);
  EXPECT_THROW((void)WideFaultSimulator(c).grade_exhaustive({f}),
               std::invalid_argument);
}

// ---- wide engine grading -------------------------------------------------

TEST(FaultSimTest, RandomGradingDetectsEverythingOnC17) {
  const Circuit c = netlist::make_c17();
  const auto faults = fault::checkpoint_faults(c);
  const auto grade = WideFaultSimulator(c).grade_random(faults, 256, 99);
  // All C17 checkpoint faults are detectable and easy to hit randomly.
  EXPECT_EQ(grade.total, faults.size());
  EXPECT_EQ(grade.detected(), grade.total);
}

TEST(FaultSimTest, VectorGradingCountsDetections) {
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  // One all-zeros vector detects some but not all faults.
  const auto one =
      wide.grade_vectors(faults, {std::vector<bool>(c.num_inputs(), false)});
  EXPECT_GT(one.detected(), 0u);
  EXPECT_LT(one.detected(), one.total);
  // Exhaustive vector list detects everything.
  std::vector<std::vector<bool>> all;
  for (std::uint64_t v = 0; v < 32; ++v) all.push_back(bits_of(v, 5));
  EXPECT_EQ(wide.grade_vectors(faults, all).detected(), faults.size());
  // Width mismatch rejected.
  EXPECT_THROW(wide.grade_vectors(faults, {std::vector<bool>(3, false)}),
               std::invalid_argument);
}

// ---- ragged-block lane masking ------------------------------------------
// Pattern counts that are not a multiple of the block width leave lanes
// that hold garbage (replicated vectors in the exhaustive sweeps,
// zero-filled inputs in the graders). These tests pin the masking
// contract.

TEST(PatternSimTest, BlockMaskCoversSmallCircuits) {
  // Below 8 inputs the one 256-lane exhaustive block is ragged: an AND's
  // sa0 is detected only by the all-ones vector, its sa1 by every other
  // vector, whatever the garbage lanes replicate.
  for (std::size_t n = 1; n <= 9; ++n) {
    const Circuit c = make_and(n);
    const NetId o = c.outputs()[0];
    WideSimOptions keep;
    keep.drop_detected = false;
    const auto grade = WideFaultSimulator(c).grade_exhaustive(
        {{o, std::nullopt, false}, {o, std::nullopt, true}}, keep);
    const std::uint64_t all = std::uint64_t{1} << n;
    EXPECT_EQ(grade.num_patterns, all) << "n = " << n;
    EXPECT_EQ(grade.detection_counts[0], 1u) << "n = " << n;
    EXPECT_EQ(grade.first_detection[0], all - 1) << "n = " << n;
    EXPECT_EQ(grade.detection_counts[1], all - 1) << "n = " << n;
    EXPECT_EQ(grade.first_detection[1], 0u) << "n = " << n;
  }
}

TEST(FaultSimRaggedTest, BlockMaskPopcountsSumToVectorCount) {
  // The reference counts every one of the 2^n vectors exactly once: an
  // output's sa0 and sa1 test sets partition the vector space.
  for (std::size_t n = 1; n <= 8; ++n) {
    const Circuit c = make_and(n);
    const ReferenceSimulator ref(c);
    const NetId o = c.outputs()[0];
    const verify::TestSet sa0 = ref.test_set(StuckAtFault{o, std::nullopt, false});
    const verify::TestSet sa1 = ref.test_set(StuckAtFault{o, std::nullopt, true});
    EXPECT_EQ(sa0.size, 1u << n) << "n = " << n;
    EXPECT_EQ(sa0.count() + sa1.count(), 1u << n) << "n = " << n;
  }
}

TEST(FaultSimRaggedTest, PartialBlockSweepsIgnoreGarbageLanes) {
  // 3 inputs: only 8 of the 64 lanes are valid, and lanes 8..63 replicate
  // vectors 0..7 under the striped input words. An unmasked sweep would
  // count each detection 8x (detectability 1.0 instead of 1/8).
  const Circuit c = make_and(3);
  const ReferenceSimulator ref(c);
  const NetId o = c.outputs()[0];
  const StuckAtFault f{o, std::nullopt, false};  // sa0: detected only by 111
  const verify::TestSet tests = ref.test_set(f);
  EXPECT_DOUBLE_EQ(tests.detectability(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(ref.syndrome(o), 1.0 / 8.0);
  ASSERT_EQ(tests.size, 8u);  // 2^n entries, not 64
  for (std::uint64_t v = 0; v < tests.size; ++v) {
    EXPECT_EQ(tests.contains(v), v == 7u) << "vector " << v;
  }
}

TEST(FaultSimRaggedTest, RaggedVectorGradingMasksTailLanes) {
  // o = OR(a, b); sa1 on o is detected only by the all-zero vector --
  // which is exactly what the zero-filled unused tail lanes fake. 63
  // non-detecting vectors must grade as zero detections; a real all-zero
  // vector in a 1-lane tail word (65 total) must be honoured.
  Circuit c("or2");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId o = c.add_gate(GateType::Or, {a, b}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  const std::vector<StuckAtFault> faults = {{o, std::nullopt, true}};

  const std::vector<bool> ones(2, true), zeros(2, false);
  std::vector<std::vector<bool>> vectors(63, ones);
  EXPECT_EQ(wide.grade_vectors(faults, vectors).detected(), 0u);

  vectors.assign(64, ones);
  vectors.push_back(zeros);  // lane 0 of the second word
  EXPECT_EQ(wide.grade_vectors(faults, vectors).detected(), 1u);
}

TEST(FaultSimRaggedTest, RandomGradingHonorsExactPatternCount) {
  // One random pattern must grade exactly lane 0 of the seeded word
  // stream; cross-check against grade_vectors on that reconstructed
  // vector so a mask regression shows up as a count mismatch.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 123;
  std::mt19937_64 rng(seed);
  std::vector<bool> lane0(c.num_inputs());
  for (std::size_t i = 0; i < c.num_inputs(); ++i) lane0[i] = rng() & 1;
  const auto one_random = wide.grade_random(faults, 1, seed);
  const auto one_vector = wide.grade_vectors(faults, {lane0});
  EXPECT_EQ(one_random.detected(), one_vector.detected());
  EXPECT_EQ(one_random.total, one_vector.total);
}

// ---- Levelized 256-lane engine -----------------------------------------

TEST(WideSimTest, RandomGradingMatchesVectorGradingAtRaggedCounts) {
  // The random path packs lanes straight from the RNG word stream; the
  // vector path packs bool vectors lane by lane. Grading the materialized
  // stream must reproduce the random grade exactly -- per fault, not just
  // in aggregate -- at counts straddling every masking boundary (partial
  // word, full word, partial block, full 256-lane block).
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 0xfeedface;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{100},
                              std::size_t{250}, std::size_t{256},
                              std::size_t{300}}) {
    const auto random_grade = wide.grade_random(faults, n, seed);
    const auto vector_grade =
        wide.grade_vectors(faults, wide.random_patterns(n, seed));
    EXPECT_EQ(random_grade.detected(), vector_grade.detected()) << "n=" << n;
    EXPECT_EQ(random_grade.num_patterns, n) << "n=" << n;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(random_grade.detection_counts[i],
                vector_grade.detection_counts[i])
          << "n=" << n << " fault " << i;
      EXPECT_EQ(random_grade.first_detection[i],
                vector_grade.first_detection[i])
          << "n=" << n << " fault " << i;
    }
  }
}

/// The naive per-pattern truth: some PO differs under `pattern`.
bool reference_detects(const ReferenceSimulator& ref, const StuckAtFault& f,
                       const std::vector<bool>& pattern) {
  return ref.outputs(pattern) != ref.outputs(pattern, f);
}

TEST(WideSimTest, ExactCountsMatchSerialRecountAcrossEngines) {
  // Cross-engine identity for the n-detect contract: with fault dropping
  // off, the wide engine's per-fault detection_counts and first_detection
  // must equal a naive serial recount (one reference simulation per
  // pattern per fault) at counts straddling every lane-masking boundary.
  // The n-detect analytics layer leans on exactly this equality when it
  // cross-checks BDD satcounts against simulator recounts.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const ReferenceSimulator ref(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 0xc0de;
  WideSimOptions keep;
  keep.drop_detected = false;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{256},
                              std::size_t{300}}) {
    const auto stream = wide.random_patterns(n, seed);
    ASSERT_EQ(stream.size(), n);
    const auto grade = wide.grade_vectors(faults, stream, keep);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      std::uint64_t count = 0;
      std::uint64_t first = WideFaultSimulator::kNotDetected;
      for (std::size_t p = 0; p < n; ++p) {
        if (reference_detects(ref, faults[i], stream[p])) {
          if (count == 0) first = p;
          ++count;
        }
      }
      EXPECT_EQ(grade.detection_counts[i], count)
          << "n=" << n << " fault " << i;
      EXPECT_EQ(grade.first_detection[i], first)
          << "n=" << n << " fault " << i;
    }
  }
}

TEST(WideSimTest, FirstDetectionIsEarliestDetectingPattern) {
  // Cross-check first_detection against the slow truth: simulate each
  // reconstructed vector on its own and record the first detecting index.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const ReferenceSimulator ref(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::size_t n = 40;
  const std::uint64_t seed = 99;
  const auto stream = wide.random_patterns(n, seed);
  const auto grade = wide.grade_random(faults, n, seed);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    std::uint64_t expected = WideFaultSimulator::kNotDetected;
    for (std::size_t p = 0; p < n; ++p) {
      if (reference_detects(ref, faults[i], stream[p])) {
        expected = p;
        break;
      }
    }
    EXPECT_EQ(grade.first_detection[i], expected) << "fault " << i;
  }
}

TEST(WideSimTest, FaultDroppingPreservesDetectedSetAndFirstDetection) {
  // Dropping stops counting after the first detecting block, but it must
  // never change which faults are detected or where they were first seen.
  const Circuit c = netlist::make_benchmark("alu181");
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  WideSimOptions drop, keep;
  drop.drop_detected = true;
  keep.drop_detected = false;
  const auto dropped = wide.grade_random(faults, 300, 5, drop);
  const auto kept = wide.grade_random(faults, 300, 5, keep);
  EXPECT_EQ(dropped.detected(), kept.detected());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(dropped.first_detection[i], kept.first_detection[i])
        << "fault " << i;
    EXPECT_EQ(dropped.detection_counts[i] > 0, kept.detection_counts[i] > 0)
        << "fault " << i;
  }
}

TEST(WideSimTest, BranchFaultOnZeroFaninGateThrows) {
  // A branch fault names a fanin pin; an Input (or Const) gate has none,
  // so injection must fail loudly instead of indexing pins[0] -- in both
  // simulators.
  Circuit c("guard");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId o = c.add_gate(GateType::And, {a, b}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  const std::vector<StuckAtFault> bad = {{a, netlist::PinRef{a, 0}, true}};
  EXPECT_THROW(wide.grade_random(bad, 64, 1), netlist::NetlistError);
  EXPECT_THROW(wide.grade_exhaustive(bad), netlist::NetlistError);
  const ReferenceSimulator ref(c);
  EXPECT_THROW((void)ref.test_set(bad[0]), netlist::NetlistError);
  EXPECT_THROW((void)ref.outputs({true, true}, bad[0]), netlist::NetlistError);
  // A pin past the gate's fanin count is rejected the same way.
  const StuckAtFault past{a, netlist::PinRef{o, 2}, true};
  EXPECT_THROW((void)ref.test_set(past), netlist::NetlistError);
  EXPECT_THROW(wide.grade_exhaustive({past}), netlist::NetlistError);
}

// ---- wide exhaustive grade vs the reference --------------------------------

/// Per fault, the wide 2^n grade (dropping off) must count exactly the
/// reference test set's members, and its first detection must be the
/// set's lowest member. Dropping on must keep the first detection.
void expect_exhaustive_matches_reference(const Circuit& c) {
  const auto faults = fault::checkpoint_faults(c);
  const WideFaultSimulator wide(c);
  const ReferenceSimulator ref(c);
  WideSimOptions keep;
  keep.drop_detected = false;
  const auto kept = wide.grade_exhaustive(faults, keep);
  const auto dropped = wide.grade_exhaustive(faults);
  ASSERT_EQ(kept.num_patterns, std::uint64_t{1} << c.num_inputs());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const verify::TestSet tests = ref.test_set(faults[i]);
    std::uint64_t lowest = WideFaultSimulator::kNotDetected;
    for (std::uint64_t v = 0; v < tests.size; ++v) {
      if (tests.contains(v)) {
        lowest = v;
        break;
      }
    }
    const std::string what = describe(faults[i], c);
    EXPECT_EQ(kept.detection_counts[i], tests.count()) << what;
    EXPECT_EQ(kept.first_detection[i], lowest) << what;
    EXPECT_EQ(dropped.first_detection[i], lowest) << what;
  }
}

class WideExhaustiveSuiteTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(WideExhaustiveSuiteTest, MatchesReferenceOnEveryCheckpointFault) {
  expect_exhaustive_matches_reference(netlist::make_benchmark(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, WideExhaustiveSuiteTest,
                         ::testing::Values("c17", "fulladder", "c95",
                                           "alu181"));

class WideExhaustiveRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WideExhaustiveRandomTest, MatchesReferenceOnEveryCheckpointFault) {
  // The random DAGs of dp_engine_test's DpVsExhaustiveRandomTest seeds.
  expect_exhaustive_matches_reference(
      netlist::make_random_circuit(GetParam(), 9, 40, 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideExhaustiveRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dp::sim
