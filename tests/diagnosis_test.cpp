// Fault-dictionary and diagnosis tests: the dictionary built from DP's
// per-PO difference functions must agree with the simulator's observed
// responses, and diagnosis must locate injected faults.
#include <gtest/gtest.h>

#include "analysis/diagnosis.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "verify/reference_sim.hpp"

namespace dp::analysis {
namespace {

using fault::StuckAtFault;
using netlist::Circuit;

struct Rig {
  explicit Rig(Circuit&& c)
      : circuit(std::move(c)),
        structure(circuit),
        manager(0),
        good(manager, circuit),
        engine(good, structure),
        ref(circuit) {}

  /// Observed failing-PO signatures of `f` on `vectors`, via simulation.
  std::vector<PoSignature> observe(const StuckAtFault& f,
                                   const std::vector<std::vector<bool>>& vs) {
    std::vector<PoSignature> out;
    for (const auto& v : vs) {
      const std::vector<bool> good_out = ref.outputs(v);
      const std::vector<bool> bad_out = ref.outputs(v, f);
      PoSignature sig = 0;
      for (std::size_t p = 0; p < circuit.num_outputs(); ++p) {
        if (good_out[p] != bad_out[p]) sig |= PoSignature{1} << p;
      }
      out.push_back(sig);
    }
    return out;
  }

  Circuit circuit;
  netlist::Structure structure;
  bdd::Manager manager;
  core::GoodFunctions good;
  core::DifferencePropagator engine;
  verify::ReferenceSimulator ref;
};

std::vector<std::vector<bool>> exhaustive_vectors(std::size_t n) {
  std::vector<std::vector<bool>> vs;
  for (std::uint64_t p = 0; p < (1ull << n); ++p) {
    std::vector<bool> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = (p >> i) & 1;
    vs.push_back(std::move(v));
  }
  return vs;
}

TEST(DiagnosisTest, DictionarySignaturesMatchSimulatedResponses) {
  Rig rig(netlist::make_c17());
  const auto faults = fault::checkpoint_faults(rig.circuit);
  const auto vectors = exhaustive_vectors(rig.circuit.num_inputs());
  const FaultDictionary dict(rig.engine, faults, vectors);

  ASSERT_EQ(dict.num_faults(), faults.size());
  ASSERT_EQ(dict.num_vectors(), vectors.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const auto observed = rig.observe(faults[fi], vectors);
    for (std::size_t v = 0; v < vectors.size(); ++v) {
      ASSERT_EQ(dict.signature(fi, v), observed[v])
          << describe(faults[fi], rig.circuit) << " vector " << v;
    }
  }
}

TEST(DiagnosisTest, InjectedFaultDiagnosedAtDistanceZero) {
  Rig rig(netlist::make_c95_analog());
  const auto faults = fault::collapse_checkpoint_faults(rig.circuit);
  const auto vectors = exhaustive_vectors(rig.circuit.num_inputs());
  const FaultDictionary dict(rig.engine, faults, vectors);

  for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
    const auto observed = rig.observe(faults[fi], vectors);
    const auto ranked = dict.diagnose(observed);
    ASSERT_FALSE(ranked.empty());
    // The injected fault must be a perfect (distance-0) match; the top
    // candidate can only differ from it by being signature-identical.
    EXPECT_EQ(ranked.front().distance, 0u);
    bool self_perfect = false;
    for (const auto& cand : ranked) {
      if (cand.distance != 0) break;
      if (cand.fault_index == fi) self_perfect = true;
    }
    EXPECT_TRUE(self_perfect) << describe(faults[fi], rig.circuit);
  }
}

TEST(DiagnosisTest, NoisyObservationStillRanksTrueFaultNearTop) {
  Rig rig(netlist::make_c17());
  const auto faults = fault::checkpoint_faults(rig.circuit);
  const auto vectors = exhaustive_vectors(5);
  const FaultDictionary dict(rig.engine, faults, vectors);

  const std::size_t target = 4;
  auto observed = rig.observe(faults[target], vectors);
  observed[3] ^= 1;  // one flipped PO observation (tester noise)
  const auto ranked = dict.diagnose(observed);
  // The true fault sits within distance 1 of the observation.
  bool found = false;
  for (const auto& cand : ranked) {
    if (cand.fault_index == target) {
      EXPECT_LE(cand.distance, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiagnosisTest, ExhaustiveDictionaryGroupsExactlyTheEquivalentFaults) {
  // With ALL vectors in the dictionary, two faults are indistinguishable
  // iff they are functionally equivalent -- so the collapsing machinery
  // and the dictionary must agree on the equivalence classes.
  Rig rig(netlist::make_c17());
  const auto faults = fault::checkpoint_faults(rig.circuit);
  const auto vectors = exhaustive_vectors(5);
  const FaultDictionary dict(rig.engine, faults, vectors);

  std::size_t grouped = 0;
  for (const auto& group : dict.indistinguishable_groups()) {
    grouped += group.size();
    if (group.size() < 2) continue;
    // Members must share complete per-PO behavior: verified by identical
    // test sets.
    const bdd::Bdd t0 = rig.engine.analyze(faults[group[0]]).test_set;
    for (std::size_t k = 1; k < group.size(); ++k) {
      EXPECT_EQ(rig.engine.analyze(faults[group[k]]).test_set, t0);
    }
  }
  EXPECT_EQ(grouped, faults.size());
  EXPECT_GT(dict.resolution(), 0.3);
  EXPECT_LT(dict.resolution(), 1.0);  // C17 has equivalent checkpoints
}

TEST(DiagnosisTest, InputValidation) {
  Rig rig(netlist::make_c17());
  const auto faults = fault::checkpoint_faults(rig.circuit);
  const auto vectors = exhaustive_vectors(5);
  EXPECT_THROW(FaultDictionary(rig.engine, faults,
                               {std::vector<bool>(3, false)}),
               std::invalid_argument);
  const FaultDictionary dict(rig.engine, faults, vectors);
  EXPECT_THROW(dict.diagnose(std::vector<PoSignature>(2, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dp::analysis
