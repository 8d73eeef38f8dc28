// The n-detection analytics suite (`ndetect_smoke` ctest label; also
// rerun under ASan and TSan by bench/smoke.cmake): exact detection
// counts against brute-force enumeration, top-up quota completion,
// jobs-invariance, and the degenerate inputs (empty vector set, n = 0).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/ndetect.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "sim/wide_sim.hpp"
#include "verify/reference_sim.hpp"

namespace dp {
namespace {

/// All 2^n input vectors, index = packed PI assignment (PI 0 = LSB) --
/// the same packing verify::TestSet uses.
std::vector<std::vector<bool>> all_vectors(std::size_t num_inputs) {
  std::vector<std::vector<bool>> out;
  const std::uint64_t limit = 1ull << num_inputs;
  for (std::uint64_t v = 0; v < limit; ++v) {
    std::vector<bool> point(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) point[i] = (v >> i) & 1;
    out.push_back(std::move(point));
  }
  return out;
}

std::uint64_t pack(const std::vector<bool>& v) {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i]) x |= 1ull << i;
  }
  return x;
}

/// Brute-force detection count: distinct vectors of `vectors` whose
/// packed index the reference simulator's test-set bitmap accepts.
std::uint64_t brute_force_count(const verify::TestSet& tests,
                                const std::vector<std::vector<bool>>& vectors) {
  std::vector<bool> used(tests.size, false);
  std::uint64_t count = 0;
  for (const auto& v : vectors) {
    const std::uint64_t idx = pack(v);
    if (tests.contains(idx) && !used[idx]) {
      used[idx] = true;
      ++count;
    }
  }
  return count;
}

/// Deterministic pseudo-random vector sample (with deliberate duplicates
/// via the small modulus) -- splitmix64 over the seed.
std::vector<std::vector<bool>> sample_vectors(std::size_t num_inputs,
                                              std::size_t count,
                                              std::uint64_t seed) {
  std::vector<std::vector<bool>> out;
  std::uint64_t x = seed;
  for (std::size_t k = 0; k < count; ++k) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::vector<bool> v(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) v[i] = (z >> i) & 1;
    out.push_back(std::move(v));
  }
  return out;
}

void expect_counts_match_brute_force(const netlist::Circuit& circuit,
                                     const std::vector<std::vector<bool>>& vectors) {
  const auto faults = fault::collapse_checkpoint_faults(circuit);
  analysis::NDetectAnalyzer analyzer(circuit, faults);
  const auto counts = analyzer.detection_counts(vectors);
  const verify::ReferenceSimulator ref(circuit);
  ASSERT_EQ(counts.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const verify::TestSet tests = ref.test_set(faults[i]);
    EXPECT_EQ(counts[i], brute_force_count(tests, vectors))
        << fault::describe(faults[i], circuit);
    // CTS size cross-check: the bitmap's popcount is the satcount.
    EXPECT_EQ(analyzer.cts_size(i), static_cast<double>(tests.count()))
        << fault::describe(faults[i], circuit);
  }
}

TEST(NDetectTest, CountsMatchBruteForceOnC17) {
  const netlist::Circuit c = netlist::make_c17();
  expect_counts_match_brute_force(c, sample_vectors(c.num_inputs(), 24, 17));
}

TEST(NDetectTest, CountsMatchBruteForceOnAlu181) {
  const netlist::Circuit c = netlist::make_alu181();
  expect_counts_match_brute_force(c, sample_vectors(c.num_inputs(), 96, 181));
}

TEST(NDetectTest, CountsMatchBruteForceOnRandomShapes) {
  for (const netlist::CircuitShape shape : netlist::all_circuit_shapes()) {
    const netlist::Circuit c = netlist::make_random_circuit(
        0xdec0de + static_cast<std::uint64_t>(shape), 8, 24, 3, shape);
    expect_counts_match_brute_force(c, sample_vectors(c.num_inputs(), 40, 7));
  }
}

TEST(NDetectTest, FullVectorSpaceCoversEveryCompleteTestSet) {
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  const auto counts = analyzer.detection_counts(all_vectors(c.num_inputs()));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(static_cast<double>(counts[i]), analyzer.cts_size(i));
  }
  const auto report = analyzer.report(all_vectors(c.num_inputs()), 1);
  for (const analysis::NDetectFaultRecord& r : report.faults) {
    if (r.detectable) {
      EXPECT_EQ(r.cts_coverage, 1.0) << r.name;
    }
  }
}

TEST(NDetectTest, TopUpReachesQuotaForEveryDetectableFault) {
  for (const char* name : {"c17", "alu181"}) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    const auto faults = fault::collapse_checkpoint_faults(c);
    analysis::NDetectAnalyzer analyzer(c, faults);
    for (const std::size_t n : {1u, 3u, 5u}) {
      std::vector<std::vector<bool>> vectors;
      analyzer.top_up(vectors, n);
      const auto counts = analyzer.detection_counts(vectors);
      const verify::ReferenceSimulator ref(c);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        // >= not ==: a vector minted for one fault legitimately detects
        // others too (that sharing is why greedy top-up stays compact).
        EXPECT_GE(counts[i], analyzer.quota(i, n))
            << name << " n=" << n << " " << fault::describe(faults[i], c);
        // Independent recount of the minted set.
        EXPECT_EQ(counts[i],
                  brute_force_count(ref.test_set(faults[i]), vectors))
            << name << " n=" << n;
      }
    }
  }
}

TEST(NDetectTest, TopUpOnlyMintsMissingVectors) {
  // Starting from an already-complete set, top_up mints nothing.
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  std::vector<std::vector<bool>> vectors;
  const std::size_t minted = analyzer.top_up(vectors, 2);
  EXPECT_GT(minted, 0u);
  EXPECT_EQ(vectors.size(), minted);
  std::vector<std::vector<bool>> again = vectors;
  EXPECT_EQ(analyzer.top_up(again, 2), 0u);
  EXPECT_EQ(again.size(), vectors.size());
}

TEST(NDetectTest, DeterministicAcrossWorkerCounts) {
  const netlist::Circuit c = netlist::make_alu181();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectOptions serial;
  serial.jobs = 1;
  analysis::NDetectOptions wide;
  wide.jobs = 4;
  analysis::NDetectAnalyzer a1(c, faults, serial);
  analysis::NDetectAnalyzer a4(c, faults, wide);

  std::vector<std::vector<bool>> v1 = sample_vectors(c.num_inputs(), 8, 42);
  std::vector<std::vector<bool>> v4 = v1;
  EXPECT_EQ(a1.top_up(v1, 3), a4.top_up(v4, 3));
  EXPECT_EQ(v1, v4);  // identical minted vectors, identical order

  const auto r1 = a1.report(v1, 3);
  const auto r4 = a4.report(v4, 3);
  ASSERT_EQ(r1.faults.size(), r4.faults.size());
  for (std::size_t i = 0; i < r1.faults.size(); ++i) {
    EXPECT_EQ(r1.faults[i].detections, r4.faults[i].detections);
    EXPECT_EQ(r1.faults[i].cts_size, r4.faults[i].cts_size);
    EXPECT_EQ(r1.faults[i].target, r4.faults[i].target);
    EXPECT_EQ(r1.faults[i].cts_coverage, r4.faults[i].cts_coverage);
  }
  // Serialized documents are byte-identical (the serving contract).
  EXPECT_EQ(analysis::ndetect_report_to_json(r1).dump(0),
            analysis::ndetect_report_to_json(r4).dump(0));
}

TEST(NDetectTest, ZeroVectorsCountNothing) {
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  const std::vector<std::vector<bool>> none;
  for (const std::uint64_t count : analyzer.detection_counts(none)) {
    EXPECT_EQ(count, 0u);
  }
  const auto report = analyzer.report(none, 1);
  EXPECT_EQ(report.num_vectors, 0u);
  EXPECT_EQ(report.total_detections(), 0u);
  EXPECT_FALSE(report.complete());  // c17 has detectable faults
  EXPECT_EQ(report.mean_cts_coverage(), 0.0);
}

TEST(NDetectTest, TargetZeroIsTriviallyComplete) {
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  std::vector<std::vector<bool>> vectors;
  EXPECT_EQ(analyzer.top_up(vectors, 0), 0u);
  EXPECT_TRUE(vectors.empty());
  const auto report = analyzer.report(vectors, 0);
  EXPECT_TRUE(report.complete());
  for (const analysis::NDetectFaultRecord& r : report.faults) {
    EXPECT_EQ(r.target, 0u);
  }
}

TEST(NDetectTest, DuplicateVectorsCountOnce) {
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  std::vector<std::vector<bool>> vectors = sample_vectors(c.num_inputs(), 4, 9);
  const auto once = analyzer.detection_counts(vectors);
  const std::vector<std::vector<bool>> copy = vectors;
  vectors.insert(vectors.end(), copy.begin(), copy.end());  // 2x dupes
  EXPECT_EQ(analyzer.detection_counts(vectors), once);
}

TEST(NDetectTest, QuotaClampsToCtsSize) {
  // Asking for more detections than a fault's CTS holds clamps the quota
  // to |CTS|; top_up must still terminate and reach it.
  const netlist::Circuit c = netlist::make_c17();
  const auto faults = fault::collapse_checkpoint_faults(c);
  analysis::NDetectAnalyzer analyzer(c, faults);
  const std::size_t huge = 1u << c.num_inputs();  // >= any CTS
  std::vector<std::vector<bool>> vectors;
  analyzer.top_up(vectors, huge);
  const auto counts = analyzer.detection_counts(vectors);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(static_cast<double>(analyzer.quota(i, huge)),
              analyzer.cts_size(i));
    EXPECT_EQ(static_cast<double>(counts[i]), analyzer.cts_size(i));
  }
}

}  // namespace
}  // namespace dp
