// Reference fault simulator: the ground truth the tests and dpfuzz's
// dp_vs_sim arm check exact Difference Propagation and the wide engine
// (sim/wide_sim.hpp) against. Deliberately naive and kept apart from that
// kernel (DESIGN.md §12.5): every fault re-simulates the whole
// circuit, good and faulty, over 64-pattern words, and bridges follow an
// honest Kahn order, so a feedback bridge throws.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "fault/bridging.hpp"
#include "fault/multiple.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"

namespace dp::verify {

/// A complete test set as a bitmap over all 2^n input vectors. Vector v
/// assigns bit i of v to PI i (PI 0 = LSB).
struct TestSet {
  /// Bit v % 64 of words[v / 64] is set iff vector v detects the fault.
  std::vector<std::uint64_t> words;
  std::uint64_t size = 0;  ///< number of input vectors, 2^n

  bool contains(std::uint64_t v) const { return (words[v / 64] >> (v % 64)) & 1u; }
  /// Detecting vectors: the bitmap's popcount.
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t w : words) n += std::popcount(w);
    return n;
  }
  /// Exact detectability, count() / 2^n.
  double detectability() const {
    return static_cast<double>(count()) / static_cast<double>(size);
  }
};

class ReferenceSimulator {
 public:
  /// Guards the 2^n sweeps (time and bitmap memory).
  static constexpr std::size_t kMaxInputs = 26;

  /// Keeps a reference to `circuit`, which must be finalized.
  explicit ReferenceSimulator(const netlist::Circuit& circuit);

  /// One 2^n sweep. Throws std::invalid_argument above kMaxInputs inputs,
  /// netlist::NetlistError for a branch fault on a pin its gate lacks (a
  /// zero-fanin gate has none), std::logic_error for a feedback bridge.
  TestSet test_set(const fault::StuckAtFault& f) const;
  TestSet test_set(const fault::BridgingFault& f) const;
  TestSet test_set(const fault::MultipleStuckAtFault& f) const;

  /// Exact signal probability of `net`: the fraction of the 2^n vectors
  /// that set it to 1.
  double syndrome(netlist::NetId net) const;

  /// PO values, in circuit outputs() order, under one input vector
  /// (indexed by PI position), fault-free or with `f` injected.
  std::vector<bool> outputs(const std::vector<bool>& pattern) const;
  std::vector<bool> outputs(const std::vector<bool>& pattern,
                            const fault::StuckAtFault& f) const;
  std::vector<bool> outputs(const std::vector<bool>& pattern,
                            const fault::BridgingFault& f) const;

 private:
  const netlist::Circuit& circuit_;
};

}  // namespace dp::verify
