// Levelized, wide bit-parallel stuck-at fault simulation: the one
// production simulation kernel. A block holds 256 patterns (four 64-bit
// words, plain loops the compiler auto-vectorizes). The good circuit is
// evaluated once per block over a flattened levelized schedule; per fault,
// the difference is injected at the site and chased through the fanout
// cone with epoch-stamped scratch values until it dies (parallel-pattern
// single-fault propagation, with fault dropping). Three pattern sources
// feed the one block loop: a seeded random stream (the prefilter in front
// of exact DP, analysis/hybrid.hpp), explicit vectors (ATPG grading,
// n-detect recounts) and all 2^n inputs (the exhaustive baseline the paper
// compares DP against). The naive reference that checks this engine is
// verify/reference_sim.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"

namespace dp::sim {

using fault::StuckAtFault;
using netlist::Circuit;
using netlist::NetId;

using Word = std::uint64_t;

inline constexpr std::size_t kWideWords = 4;
/// Patterns per simulation block.
inline constexpr std::size_t kWideLanes = 64 * kWideWords;

/// 256 lane-packed patterns: bit L of word W is pattern W*64 + L of the
/// block.
struct WideWord {
  std::array<Word, kWideWords> w{};

  friend bool operator==(const WideWord&, const WideWord&) = default;
};

/// Grading policy for the wide engine.
struct WideSimOptions {
  /// Stop simulating a fault after the block of its first detection.
  /// Turning this off keeps exact detection counts over the whole
  /// pattern set (n-detect analytics) at the cost of simulating every
  /// fault against every block.
  bool drop_detected = true;
};

class WideFaultSimulator {
 public:
  explicit WideFaultSimulator(const Circuit& circuit);

  const Circuit& circuit() const { return *circuit_; }

  using Options = WideSimOptions;

  static constexpr std::uint64_t kNotDetected = ~std::uint64_t{0};

  struct Grade {
    std::size_t total = 0;         ///< faults graded
    std::size_t num_patterns = 0;  ///< patterns applied
    /// Detections observed per fault (pattern granularity). With dropping
    /// on, counting stops at the end of the fault's first detecting block.
    std::vector<std::uint64_t> detection_counts;
    /// Pattern index of the first detection, kNotDetected if none. Exact
    /// regardless of dropping (dropping only skips post-detection blocks).
    std::vector<std::uint64_t> first_detection;
    /// Faulty-value evaluations per circuit level (index = longest path
    /// from a PI; PIs are level 0): one count per difference injection and
    /// per touched cone-gate evaluation. Deterministic for a fixed fault
    /// list / pattern stream, and a direct picture of how deep differences
    /// travel before dying.
    std::vector<std::uint64_t> level_events;

    std::size_t detected() const;
    /// Total faulty-value evaluations (sum of level_events).
    std::uint64_t events() const;
  };

  /// Random-pattern grading; the pattern stream for a given (num_patterns,
  /// seed) is fixed and reproducible via random_patterns().
  Grade grade_random(const std::vector<StuckAtFault>& faults,
                     std::size_t num_patterns, std::uint64_t seed,
                     const Options& options = {}) const;

  /// Grades an explicit vector set (vectors indexed by PI position).
  Grade grade_vectors(const std::vector<StuckAtFault>& faults,
                      const std::vector<std::vector<bool>>& vectors,
                      const Options& options = {}) const;

  /// Exhaustive grading over all 2^n input vectors: pattern v assigns bit
  /// i of v to PI i (PI 0 = LSB), so lane l of word j in block B is
  /// vector B*256 + j*64 + l. Throws std::invalid_argument above
  /// kMaxExhaustiveInputs inputs.
  Grade grade_exhaustive(const std::vector<StuckAtFault>& faults,
                         const Options& options = {}) const;

  static constexpr std::size_t kMaxExhaustiveInputs = 26;

  /// The exact pattern stream grade_random(n, seed) applies, as explicit
  /// vectors: element p is pattern p of the stream. Lets ATPG materialize
  /// the vectors behind recorded first_detection indices.
  std::vector<std::vector<bool>> random_patterns(std::size_t num_patterns,
                                                 std::uint64_t seed) const;

 private:
  /// One flattened schedule entry: a non-PI net and its fanin slice.
  struct GateRef {
    NetId net = netlist::kInvalidNet;
    netlist::GateType type = netlist::GateType::Input;
    std::uint32_t fanin_begin = 0;
    std::uint32_t fanin_count = 0;
  };

  /// Per-fault propagation plan: injection site plus the cone schedule.
  struct FaultPlan {
    bool is_branch = false;
    NetId site = netlist::kInvalidNet;  ///< stem net, or the fed gate for a branch
    std::uint32_t pin = 0;     ///< branch only
    Word forced = 0;           ///< stuck value replicated across lanes
    std::vector<std::uint32_t> cone;  ///< schedule indices, topo order
    std::vector<NetId> observe;       ///< POs the difference can reach
  };

  FaultPlan make_plan(const StuckAtFault& f) const;

  /// Evaluates one schedule entry; `fanin_value(k)` supplies fanin k.
  template <typename FaninValue>
  static WideWord eval_entry(const GateRef& g, FaninValue&& fanin_value);

  template <typename LoadBlock>
  Grade run(const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
            const Options& options, LoadBlock&& load_block) const;

  const Circuit* circuit_;
  std::vector<GateRef> schedule_;  ///< topo order over non-PI nets
  std::vector<NetId> fanin_flat_;
  /// Per net: its index in schedule_, or kNotScheduled for PIs.
  std::vector<std::uint32_t> schedule_index_;
  /// Per net: longest path (in gate levels) from any PI; PIs are 0.
  std::vector<std::uint32_t> net_level_;
  std::size_t num_levels_ = 0;  ///< deepest level + 1

  static constexpr std::uint32_t kNotScheduled = 0xffffffffu;
};

}  // namespace dp::sim
