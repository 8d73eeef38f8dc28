// Basic types and constants shared by the OBDD package.
//
// The package implements reduced ordered binary decision diagrams (ROBDDs)
// after Bryant, "Graph-based algorithms for Boolean function manipulation",
// IEEE Trans. Comput. C-35(8), 1986 -- the representation used by
// Difference Propagation (Butler & Mercer, DAC 1990) -- extended with
// CUDD-style complement edges (Brace/Rudell/Bryant, DAC 1990).
//
// Edge encoding: a NodeIndex is an *edge*, not a pool slot. The low bit is
// the complement flag, the remaining bits select the pool slot:
//
//   edge = (slot << 1) | complement
//
// There is a single terminal node at slot 0 denoting TRUE; the constant
// FALSE is its complemented edge. Negation is therefore `edge ^ 1` -- O(1),
// no traversal, no cache traffic. Canonicity requires one extra invariant
// beyond strong reduction: the *else* (lo) edge stored in a node is always
// regular (complement bit clear). `Manager::mk` enforces it by flipping
// both children and returning a complemented edge when the else cofactor
// arrives complemented.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace dp::bdd {

/// An edge into a Manager's node pool: (slot << 1) | complement.
using NodeIndex = std::uint32_t;

/// Variable identifier. Variables are ordered by their numeric value:
/// smaller ids appear closer to the root of every BDD in the manager.
using Var = std::uint32_t;

/// The constants are the two edges into the single terminal at slot 0.
/// TRUE is the regular edge, FALSE its complement.
inline constexpr NodeIndex kTrueNode = 0;
inline constexpr NodeIndex kFalseNode = 1;

/// Sentinel for "no node".
inline constexpr NodeIndex kInvalidNode = std::numeric_limits<NodeIndex>::max();

/// Variable id used for the terminal node; orders after every real variable.
inline constexpr Var kTerminalVar = std::numeric_limits<Var>::max();

/// Sentinel for "no variable".
inline constexpr Var kInvalidVar = std::numeric_limits<Var>::max();

// ---- edge arithmetic ----------------------------------------------------

/// Pool slot an edge points to.
inline constexpr NodeIndex edge_slot(NodeIndex e) { return e >> 1; }

/// 1 when the edge carries a complement, else 0.
inline constexpr NodeIndex edge_complemented(NodeIndex e) { return e & 1u; }

/// The edge with its complement bit cleared.
inline constexpr NodeIndex edge_regular(NodeIndex e) { return e & ~1u; }

/// O(1) negation: flip the complement bit.
inline constexpr NodeIndex edge_negate(NodeIndex e) { return e ^ 1u; }

/// Builds an edge from a pool slot and a complement bit (0 or 1).
inline constexpr NodeIndex make_edge(NodeIndex slot, NodeIndex complement) {
  return (slot << 1) | complement;
}

/// True for both edges into the terminal (kTrueNode / kFalseNode).
inline constexpr bool edge_is_terminal(NodeIndex e) { return e <= kFalseNode; }

/// Thrown when an operation would exceed the manager's node budget.
class OutOfNodes : public std::runtime_error {
 public:
  explicit OutOfNodes(std::size_t limit)
      : std::runtime_error("BDD node budget exceeded (limit = " +
                           std::to_string(limit) + " nodes)") {}
};

/// Thrown on API misuse (mixing managers, invalid variable ids, ...).
class BddError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// One decision node. `lo` is the cofactor edge for var=0, `hi` for var=1;
/// both are edges (complement bit in the low bit), and the canonical form
/// keeps `lo` regular. `next` threads the node's *slot* into its
/// unique-table hash chain.
struct Node {
  Var var = kTerminalVar;
  NodeIndex lo = kInvalidNode;
  NodeIndex hi = kInvalidNode;
  NodeIndex next = kInvalidNode;
};

/// Operation codes for the binary apply cache. With complement edges all
/// OR traffic is folded into AND entries (De Morgan) and negation never
/// touches the cache, so only And/Xor/Exists/Restrict key it.
enum class Op : std::uint8_t {
  And = 0,
  Or = 1,   // public API only; rewritten to ¬(¬a & ¬b) before caching
  Xor = 2,
  Exists = 3,   // f, var id
  Restrict = 4  // f, packed (var, value)
};

/// Counters exposed for benchmarking and regression tests.
struct ManagerStats {
  std::uint64_t apply_calls = 0;      ///< recursive apply invocations
  std::uint64_t cache_hits = 0;       ///< computed-cache hits
  std::uint64_t unique_lookups = 0;   ///< unique-table probes
  std::uint64_t nodes_created = 0;    ///< total nodes ever allocated
  std::uint64_t gc_runs = 0;          ///< mark-sweep executions
  std::uint64_t gc_reclaimed = 0;     ///< nodes reclaimed across all GCs
  std::size_t peak_live_nodes = 0;    ///< high-water mark of live nodes
  /// dec_ref() calls on a node whose external refcount was already zero.
  /// A nonzero value means a double-release bug in the caller; the manager
  /// clamps instead of underflowing so no node becomes immortal.
  std::uint64_t ref_underflows = 0;
  /// negate() calls served by the O(1) complement-bit flip. Under the
  /// complement-edge kernel this is *every* negation; the counter exists so
  /// metrics documents can show the traversal-free win explicitly.
  std::uint64_t negations_constant_time = 0;
  /// Commutative operand pairs reordered (a <= b) before keying the
  /// computed cache; each swap is a collision class merged.
  std::uint64_t cache_canonical_swaps = 0;
  /// Computed-cache size changes: doublings as the live set grows, and
  /// right-sizings to the survivors at a collection.
  std::uint64_t cache_resizes = 0;

  /// Computed-cache hits as a fraction of recursive operation entries.
  double cache_hit_rate() const {
    return apply_calls > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(apply_calls)
               : 0.0;
  }
};

}  // namespace dp::bdd
