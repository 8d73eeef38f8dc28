// Dynamic variable reordering: Rudell-style adjacent-level swap and
// sifting. Node indices are stable across reordering -- a rewritten node
// keeps its slot and its function, only its (var, lo, hi) representation
// changes -- so every live Bdd handle stays valid.
//
// Complement edges add one obligation: a rewritten node's stored else-edge
// must stay regular. The swap preserves it structurally -- the new else
// child is built from w=0 cofactors of the node's *stored* children, and
// the stored else of a canonical node is regular, so the polarity folded
// into those cofactors is always 0 (see the derivation at get_or_make_u).
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "bdd/manager.hpp"

namespace dp::bdd {

namespace {

std::uint64_t child_key(NodeIndex lo, NodeIndex hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

void Manager::swap_adjacent_levels(std::size_t level) {
  if (frozen_base_ != 0) {
    // Reordering rewrites nodes in place; the frozen prefix is shared and
    // immutable, and rewriting private nodes alone would break the level
    // invariant against frozen children.
    throw BddError(
        "swap_adjacent_levels(): manager adopts a frozen forest "
        "(reordering must happen before freeze())");
  }
  if (level + 1 >= num_vars_) {
    throw BddError("swap_adjacent_levels(): level out of range");
  }
  const Var u = var_at_level_[level];      // moves down to level + 1
  const Var w = var_at_level_[level + 1];  // moves up to level

  // Exception safety: all allocation happens before any node is mutated.
  // Reserve the worst case (two fresh children per rewritten node) up
  // front so an OutOfNodes can only fire while the manager is still
  // consistent; collect first if the pool is close to the budget.

  // Partition the u-labeled slots: those with a w-labeled child must be
  // rewritten; the rest keep their representation (u simply sits one
  // level lower now). The map below gives canonical u-nodes by their
  // stored (already regular-else) child pair.
  std::vector<NodeIndex> touched;
  std::unordered_map<std::uint64_t, NodeIndex> u_nodes;  // key -> slot
  auto collect = [&] {
    touched.clear();
    u_nodes.clear();
    for (NodeIndex i = 1; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.var != u) continue;
      if (nodes_[edge_slot(n.lo)].var == w ||
          nodes_[edge_slot(n.hi)].var == w) {
        touched.push_back(i);
      } else {
        u_nodes.emplace(child_key(n.lo, n.hi), i);
      }
    }
  };
  collect();

  // Fresh u-nodes bypass the global unique table (it is stale during the
  // swap); canonicity within level u is kept through u_nodes, including
  // the regular-else rule: a complemented else cofactor is factored out
  // exactly as mk() would.
  auto get_or_make_u = [&](NodeIndex lo_child,
                           NodeIndex hi_child) -> NodeIndex {
    if (lo_child == hi_child) return lo_child;
    const NodeIndex out_c = edge_complemented(lo_child);
    lo_child ^= out_c;
    hi_child ^= out_c;
    const std::uint64_t key = child_key(lo_child, hi_child);
    auto it = u_nodes.find(key);
    if (it != u_nodes.end()) return make_edge(it->second, out_c);
    const NodeIndex idx = allocate_node();
    nodes_[idx] = Node{u, lo_child, hi_child, kInvalidNode};
    ++stats_.nodes_created;
    u_nodes.emplace(key, idx);
    return make_edge(idx, out_c);
  };

  if (nodes_.size() + 2 * touched.size() > max_nodes_) {
    gc();
    // gc() rebuilt the free list; if even reclaiming garbage cannot
    // guarantee room for the worst case, fail before mutating anything.
    std::size_t free_slots = 0;
    for (NodeIndex i = free_list_; i != kInvalidNode; i = nodes_[i].next) {
      ++free_slots;
    }
    if (nodes_.size() - free_slots + 2 * touched.size() > max_nodes_) {
      throw OutOfNodes(max_nodes_);
    }
    // Some collected nodes may have been in our snapshots; re-collect.
    collect();
  }

  for (NodeIndex t : touched) {
    const Node old = nodes_[t];
    const bool lo_w = nodes_[edge_slot(old.lo)].var == w;
    const bool hi_w = nodes_[edge_slot(old.hi)].var == w;
    // Cofactors of the two children on w, with the child edge's polarity
    // folded in. old.lo is regular (canonical form), so the lo-side
    // cofactors are the w-child's stored edges unmodified -- in particular
    // lo0 inherits a regular else, which keeps c0 below regular.
    const NodeIndex lo_c = edge_complemented(old.lo);   // always 0
    const NodeIndex hi_c = edge_complemented(old.hi);
    const NodeIndex lo0 =
        lo_w ? nodes_[edge_slot(old.lo)].lo ^ lo_c : old.lo;
    const NodeIndex lo1 =
        lo_w ? nodes_[edge_slot(old.lo)].hi ^ lo_c : old.lo;
    const NodeIndex hi0 =
        hi_w ? nodes_[edge_slot(old.hi)].lo ^ hi_c : old.hi;
    const NodeIndex hi1 =
        hi_w ? nodes_[edge_slot(old.hi)].hi ^ hi_c : old.hi;
    // f = ite(u, H, L) = ite(w, ite(u, H|w=1, L|w=1), ite(u, H|w=0, L|w=0)).
    const NodeIndex c0 = get_or_make_u(lo0, hi0);
    const NodeIndex c1 = get_or_make_u(lo1, hi1);
    // A node labeled u depends on u, and neither old w-child cofactor can
    // restore independence from w's side without also collapsing on u's,
    // so the rewrite never degenerates (c0 != c1). c0 is regular: lo0 is
    // regular (shown above), so get_or_make_u factored out polarity 0.
    Node& n = nodes_[t];
    n.var = w;
    n.lo = c0;
    n.hi = c1;
  }

  std::swap(var_at_level_[level], var_at_level_[level + 1]);
  std::swap(level_of_var_[u], level_of_var_[w]);

  // Labels and children changed: rebuild the unique table. Cached results
  // still denote the same functions (edges are stable), so keeping them
  // would be correct; they are dropped anyway so that no entry outlives
  // the order it was computed under. The epoch bump makes that O(1).
  rehash_unique(unique_.size());
  cache_.invalidate();
}

void Manager::sift_one_var(Var v, double max_growth) {
  const std::size_t start = level_of_var_[v];
  std::size_t best_level = start;
  std::size_t best_size = count_live_from_roots();
  const std::size_t limit = static_cast<std::size_t>(
      static_cast<double>(best_size) * max_growth);

  std::size_t level = start;
  // Phase 1: sift down to the bottom.
  while (level + 1 < num_vars_) {
    swap_adjacent_levels(level);
    ++level;
    const std::size_t size = count_live_from_roots();
    if (size < best_size) {
      best_size = size;
      best_level = level;
    }
    if (size > limit) break;
  }
  // Phase 2: sift up to the top.
  while (level > 0) {
    swap_adjacent_levels(level - 1);
    --level;
    const std::size_t size = count_live_from_roots();
    if (size < best_size) {
      best_size = size;
      best_level = level;
    }
    if (level < start && size > limit) break;
  }
  // Phase 3: park at the best position seen.
  while (level < best_level) {
    swap_adjacent_levels(level);
    ++level;
  }
  while (level > best_level) {
    swap_adjacent_levels(level - 1);
    --level;
  }
}

std::size_t Manager::sift_reorder(double max_growth) {
  if (frozen_base_ != 0) {
    throw BddError(
        "sift_reorder(): manager adopts a frozen forest "
        "(reordering must happen before freeze())");
  }
  if (max_growth < 1.0) {
    throw BddError("sift_reorder(): max_growth must be >= 1");
  }
  if (num_vars_ < 2) return count_live_from_roots();
  gc();

  // Process variables from the most populated level first (Rudell).
  std::vector<std::size_t> population(num_vars_, 0);
  std::vector<bool> marked;
  mark_from_roots(marked);
  for (NodeIndex i = 1; i < nodes_.size(); ++i) {
    if (marked[i] && nodes_[i].var != kTerminalVar) {
      ++population[level_of_var_[nodes_[i].var]];
    }
  }
  std::vector<Var> order(var_at_level_);
  std::sort(order.begin(), order.end(), [&](Var a, Var b) {
    return population[level_of_var_[a]] > population[level_of_var_[b]];
  });

  for (Var v : order) {
    sift_one_var(v, max_growth);
    gc();  // swaps strand garbage; keep the pool tight while sifting
  }
  return count_live_from_roots();
}

}  // namespace dp::bdd
