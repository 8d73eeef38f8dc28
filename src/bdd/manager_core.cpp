// Manager construction, unique table, allocation, references, garbage
// collection. The Boolean operations live in manager_ops.cpp; read-only
// queries live in manager_query.cpp.
#include "bdd/manager.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "bdd/frozen_forest.hpp"

namespace dp::bdd {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Process-wide manager id sequence for profiler series names.
std::atomic<std::uint64_t> g_next_profile_id{0};

}  // namespace

Manager::Manager(std::size_t num_vars, std::size_t max_nodes)
    : num_vars_(num_vars), max_nodes_(max_nodes) {
  var_at_level_.resize(num_vars_);
  level_of_var_.resize(num_vars_);
  for (std::size_t i = 0; i < num_vars_; ++i) {
    var_at_level_[i] = static_cast<Var>(i);
    level_of_var_[i] = i;
  }
  if (max_nodes_ < 16) max_nodes_ = 16;
  // Edges spend one bit on the complement flag; slots must fit in 31 bits.
  max_nodes_ = std::min<std::size_t>(max_nodes_, edge_slot(kInvalidNode));
  nodes_.reserve(1024);
  ext_refs_.reserve(1024);

  // The single terminal (TRUE) occupies slot 0; FALSE is its complemented
  // edge. It is labelled with kTerminalVar so every real variable tests
  // before it, and it is never entered in the unique table nor swept.
  nodes_.push_back(Node{kTerminalVar, kTrueNode, kTrueNode, kInvalidNode});
  ext_refs_.assign(1, 0);
  live_nodes_ = 1;
  gc_threshold_floor_ = 1u << 22;
  gc_threshold_ = gc_threshold_floor_;

  rehash_unique(1u << 12);

  profile_id_ = g_next_profile_id.fetch_add(1, std::memory_order_relaxed);
  obs::SourceRegistry::instance().add(this);
}

Manager::Manager(std::shared_ptr<const FrozenForest> frozen,
                 std::size_t max_nodes)
    : max_nodes_(max_nodes), frozen_(std::move(frozen)) {
  if (!frozen_) {
    throw BddError("Manager(frozen): null forest");
  }
  // The frozen prefix occupies slots [0, frozen_base_), terminal included,
  // so the private pool starts empty: slot g maps to private index
  // g - frozen_base_ and every formula below degenerates to the standalone
  // case when frozen_base_ == 0.
  frozen_nodes_data_ = frozen_->nodes_data();
  frozen_base_ = static_cast<NodeIndex>(frozen_->size());
  num_vars_ = frozen_->num_vars();
  var_at_level_ = frozen_->variable_order();
  level_of_var_.resize(num_vars_);
  for (std::size_t level = 0; level < num_vars_; ++level) {
    level_of_var_[var_at_level_[level]] = level;
  }
  if (max_nodes_ < 16) max_nodes_ = 16;
  max_nodes_ = std::min<std::size_t>(max_nodes_, edge_slot(kInvalidNode));
  nodes_.reserve(1024);
  ext_refs_.reserve(1024);
  live_nodes_ = 0;
  gc_threshold_floor_ = 1u << 22;
  gc_threshold_ = gc_threshold_floor_;

  rehash_unique(1u << 12);

  profile_id_ = g_next_profile_id.fetch_add(1, std::memory_order_relaxed);
  obs::SourceRegistry::instance().add(this);
}

Manager::~Manager() {
  // Unregister before any member is torn down: the profiler thread holds
  // the registry mutex across collect(), so after remove() returns no
  // sample can still be reading this manager.
  obs::SourceRegistry::instance().remove(this);
}

void Manager::profile_sample(
    std::vector<std::pair<std::string, double>>& out) const {
  const std::string prefix = "bdd.mgr" + std::to_string(profile_id_);
  const double live = static_cast<double>(live_nodes_);
  out.emplace_back(prefix + ".live_nodes", live);
  if (!unique_.empty()) {
    out.emplace_back(prefix + ".unique_load",
                     live / static_cast<double>(unique_.size()));
  }
  if (stats_.apply_calls > 0) {
    out.emplace_back(prefix + ".cache_hit_rate",
                     static_cast<double>(stats_.cache_hits) /
                         static_cast<double>(stats_.apply_calls));
  }
}

Var Manager::new_var() {
  const Var v = static_cast<Var>(num_vars_++);
  var_at_level_.push_back(v);
  level_of_var_.push_back(level_of_var_.size());
  return v;
}

Bdd Manager::var(Var v) {
  if (v >= num_vars_) throw BddError("var(): variable id out of range");
  return make(mk(v, kFalseNode, kTrueNode));
}

Bdd Manager::nvar(Var v) {
  if (v >= num_vars_) throw BddError("nvar(): variable id out of range");
  return make(mk(v, kTrueNode, kFalseNode));
}

std::size_t Manager::unique_bucket(Var v, NodeIndex lo_child,
                                   NodeIndex hi_child) const {
  std::uint64_t key = static_cast<std::uint64_t>(v);
  key = key * 0x100000001b3ull ^ lo_child;
  key = key * 0x100000001b3ull ^ hi_child;
  key *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(key >> 32) & unique_mask_;
}

void Manager::rehash_unique(std::size_t bucket_count) {
  // Only private nodes are chained; frozen nodes are found through the
  // forest's own immutable index (FrozenForest::find), which mk() probes
  // first. Heads and chains store global slots.
  bucket_count = next_pow2(std::max<std::size_t>(bucket_count, 16));
  unique_.assign(bucket_count, kInvalidNode);
  unique_mask_ = bucket_count - 1;
  for (NodeIndex i = first_private_index(); i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.var == kTerminalVar) continue;  // free-list entry
    std::size_t b = unique_bucket(n.var, n.lo, n.hi);
    n.next = unique_[b];
    unique_[b] = frozen_base_ + i;
  }
}

NodeIndex Manager::allocate_node() {
  if (free_list_ != kInvalidNode) {
    NodeIndex idx = free_list_;
    free_list_ = node_mut(idx).next;
    ++live_nodes_;
    return idx;
  }
  // max_nodes_ budgets the combined space, so the frozen prefix counts
  // against it: a shared universe must not grow past the same ceiling an
  // unshared one would have hit.
  if (frozen_base_ + nodes_.size() >= max_nodes_) throw OutOfNodes(max_nodes_);
  nodes_.push_back(Node{});
  ext_refs_.push_back(0);
  ++live_nodes_;
  return frozen_base_ + static_cast<NodeIndex>(nodes_.size() - 1);
}

NodeIndex Manager::mk(Var v, NodeIndex lo_child, NodeIndex hi_child) {
  if (lo_child == hi_child) return lo_child;  // reduction rule

  // Canonical regular-else form: a complemented else cofactor is factored
  // out of the node -- ite(v, h, ¬l') = ¬ite(v, ¬h, l') -- so exactly one
  // stored triple (and one complement bit) represents each function pair.
  const NodeIndex out_c = edge_complemented(lo_child);
  lo_child ^= out_c;
  hi_child ^= out_c;

  ++stats_.unique_lookups;

  // A node whose children both live in the frozen prefix may itself be
  // frozen; probing the forest's immutable index first keeps the combined
  // space strongly reduced and lets Δ functions reuse shared structure
  // instead of duplicating it privately. (Children outside the prefix
  // cannot appear in the forest, so the probe is skipped.)
  if (frozen_base_ != 0 && edge_slot(lo_child) < frozen_base_ &&
      edge_slot(hi_child) < frozen_base_) {
    const NodeIndex f = frozen_->find(v, lo_child, hi_child);
    if (f != kInvalidNode) return make_edge(f, out_c);
  }

  std::size_t b = unique_bucket(v, lo_child, hi_child);
  for (NodeIndex i = unique_[b]; i != kInvalidNode; i = node(i).next) {
    const Node& n = node(i);
    if (n.var == v && n.lo == lo_child && n.hi == hi_child) {
      return make_edge(i, out_c);
    }
  }

  NodeIndex idx = allocate_node();
  Node& n = node_mut(idx);
  n.var = v;
  n.lo = lo_child;
  n.hi = hi_child;
  n.next = unique_[b];
  unique_[b] = idx;
  ++stats_.nodes_created;
  stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, live_nodes_);

  if (live_nodes_ > unique_.size()) {
    rehash_unique(unique_.size() * 2);
  }
  // The computed cache tracks the live set the same way, keeping its
  // entries across the doubling.
  if (live_nodes_ > cache_.size() &&
      cache_.size() < ComputedCache::kMaxSlots) {
    cache_.grow();
    ++stats_.cache_resizes;
  }
  return make_edge(idx, out_c);
}

void Manager::inc_ref(NodeIndex idx) {
  const NodeIndex slot = edge_slot(idx);
  if (slot < frozen_base_) return;  // frozen prefix is immortal
  const NodeIndex pi = slot - frozen_base_;
  if (pi >= nodes_.size()) throw BddError("inc_ref(): bad node index");
  ++ext_refs_[pi];
}

void Manager::dec_ref(NodeIndex idx) {
  const NodeIndex slot = edge_slot(idx);
  if (slot < frozen_base_) return;  // frozen prefix is immortal
  const NodeIndex pi = slot - frozen_base_;
  if (pi >= nodes_.size()) throw BddError("dec_ref(): bad node index");
  // A release without a matching reference is a caller bug (double
  // release). The unsigned counter must never wrap: an underflowed
  // refcount pins the node -- and its whole cone -- forever, silently
  // leaking pool capacity. Clamp at zero and count the incident so tests
  // and the engine stats layer can fail loudly; dec_ref runs inside Bdd
  // destructors, where throwing would terminate during unwinding.
  if (ext_refs_[pi] == 0) {
    ++stats_.ref_underflows;
    return;
  }
  --ext_refs_[pi];
}

void Manager::mark_from_roots(std::vector<bool>& marked) const {
  // Reachability is polarity-blind, so marking works on slots: both edges
  // into a slot keep the same node alive. `marked` is indexed by private
  // index; the frozen prefix is immortal and never enters the walk.
  marked.assign(nodes_.size(), false);
  if (frozen_base_ == 0) marked[0] = true;  // terminal
  std::vector<NodeIndex> stack;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (ext_refs_[i] > 0 && !marked[i]) {
      stack.push_back(i);
      marked[i] = true;
    }
  }
  while (!stack.empty()) {
    NodeIndex i = stack.back();
    stack.pop_back();
    const Node& n = nodes_[i];
    if (n.var == kTerminalVar) continue;
    for (const NodeIndex child : {n.lo, n.hi}) {
      const NodeIndex slot = edge_slot(child);
      if (slot < frozen_base_) continue;  // frozen children never die
      const NodeIndex pi = slot - frozen_base_;
      if (!marked[pi]) {
        marked[pi] = true;
        stack.push_back(pi);
      }
    }
  }
}

std::size_t Manager::count_live_from_roots() const {
  std::vector<bool> marked;
  mark_from_roots(marked);
  // The frozen prefix is reachable by construction (freeze() packed
  // exactly the reachable cone), so it counts in full.
  std::size_t count = frozen_base_;
  for (bool m : marked) count += m;
  return count;
}

void Manager::check_canonical() const {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(live_nodes_ * 2);
  const std::size_t total = pool_size();
  for (NodeIndex i = first_private_index(); i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kTerminalVar) continue;  // free-list entry
    const std::string at =
        " (slot " + std::to_string(frozen_base_ + i) + ")";
    if (n.var >= num_vars_) {
      throw BddError("check_canonical(): variable id out of range" + at);
    }
    if (edge_complemented(n.lo)) {
      throw BddError("check_canonical(): stored else-edge is complemented" +
                     at);
    }
    if (n.lo == n.hi) {
      throw BddError("check_canonical(): unreduced node (lo == hi)" + at);
    }
    if (edge_slot(n.lo) >= total || edge_slot(n.hi) >= total) {
      throw BddError("check_canonical(): dangling child slot" + at);
    }
    for (const NodeIndex child : {n.lo, n.hi}) {
      const Var cv = node(edge_slot(child)).var;
      if (cv != kTerminalVar && level_of_var_[cv] <= level_of_var_[n.var]) {
        throw BddError(
            "check_canonical(): child level not below parent level" + at);
      }
      if (cv == kTerminalVar && edge_slot(child) != 0) {
        throw BddError("check_canonical(): edge into a free-list slot" + at);
      }
    }
    // A private node whose triple already exists in the frozen prefix
    // breaks strong reduction of the combined space: mk() should have
    // returned the frozen slot.
    if (frozen_base_ != 0 && edge_slot(n.lo) < frozen_base_ &&
        edge_slot(n.hi) < frozen_base_ &&
        frozen_->find(n.var, n.lo, n.hi) != kInvalidNode) {
      throw BddError(
          "check_canonical(): private node duplicates a frozen triple" + at);
    }
    // Triple uniqueness: hash the (var, lo, hi) triple; a collision on the
    // 64-bit digest across a pool this size is vanishingly unlikely and
    // only yields a spurious test failure, never a missed corruption.
    std::uint64_t key = static_cast<std::uint64_t>(n.var);
    key = key * 0x100000001b3ull ^ n.lo;
    key = key * 0x100000001b3ull ^ n.hi;
    key *= 0x9e3779b97f4a7c15ull;
    if (!seen.insert(key).second) {
      throw BddError("check_canonical(): duplicate (var, lo, hi) triple" + at);
    }
  }
}

std::size_t Manager::gc() {
  ++stats_.gc_runs;

  // Mark phase: every node reachable from an externally referenced root.
  std::vector<bool> marked;
  mark_from_roots(marked);

  // Sweep phase: unmarked private decision nodes go to the free list
  // (global slots). The frozen prefix is excluded by construction: it is
  // not in `marked`'s index space and no tombstone can ever land there.
  std::size_t reclaimed = 0;
  free_list_ = kInvalidNode;
  for (NodeIndex i = first_private_index(); i < nodes_.size(); ++i) {
    if (marked[i] || nodes_[i].var == kTerminalVar) {
      // Still live, or already on the (old) free list.
      if (!marked[i] && nodes_[i].var == kTerminalVar) {
        nodes_[i].next = free_list_;
        free_list_ = frozen_base_ + i;
      }
      continue;
    }
    nodes_[i].var = kTerminalVar;  // tombstone marks free-list membership
    nodes_[i].lo = nodes_[i].hi = kInvalidNode;
    nodes_[i].next = free_list_;
    free_list_ = frozen_base_ + i;
    ++reclaimed;
  }
  live_nodes_ -= reclaimed;
  stats_.gc_reclaimed += reclaimed;

  // Caches may reference dead nodes; the unique table must drop them.
  // The computed cache is right-sized to the survivors -- large enough
  // not to thrash, small enough to stay in CPU cache -- and otherwise
  // invalidated in O(1); mk() grows it again as the live set grows.
  const std::size_t want_cache =
      std::clamp(next_pow2(live_nodes_), ComputedCache::kMinSlots,
                 ComputedCache::kMaxSlots);
  if (want_cache != cache_.size()) {
    cache_.reset(want_cache);
    ++stats_.cache_resizes;
  } else {
    cache_.invalidate();
  }
  rehash_unique(unique_.size());

  // Re-arm the trigger well above the live baseline so collections happen
  // when a real fraction of the pool is garbage, not every few operations.
  gc_threshold_ = std::max(gc_threshold_floor_, live_nodes_ * 2);
  return reclaimed;
}

void Manager::maybe_gc() {
  // Collect when the adaptive trigger fires, or when the pool approaches
  // the hard budget (so OutOfNodes is only thrown once garbage is gone).
  // The budget covers the combined space, so the immortal frozen prefix
  // counts toward "near".
  const bool near_budget =
      frozen_base_ + live_nodes_ + (max_nodes_ >> 3) >= max_nodes_;
  if (live_nodes_ < gc_threshold_ && !near_budget) return;
  gc();
}

}  // namespace dp::bdd
