// GC-under-pressure stress: with a tiny node budget the manager collects
// constantly, so any stale computed-cache entry, free-list resurrection of
// a referenced node, or live-count drift surfaces immediately. Also the
// refcount-underflow regression: a double release must clamp and be
// counted, never wrap the unsigned counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"

namespace dp::bdd {
namespace {

constexpr std::size_t kVars = 12;
constexpr std::uint64_t kPoints = 1ull << kVars;

std::vector<bool> truth_table(const Bdd& f) {
  std::vector<bool> t(kPoints);
  std::vector<bool> point(kVars);
  for (std::uint64_t v = 0; v < kPoints; ++v) {
    for (std::size_t i = 0; i < kVars; ++i) point[i] = (v >> i) & 1;
    t[v] = f.eval(point);
  }
  return t;
}

/// (var, lo, hi) triples of the DAG under `root`, in DFS order over pool
/// slots (regular edges, so the accessors surface the stored fields).
/// Stable across GC iff no node of the DAG is swept or clobbered.
std::vector<std::uint64_t> dag_snapshot(const Manager& mgr, NodeIndex root) {
  std::vector<std::uint64_t> triples;
  std::vector<NodeIndex> stack{edge_regular(root)};
  std::vector<bool> seen(mgr.pool_size(), false);
  while (!stack.empty()) {
    const NodeIndex e = stack.back();  // always a regular edge
    stack.pop_back();
    const NodeIndex s = edge_slot(e);
    if (s >= seen.size() || seen[s]) continue;
    seen[s] = true;
    triples.push_back((static_cast<std::uint64_t>(mgr.var_of(e)) << 48) ^
                      (static_cast<std::uint64_t>(mgr.lo(e)) << 24) ^
                      mgr.hi(e));
    if (!mgr.is_terminal(e)) {
      stack.push_back(edge_regular(mgr.lo(e)));
      stack.push_back(edge_regular(mgr.hi(e)));
    }
  }
  return triples;
}

TEST(GcStressTest, PressureCollectionsPreserveRootsAndCaches) {
  // ~4000 nodes for 12-var random functions: the pool rides the budget,
  // so every few operations run with maybe_gc() firing near the limit.
  Manager mgr(kVars, /*max_nodes=*/4000);
  std::mt19937_64 rng(0xB00Cu);
  auto rand_var = [&] { return static_cast<Var>(rng() % kVars); };

  std::vector<Bdd> window;          // kept roots (external GC roots)
  std::vector<std::vector<bool>> tables;  // their captured semantics

  std::size_t rounds_done = 0;
  for (std::size_t round = 0; round < 120; ++round) {
    // Grow a random function from literals and (sometimes) a kept root.
    try {
      Bdd f = (rng() & 1) ? mgr.var(rand_var()) : mgr.nvar(rand_var());
      const std::size_t steps = 2 + rng() % 6;
      for (std::size_t s = 0; s < steps; ++s) {
        Bdd g = (!window.empty() && (rng() & 1))
                    ? window[rng() % window.size()]
                    : mgr.var(rand_var());
        switch (rng() % 3) {
          case 0: f = f & g; break;
          case 1: f = f | g; break;
          default: f = f ^ g; break;
        }
      }
      window.push_back(f);
      tables.push_back(truth_table(f));
    } catch (const OutOfNodes&) {
      // Live roots alone hit the budget: shrink the working set and keep
      // stressing -- recovery is part of the contract.
      const std::size_t keep = window.size() / 2;
      window.resize(keep);
      tables.resize(keep);
      mgr.gc();
      continue;
    }
    if (window.size() > 8) {
      window.erase(window.begin());
      tables.erase(tables.begin());
    }

    mgr.gc();
    ++rounds_done;

    // (c) Mark-sweep bookkeeping: the live-node gauge must equal an
    // independent mark from the external roots after every collection.
    ASSERT_EQ(mgr.count_live_from_roots(), mgr.live_nodes())
        << "round " << round;

    // (b) Free-list reuse must never clobber a referenced DAG: the node
    // triples under every kept root are unchanged by post-GC allocations.
    std::vector<std::vector<std::uint64_t>> snaps;
    snaps.reserve(window.size());
    for (const Bdd& w : window) snaps.push_back(dag_snapshot(mgr, w.index()));
    try {
      for (int burn = 0; burn < 10; ++burn) {
        (void)(mgr.var(rand_var()) ^ mgr.var(rand_var()));
      }
    } catch (const OutOfNodes&) {
      // Allocation pressure is the point; a full pool is fine here.
    }
    for (std::size_t i = 0; i < window.size(); ++i) {
      ASSERT_EQ(dag_snapshot(mgr, window[i].index()), snaps[i])
          << "root " << i << " mutated after GC in round " << round;
    }

    // (a) No stale computed-cache hits: operations recomputed after the
    // collection must match the captured pre-GC semantics exactly.
    if (window.size() >= 2) {
      const std::size_t a = rng() % window.size();
      const std::size_t b = rng() % window.size();
      try {
        const Bdd conj = window[a] & window[b];
        const Bdd xorv = window[a] ^ window[b];
        std::vector<bool> point(kVars);
        for (int probe = 0; probe < 64; ++probe) {
          const std::uint64_t v = rng() % kPoints;
          for (std::size_t i = 0; i < kVars; ++i) point[i] = (v >> i) & 1;
          ASSERT_EQ(conj.eval(point), tables[a][v] && tables[b][v])
              << "stale AND after GC, round " << round;
          ASSERT_EQ(xorv.eval(point), tables[a][v] != tables[b][v])
              << "stale XOR after GC, round " << round;
        }
      } catch (const OutOfNodes&) {
      }
    }
    // Kept roots themselves still evaluate to their captured tables.
    std::vector<bool> point(kVars);
    for (std::size_t i = 0; i < window.size(); ++i) {
      for (int probe = 0; probe < 32; ++probe) {
        const std::uint64_t v = rng() % kPoints;
        for (std::size_t k = 0; k < kVars; ++k) point[k] = (v >> k) & 1;
        ASSERT_EQ(window[i].eval(point), tables[i][v])
            << "root " << i << " corrupted in round " << round;
      }
    }
  }

  EXPECT_GT(rounds_done, 50u);
  EXPECT_GT(mgr.stats().gc_runs, 0u);
  EXPECT_EQ(mgr.stats().ref_underflows, 0u);
}

/// True when `f` agrees with `expect` on every assignment of `vars` (all
/// other variables 0); `expect` sees the assignment indexed by Var. A
/// stale cache hit can return an edge into a freed slot, which eval()
/// rejects; that counts as disagreement too.
template <typename Fn>
bool agrees(const Bdd& f, std::size_t nvars, const std::vector<Var>& vars,
            Fn expect) {
  std::vector<bool> point(nvars, false);
  for (std::uint64_t bits = 0; bits < (1ull << vars.size()); ++bits) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      point[vars[i]] = (bits >> i) & 1;
    }
    try {
      if (f.eval(point) != expect(point)) return false;
    } catch (const BddError&) {
      return false;
    }
  }
  return true;
}

TEST(GcStressTest, ReusedSlotNeverHitsAStaleEntry) {
  // A collection frees u's slot and the next allocation refills it with a
  // different function: the (And, x0, u) entry must not answer for it.
  Manager mgr(4);
  const Bdd x0 = mgr.var(0), x2 = mgr.var(2), x3 = mgr.var(3);
  // Two garbage nodes, collected: the free list then hands out its highest
  // slot first, so u below lands above r and is the first slot reused.
  (void)(x0 & x2);
  (void)(x0 & x3);
  mgr.gc();

  NodeIndex u_edge = kInvalidNode;
  {
    Bdd u = x2 ^ x3;
    Bdd r = x0 & u;  // cached under (And, x0, u)
    u_edge = u.index();
  }
  mgr.gc();
  Bdd u2 = x2 | x3;
  ASSERT_EQ(u2.index(), u_edge) << "setup: the freed slot was not reused";

  // Same key, different function: the lookup must miss.
  const std::uint64_t hits = mgr.stats().cache_hits;
  Bdd r2 = x0 & u2;
  EXPECT_EQ(mgr.stats().cache_hits, hits);
  EXPECT_TRUE(agrees(r2, 4, {0, 2, 3}, [](const std::vector<bool>& p) {
    return p[0] && (p[2] || p[3]);
  }));
}

TEST(GcStressTest, EpochWrapNeverRevivesStaleEntries) {
  // Every gc() invalidates the computed cache by bumping a 16-bit epoch,
  // and the table is wiped when the epoch wraps (a cycle of 65535
  // collections). This runs more collections than that. Between them a
  // cached AND and XOR take an operand u whose slot each collection
  // frees and the next iteration refills with the other of two functions,
  // so any stale hit returns the wrong function. Probe entries written
  // once are re-asked exactly one cycle later (anchor x0) and one
  // collection after that (anchor x1), with their operand slots then
  // holding different functions: without the wipe at the wrap those
  // entries would look current again.
  constexpr std::size_t kN = 12;
  constexpr std::size_t kCycle = 65535;
  Manager mgr(kN);
  std::vector<Bdd> x;
  for (Var v = 0; v < kN; ++v) x.push_back(mgr.var(v));

  // Collected garbage so the pool never grows again: after every later
  // collection only the variables are live and the free list is the same,
  // so an identical allocation sequence lands on identical slots.
  for (Var a = 0; a < kN; ++a) {
    for (Var b = a + 1; b < kN; ++b) (void)(x[a] & x[b]);
  }
  mgr.gc();

  std::vector<std::pair<Var, Var>> pairs;
  for (Var a = 6; a < kN; ++a) {
    for (Var b = a + 1; b < kN; ++b) pairs.emplace_back(a, b);
  }
  // Builds x_a ^ x_b (or x_a | x_b) for every pair, in order.
  auto probes = [&](bool use_or) {
    std::vector<Bdd> p;
    for (const auto& [a, b] : pairs) {
      p.push_back(use_or ? (x[a] | x[b]) : (x[a] ^ x[b]));
    }
    return p;
  };
  std::vector<NodeIndex> probe_edges;
  {
    const std::vector<Bdd> p = probes(false);
    for (std::size_t j = 0; j < p.size(); ++j) {
      probe_edges.push_back(p[j].index());
      for (const Var anchor : {Var{0}, Var{1}}) {
        const Bdd r = x[anchor] & p[j];
        const auto [a, b] = pairs[j];
        ASSERT_TRUE(agrees(r, kN, {anchor, a, b},
                           [&](const std::vector<bool>& pt) {
                             return pt[anchor] && (pt[a] != pt[b]);
                           }));
      }
    }
  }
  mgr.gc();

  // Re-asks anchor & probe with every probe slot now holding x_a | x_b.
  auto check_probes = [&](Var anchor) {
    const std::vector<Bdd> p = probes(true);
    for (std::size_t j = 0; j < p.size(); ++j) {
      ASSERT_EQ(p[j].index(), probe_edges[j])
          << "setup: probe slot " << j << " was not reused";
      const Bdd r = x[anchor] & p[j];
      const auto [a, b] = pairs[j];
      ASSERT_TRUE(agrees(r, kN, {anchor, a, b},
                         [&](const std::vector<bool>& pt) {
                           return pt[anchor] && (pt[a] || pt[b]);
                         }))
          << "stale probe entry " << j << " for anchor x" << anchor;
    }
  };

  std::size_t reused = 0;
  NodeIndex prev_u = kInvalidNode;
  for (std::size_t i = 1; i <= kCycle + 1; ++i) {
    if (i == kCycle) check_probes(0);
    if (i == kCycle + 1) check_probes(1);
    if (HasFatalFailure()) return;
    {
      const bool use_or = i % 2 == 1;
      const Bdd u = use_or ? (x[2] | x[3]) : (x[2] ^ x[3]);
      reused += u.index() == prev_u;
      prev_u = u.index();
      const Bdd conj = x[4] & u;
      const Bdd parity = x[5] ^ u;
      auto u_at = [&](const std::vector<bool>& p) {
        return use_or ? (p[2] || p[3]) : (p[2] != p[3]);
      };
      ASSERT_TRUE(agrees(conj, kN, {2, 3, 4},
                         [&](const std::vector<bool>& p) {
                           return p[4] && u_at(p);
                         }))
          << "stale AND after collection " << i;
      ASSERT_TRUE(agrees(parity, kN, {2, 3, 5},
                         [&](const std::vector<bool>& p) {
                           return p[5] != u_at(p);
                         }))
          << "stale XOR after collection " << i;
    }
    mgr.gc();
  }
  EXPECT_GT(mgr.stats().gc_runs, kCycle + 1);
  // Nearly every iteration refilled the same slot with the other function.
  EXPECT_GT(reused, kCycle - 4);
}

TEST(GcStressTest, DoubleReleaseClampsAndStaysCollectable) {
  Manager mgr(4);
  Bdd f = mgr.var(0) & mgr.var(1);
  const NodeIndex idx = f.index();

  // Strip the handle's legitimate reference, then release once too often:
  // the counter must clamp at zero and the incident must be counted --
  // wrapping would pin the node (and its cone) forever.
  mgr.dec_ref(idx);
  EXPECT_EQ(mgr.stats().ref_underflows, 0u);
  mgr.dec_ref(idx);
  EXPECT_EQ(mgr.stats().ref_underflows, 1u);

  // A bad index is a hard error in every build mode.
  EXPECT_THROW(mgr.dec_ref(static_cast<NodeIndex>(mgr.pool_size() + 99)),
               BddError);

  // The clamped node is unreferenced, so GC reclaims it.
  const std::size_t before = mgr.live_nodes();
  EXPECT_GT(mgr.gc(), 0u);
  EXPECT_LT(mgr.live_nodes(), before);
  EXPECT_EQ(mgr.count_live_from_roots(), mgr.live_nodes());
}

TEST(GcStressTest, HandleLifetimesBalanceReferences) {
  // Ordinary RAII usage never trips the underflow counter.
  Manager mgr(6);
  {
    Bdd a = mgr.var(0), b = mgr.var(1);
    Bdd c = (a & b) | (!a & mgr.var(2));
    Bdd d = c;
    d = c ^ b;
    c = std::move(d);
  }
  mgr.gc();
  EXPECT_EQ(mgr.stats().ref_underflows, 0u);
  EXPECT_EQ(mgr.count_live_from_roots(), mgr.live_nodes());
}

}  // namespace
}  // namespace dp::bdd
