// Unit tests for the OBDD package: canonicity, Boolean algebra laws,
// counting, quantification, memory management.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <sstream>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/dot_export.hpp"
#include "bdd/frozen_forest.hpp"

namespace dp::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  Manager mgr{8};
  Bdd x0 = mgr.var(0);
  Bdd x1 = mgr.var(1);
  Bdd x2 = mgr.var(2);
};

TEST_F(BddTest, TerminalsAreDistinctConstants) {
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_TRUE(mgr.one().is_one());
  EXPECT_NE(mgr.zero(), mgr.one());
  EXPECT_TRUE(mgr.zero().is_constant());
}

TEST_F(BddTest, VariablesAreCanonical) {
  EXPECT_EQ(x0, mgr.var(0));
  EXPECT_NE(x0, x1);
  EXPECT_EQ(mgr.nvar(0), !x0);
}

TEST_F(BddTest, VarOutOfRangeThrows) {
  EXPECT_THROW(mgr.var(8), BddError);
  EXPECT_THROW(mgr.nvar(100), BddError);
}

TEST_F(BddTest, BasicAlgebra) {
  EXPECT_EQ(x0 & mgr.one(), x0);
  EXPECT_EQ(x0 & mgr.zero(), mgr.zero());
  EXPECT_EQ(x0 | mgr.zero(), x0);
  EXPECT_EQ(x0 | mgr.one(), mgr.one());
  EXPECT_EQ(x0 ^ x0, mgr.zero());
  EXPECT_EQ(x0 ^ mgr.one(), !x0);
  EXPECT_EQ(x0 & x0, x0);
  EXPECT_EQ(x0 | x0, x0);
}

TEST_F(BddTest, CommutativityAndAssociativity) {
  EXPECT_EQ(x0 & x1, x1 & x0);
  EXPECT_EQ(x0 | x1, x1 | x0);
  EXPECT_EQ(x0 ^ x1, x1 ^ x0);
  EXPECT_EQ((x0 & x1) & x2, x0 & (x1 & x2));
  EXPECT_EQ((x0 | x1) | x2, x0 | (x1 | x2));
  EXPECT_EQ((x0 ^ x1) ^ x2, x0 ^ (x1 ^ x2));
}

TEST_F(BddTest, DeMorgan) {
  EXPECT_EQ(!(x0 & x1), (!x0) | (!x1));
  EXPECT_EQ(!(x0 | x1), (!x0) & (!x1));
}

TEST_F(BddTest, DoubleNegation) { EXPECT_EQ(!!x0, x0); }

TEST_F(BddTest, Distribution) {
  EXPECT_EQ(x0 & (x1 | x2), (x0 & x1) | (x0 & x2));
  EXPECT_EQ(x0 | (x1 & x2), (x0 | x1) & (x0 | x2));
}

TEST_F(BddTest, IteMatchesDefinition) {
  Bdd f = x0.ite(x1, x2);
  EXPECT_EQ(f, (x0 & x1) | ((!x0) & x2));
  EXPECT_EQ(mgr.one().ite(x1, x2), x1);
  EXPECT_EQ(mgr.zero().ite(x1, x2), x2);
  EXPECT_EQ(x0.ite(x1, x1), x1);
}

TEST_F(BddTest, XorViaIte) { EXPECT_EQ(x0 ^ x1, x0.ite(!x1, x1)); }

TEST_F(BddTest, SatCountSimple) {
  EXPECT_DOUBLE_EQ(mgr.zero().sat_count(3), 0.0);
  EXPECT_DOUBLE_EQ(mgr.one().sat_count(3), 8.0);
  EXPECT_DOUBLE_EQ(x0.sat_count(3), 4.0);
  EXPECT_DOUBLE_EQ((x0 & x1).sat_count(3), 2.0);
  EXPECT_DOUBLE_EQ((x0 | x1).sat_count(3), 6.0);
  EXPECT_DOUBLE_EQ((x0 ^ x1).sat_count(2), 2.0);
}

TEST_F(BddTest, SatCountRejectsTooFewVars) {
  EXPECT_THROW(x2.sat_count(1), BddError);
}

TEST_F(BddTest, DensityIsNormalizedSatCount) {
  EXPECT_DOUBLE_EQ((x0 & x1).density(8), 0.25);
  EXPECT_DOUBLE_EQ(mgr.one().density(8), 1.0);
}

TEST_F(BddTest, SupportListsDependentVariablesOnly) {
  Bdd f = (x0 & x2) | (!x0 & x2);  // == x2
  EXPECT_EQ(f, x2);
  EXPECT_EQ(f.support(), (std::vector<Var>{2}));
  Bdd g = x0 ^ x1 ^ x2;
  EXPECT_EQ(g.support(), (std::vector<Var>{0, 1, 2}));
  EXPECT_TRUE(mgr.one().support().empty());
}

TEST_F(BddTest, EvalWalksCofactors) {
  Bdd f = (x0 & x1) | x2;
  EXPECT_TRUE(f.eval({true, true, false, false, false, false, false, false}));
  EXPECT_FALSE(f.eval({true, false, false, false, false, false, false, false}));
  EXPECT_TRUE(f.eval({false, false, true, false, false, false, false, false}));
}

TEST_F(BddTest, SatOneReturnsSatisfyingCube) {
  Bdd f = (x0 & !x1) | (x1 & x2);
  auto cube = f.sat_one();
  ASSERT_EQ(cube.size(), mgr.num_vars());
  std::vector<bool> point(mgr.num_vars(), false);
  for (std::size_t i = 0; i < cube.size(); ++i) point[i] = cube[i] == 1;
  EXPECT_TRUE(f.eval(point));
  EXPECT_TRUE(mgr.zero().sat_one().empty());
  // All-don't-care cube for the tautology.
  for (signed char c : mgr.one().sat_one()) EXPECT_EQ(c, -1);
}

TEST_F(BddTest, RestrictIsCofactor) {
  Bdd f = (x0 & x1) | (!x0 & x2);
  EXPECT_EQ(f.restrict_var(0, true), x1);
  EXPECT_EQ(f.restrict_var(0, false), x2);
  // Restricting an absent variable is the identity.
  EXPECT_EQ(f.restrict_var(5, true), f);
}

TEST_F(BddTest, ExistsQuantifies) {
  Bdd f = x0 & x1;
  EXPECT_EQ(f.exists(0), x1);
  EXPECT_EQ(f.exists(5), f);
  Bdd g = x0 ^ x1;
  EXPECT_EQ(g.exists(0), mgr.one());
}

TEST_F(BddTest, ComposeSubstitutes) {
  Bdd f = x0 & x1;
  EXPECT_EQ(f.compose(1, x2), x0 & x2);
  EXPECT_EQ(f.compose(1, !x0), mgr.zero());
  Bdd g = x0 ^ x1;
  EXPECT_EQ(g.compose(0, x1), mgr.zero());
  // Substituting into an absent variable is the identity.
  EXPECT_EQ(f.compose(5, x2), f);
}

TEST_F(BddTest, ImpliesPredicate) {
  EXPECT_TRUE((x0 & x1).implies(x0));
  EXPECT_FALSE(x0.implies(x0 & x1));
  EXPECT_TRUE(mgr.zero().implies(x0));
}

TEST_F(BddTest, DagSizeCountsNodes) {
  EXPECT_EQ(mgr.zero().dag_size(), 1u);  // just the shared terminal
  EXPECT_EQ(x0.dag_size(), 2u);          // node + terminal
  // Parity needs ONE node per level under complement edges (the classic
  // 2x saving: even and odd parity share slots, differing only in edge
  // polarity) plus the terminal.
  Bdd f = x0 ^ x1 ^ x2;
  EXPECT_EQ(f.dag_size(), 3 + 1u);
}

TEST_F(BddTest, NegationSharesSlotsAndIsConstantTime) {
  // A function and its negation are the same DAG, opposite root polarity.
  Bdd f = (x0 & x1) | x2;
  Bdd g = !f;
  EXPECT_EQ(f.dag_size(), g.dag_size());
  EXPECT_EQ(f.index() ^ 1u, g.index());
  const std::uint64_t applies_before = mgr.stats().apply_calls;
  const std::uint64_t negs_before = mgr.stats().negations_constant_time;
  Bdd h = !g;
  EXPECT_EQ(h, f);
  // negate() must not enter the recursive apply path at all.
  EXPECT_EQ(mgr.stats().apply_calls, applies_before);
  EXPECT_EQ(mgr.stats().negations_constant_time, negs_before + 1);
}

TEST_F(BddTest, CommutativeCacheCanonicalization) {
  // f&g then g&f: the second call must be answered from the computed
  // cache via the a<=b operand swap, not recomputed.
  Bdd f = (x0 ^ x1) | x2;
  Bdd g = (x1 & x2) ^ x0;
  mgr.reset_stats();
  Bdd fg = f & g;
  const std::uint64_t hits_after_first = mgr.stats().cache_hits;
  const std::uint64_t applies_after_first = mgr.stats().apply_calls;
  Bdd gf = g & f;
  EXPECT_EQ(fg, gf);
  // One top-level apply call, answered by one cache hit (plus the swap
  // counter recording the canonicalization).
  EXPECT_EQ(mgr.stats().apply_calls, applies_after_first + 1);
  EXPECT_EQ(mgr.stats().cache_hits, hits_after_first + 1);
  EXPECT_GT(mgr.stats().cache_canonical_swaps, 0u);
  EXPECT_GT(mgr.stats().cache_hit_rate(), 0.0);
}

TEST_F(BddTest, MixingManagersThrows) {
  Manager other(4);
  Bdd y = other.var(0);
  EXPECT_THROW((void)(x0 & y), BddError);
  EXPECT_THROW((void)x0.ite(y, x1), BddError);
}

TEST_F(BddTest, EmptyHandleThrows) {
  Bdd empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)(!empty), BddError);
  EXPECT_THROW((void)empty.support(), BddError);
}

TEST_F(BddTest, DotExportMentionsAllNodes) {
  std::ostringstream os;
  write_dot(os, x0 & x1);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
}

TEST(BddMemoryTest, GcReclaimsUnreferencedNodes) {
  Manager mgr(16);
  {
    Bdd acc = mgr.one();
    for (Var v = 0; v < 16; ++v) acc = acc & mgr.var(v);
    EXPECT_GT(mgr.live_nodes(), 16u);
  }
  // All handles dropped: everything but the terminal is garbage.
  const std::size_t reclaimed = mgr.gc();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(mgr.live_nodes(), 1u);
}

TEST(BddMemoryTest, GcKeepsReferencedNodes) {
  Manager mgr(8);
  Bdd keep = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const std::size_t before_size = keep.dag_size();
  for (int i = 0; i < 100; ++i) {
    (void)(mgr.var(3) ^ mgr.var(4));  // temporaries
  }
  mgr.gc();
  EXPECT_EQ(keep.dag_size(), before_size);
  // The function still works after collection.
  EXPECT_TRUE(keep.eval({false, false, true, false, false, false, false,
                         false}));
}

TEST(BddMemoryTest, NodesSurviveGcAndStayCanonical) {
  Manager mgr(8);
  Bdd f = (mgr.var(0) & mgr.var(1)) ^ mgr.var(2);
  mgr.gc();
  Bdd g = (mgr.var(0) & mgr.var(1)) ^ mgr.var(2);
  EXPECT_EQ(f, g);  // unique table rebuilt consistently
}

TEST(BddMemoryTest, NodeBudgetThrows) {
  Manager mgr(24, /*max_nodes=*/64);
  Bdd acc = mgr.zero();
  EXPECT_THROW(
      {
        // Build a function whose BDD must exceed 64 nodes; keep handles
        // alive so GC cannot save us.
        std::vector<Bdd> keep;
        for (Var v = 0; v + 1 < 24; v += 2) {
          acc = acc | (mgr.var(v) & mgr.var(v + 1));
          keep.push_back(acc);
        }
      },
      OutOfNodes);
}

TEST(BddMemoryTest, StatsAccumulate) {
  Manager mgr(4);
  mgr.reset_stats();
  Bdd f = mgr.var(0) & mgr.var(1);
  (void)f;
  EXPECT_GT(mgr.stats().apply_calls, 0u);
  EXPECT_GT(mgr.stats().nodes_created, 0u);
}

// ---- computed-cache sizing and invalidation --------------------------------

TEST(BddCacheTest, FreshManagersStartAtTheMinimumSize) {
  Manager standalone(8);
  EXPECT_EQ(standalone.cache_slots(), 4096u);
  obs::MetricsRegistry registry;
  standalone.export_metrics(registry);
  EXPECT_EQ(registry.gauge("bdd.cache_slots").value(), 4096.0);
  EXPECT_EQ(registry.gauge("bdd.cache_resizes").value(), 0.0);

  Bdd f = (standalone.var(0) & standalone.var(1)) ^ standalone.var(2);
  const auto forest = standalone.freeze({f.index()});
  Manager adopting(forest);
  EXPECT_EQ(adopting.cache_slots(), 4096u);
}

TEST(BddCacheTest, EntriesSurviveGrowthAndGcRightSizes) {
  // var() goes through mk() but never through the cache, so the nodes it
  // creates grow the table without touching any entry.
  constexpr std::size_t kManyVars = 4200;
  Manager mgr(kManyVars);
  Bdd f = mgr.var(0) ^ mgr.var(1);
  Bdd g = mgr.var(1) & mgr.var(2);
  Bdd fg = f & g;
  ASSERT_EQ(mgr.cache_slots(), 4096u);
  ASSERT_EQ(mgr.stats().cache_resizes, 0u);

  for (Var v = 3; mgr.live_nodes() <= 4096; ++v) (void)mgr.var(v);
  EXPECT_EQ(mgr.cache_slots(), 8192u);
  EXPECT_EQ(mgr.stats().cache_resizes, 1u);

  // The repeat is one top-level call answered from the grown table.
  const ManagerStats before = mgr.stats();
  EXPECT_EQ(f & g, fg);
  EXPECT_EQ(mgr.stats().apply_calls, before.apply_calls + 1);
  EXPECT_EQ(mgr.stats().cache_hits, before.cache_hits + 1);

  // The var nodes were never held: after the collection the survivors fit
  // the minimum size again.
  mgr.gc();
  EXPECT_EQ(mgr.cache_slots(), 4096u);
  EXPECT_EQ(mgr.stats().cache_resizes, 2u);
}

// ---- randomized truth-table cross-checks ---------------------------------

/// Evaluates a random expression tree both as a BDD and on every point of
/// the truth table; satcount and eval must agree exactly.
class BddRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRandomTest, MatchesTruthTableSemantics) {
  constexpr std::size_t kVars = 6;
  std::mt19937_64 rng(GetParam());
  Manager mgr(kVars);

  // Truth table representation: one 64-bit word, bit i = f(point i).
  struct Pair {
    Bdd bdd;
    std::uint64_t tt;
  };
  std::vector<Pair> pool;
  for (Var v = 0; v < kVars; ++v) {
    std::uint64_t tt = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
      if ((p >> v) & 1) tt |= 1ull << p;
    }
    pool.push_back({mgr.var(v), tt});
  }

  std::uniform_int_distribution<int> op_dist(0, 3);
  for (int step = 0; step < 200; ++step) {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    const Pair& a = pool[pick(rng)];
    const Pair& b = pool[pick(rng)];
    Pair out;
    switch (op_dist(rng)) {
      case 0: out = {a.bdd & b.bdd, a.tt & b.tt}; break;
      case 1: out = {a.bdd | b.bdd, a.tt | b.tt}; break;
      case 2: out = {a.bdd ^ b.bdd, a.tt ^ b.tt}; break;
      default: out = {!a.bdd, ~a.tt}; break;
    }
    // Exact satisfying-assignment count.
    ASSERT_DOUBLE_EQ(out.bdd.sat_count(kVars),
                     static_cast<double>(std::popcount(out.tt)));
    // Pointwise agreement on every assignment.
    for (std::uint64_t p = 0; p < 64; ++p) {
      std::vector<bool> point(kVars);
      for (Var v = 0; v < kVars; ++v) point[v] = (p >> v) & 1;
      ASSERT_EQ(out.bdd.eval(point), static_cast<bool>((out.tt >> p) & 1))
          << "seed " << GetParam() << " step " << step << " point " << p;
    }
    pool.push_back(std::move(out));
  }
  // The whole pool must satisfy the canonical complement-edge invariants
  // (regular else-edges, reduction, level order, triple uniqueness).
  EXPECT_NO_THROW(mgr.check_canonical());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

/// Canonicity: semantically equal expressions built differently must be the
/// same node.
TEST_P(BddRandomTest, CanonicityAcrossConstructions) {
  constexpr std::size_t kVars = 5;
  std::mt19937_64 rng(GetParam() * 7919);
  Manager mgr(kVars);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int round = 0; round < 50; ++round) {
    Bdd a = mgr.var(rng() % kVars);
    Bdd b = mgr.var(rng() % kVars);
    Bdd c = mgr.var(rng() % kVars);
    // (a&b)|(a&c) vs a&(b|c); also via ITE.
    Bdd lhs = (a & b) | (a & c);
    Bdd rhs = a & (b | c);
    EXPECT_EQ(lhs, rhs);
    Bdd ite_form = a.ite(b | c, mgr.zero());
    EXPECT_EQ(ite_form, rhs);
    if (coin(rng)) mgr.gc();
  }
}

INSTANTIATE_TEST_SUITE_P(MoreSeeds, BddRandomTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace dp::bdd
