// The fault-parallel engine's contract: identical results to the serial
// DifferencePropagator -- bit-identical scalars, not just close -- in input
// order, for any worker count, plus deterministic error propagation and
// coherent engine stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dp/parallel_engine.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dp::core {
namespace {

using fault::BridgeType;
using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::Structure;

/// Everything the paper reports per fault, compared with operator== so any
/// drift from the serial engine is an exact-equality failure.
struct Scalars {
  bool detectable = false;
  double detectability = 0.0;
  double upper_bound = 0.0;
  double adherence = 0.0;
  std::size_t pos_fed = 0;
  std::size_t pos_observable = 0;
  std::vector<bool> po_observable;
  double test_set_count = 0.0;  ///< manager-independent test-set size

  bool operator==(const Scalars&) const = default;
};

Scalars scalars(const FaultAnalysis& a, std::size_t num_vars) {
  Scalars s;
  s.detectable = a.detectable;
  s.detectability = a.detectability;
  s.upper_bound = a.upper_bound;
  s.adherence = a.adherence;
  s.pos_fed = a.pos_fed;
  s.pos_observable = a.pos_observable;
  s.po_observable = a.po_observable;
  s.test_set_count = a.test_set.sat_count(num_vars);
  return s;
}

/// Serial reference sweep: one manager, one thread, the pre-engine loop.
template <typename Fault>
std::vector<Scalars> serial_sweep(const Circuit& circuit,
                                  const std::vector<Fault>& faults) {
  Structure structure(circuit);
  bdd::Manager manager(0, 32u * 1024 * 1024);
  GoodFunctions good(manager, circuit);
  DifferencePropagator dp(good, structure);
  std::vector<Scalars> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) {
    out.push_back(scalars(dp.analyze(f), circuit.num_inputs()));
  }
  return out;
}

template <typename Fault>
std::vector<Scalars> parallel_sweep(const Circuit& circuit,
                                    const std::vector<Fault>& faults,
                                    std::size_t jobs) {
  Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = jobs;
  ParallelEngine engine(circuit, structure, opt);
  std::vector<Scalars> out(faults.size());
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&& a) {
    out[i] = scalars(a, circuit.num_inputs());
  });
  return out;
}

class ParallelEngineIdentityTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelEngineIdentityTest, StuckAtSweepIsBitIdenticalToSerial) {
  const Circuit circuit = netlist::make_benchmark(GetParam());
  const std::vector<StuckAtFault> faults = fault::checkpoint_faults(circuit);
  ASSERT_FALSE(faults.empty());

  const std::vector<Scalars> serial = serial_sweep(circuit, faults);
  for (std::size_t jobs : {2u, 4u}) {
    const std::vector<Scalars> par = parallel_sweep(circuit, faults, jobs);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(par[i], serial[i])
          << GetParam() << " jobs=" << jobs << " "
          << describe(faults[i], circuit);
    }
  }
}

TEST_P(ParallelEngineIdentityTest, BridgingSweepIsBitIdenticalToSerial) {
  const Circuit circuit = netlist::make_benchmark(GetParam());
  const Structure structure(circuit);
  std::vector<BridgingFault> faults;
  for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
    const auto all = fault::enumerate_nfbfs(circuit, structure, type);
    // C17's NFBF set is checked in full; larger circuits are strided down
    // to keep the exhaustive serial reference fast.
    const std::size_t stride = all.size() > 150 ? all.size() / 75 : 1;
    for (std::size_t i = 0; i < all.size(); i += stride) {
      faults.push_back(all[i]);
    }
  }
  ASSERT_FALSE(faults.empty());

  const std::vector<Scalars> serial = serial_sweep(circuit, faults);
  const std::vector<Scalars> par = parallel_sweep(circuit, faults, 4);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(par[i], serial[i])
        << GetParam() << " " << describe(faults[i], circuit);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ParallelEngineIdentityTest,
                         ::testing::Values("c17", "alu181"));

TEST(ParallelEngineTest, RepeatedSweepsAreDeterministic) {
  const Circuit circuit = netlist::make_alu181();
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  const std::vector<Scalars> first = parallel_sweep(circuit, faults, 3);
  const std::vector<Scalars> second = parallel_sweep(circuit, faults, 3);
  EXPECT_EQ(first, second);
}

TEST(ParallelEngineTest, AnalyzeAllReturnsInputOrderWithLiveHandles) {
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults = fault::checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  ParallelEngine engine(circuit, structure, opt);
  const std::vector<FaultAnalysis> analyses = engine.analyze_all(faults);
  ASSERT_EQ(analyses.size(), faults.size());
  // The engine owns the workers, so the returned test-set handles remain
  // usable after analyze_all returns.
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    if (analyses[i].detectable) {
      const auto cube = analyses[i].test_set.sat_one();
      std::vector<bool> v(circuit.num_inputs(), false);
      for (std::size_t k = 0; k < v.size(); ++k) v[k] = cube[k] == 1;
      EXPECT_TRUE(analyses[i].test_set.eval(v)) << i;
    }
  }
}

TEST(ParallelEngineTest, SinkSeesEveryIndexExactlyOnce) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  std::vector<std::atomic<int>> seen(faults.size());
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&&) {
    seen[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << i;
  }
}

TEST(ParallelEngineTest, StatsAreCoherent) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  EXPECT_EQ(engine.jobs(), 4u);
  (void)engine.analyze_all(faults);

  const ParallelStats& st = engine.stats();
  EXPECT_EQ(st.jobs, 4u);
  EXPECT_EQ(st.faults, faults.size());
  ASSERT_EQ(st.workers.size(), 4u);
  std::size_t total = 0;
  for (const WorkerStats& w : st.workers) {
    total += w.faults_analyzed;
    EXPECT_GE(w.analyze_seconds, 0.0);
    EXPECT_GE(w.max_fault_seconds, 0.0);
    // Every node is created after a unique-table probe that missed.
    EXPECT_GE(w.unique_lookups, w.nodes_created);
    EXPECT_EQ(w.ref_underflows, 0u);
    // Faults are claimed dynamically, so under load a late worker may
    // claim none; only a worker that analyzed faults must show work.
    if (w.faults_analyzed == 0) continue;
    EXPECT_GT(w.build_seconds, 0.0);
    EXPECT_GT(w.apply_calls, 0u);
    EXPECT_GT(w.nodes_created, 0u);
  }
  EXPECT_EQ(total, faults.size());
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.total_apply_calls(), 0u);
  EXPECT_GE(st.cache_hit_rate(), 0.0);
  EXPECT_LE(st.cache_hit_rate(), 1.0);

  obs::MetricsRegistry reg;
  st.export_metrics(reg);
  EXPECT_EQ(reg.gauge("dp.nodes_created").value(),
            static_cast<double>(st.total_nodes_created()));
  EXPECT_EQ(reg.gauge("dp.unique_lookups").value(),
            static_cast<double>(st.total_unique_lookups()));
  EXPECT_EQ(reg.gauge("dp.gc_reclaimed").value(),
            static_cast<double>(st.total_gc_reclaimed()));

  // A batched sweep folds into one aggregate: the deltas sum.
  ParallelStats twice = st;
  twice.merge(st);
  EXPECT_EQ(twice.total_nodes_created(), 2 * st.total_nodes_created());
  EXPECT_EQ(twice.total_unique_lookups(), 2 * st.total_unique_lookups());
  EXPECT_EQ(twice.total_gc_reclaimed(), 2 * st.total_gc_reclaimed());
}

TEST(ParallelEngineTest, ExportedCountersMatchSerialExactly) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);

  // Everything exported as a counter is workload-deterministic: the same
  // fault set must yield identical values for --jobs 1 and --jobs N.
  auto sweep_counters = [&](std::size_t jobs) {
    ParallelEngine::Options opt;
    opt.jobs = jobs;
    ParallelEngine engine(circuit, structure, opt);
    (void)engine.analyze_all(faults);
    obs::MetricsRegistry reg;
    engine.stats().export_metrics(reg);
    return std::array<std::uint64_t, 3>{
        reg.counter("dp.faults_analyzed").value(),
        reg.counter("dp.gates_evaluated").value(),
        reg.counter("dp.gates_skipped").value()};
  };

  const auto serial = sweep_counters(1);
  const auto parallel = sweep_counters(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[0], faults.size());
  EXPECT_GT(serial[1], 0u);
  EXPECT_GT(serial[2], 0u);  // selective trace must be skipping gates
}

/// Δ-seed sites of one fault: the fault site, both bridged wires, or one
/// per multiple-fault component.
std::size_t seed_sites_of(const StuckAtFault&) { return 1; }
std::size_t seed_sites_of(const BridgingFault&) { return 2; }
std::size_t seed_sites_of(const fault::MultipleStuckAtFault& f) {
  return f.components.size();
}

const obs::SpanAttr& attr_of(const obs::SpanRecord& span,
                             const std::string& key) {
  for (const obs::SpanAttr& a : span.attrs) {
    if (a.key == key) return a;
  }
  ADD_FAILURE() << span.name << " span has no '" << key << "' attribute";
  static const obs::SpanAttr kMissing;
  return kMissing;
}

/// Sweeps `faults` at --jobs 4 under an installed span collector and
/// checks the dp.fault spans against the sweep: exactly one per fault,
/// gate work summing to the engine totals, and each span's per-fault
/// summary equal to that fault's returned analysis.
template <typename Fault>
void expect_fault_spans_match_sweep(const Circuit& circuit,
                                    const std::vector<Fault>& faults) {
  const Structure structure(circuit);
  obs::SpanCollector spans;
  obs::SpanCollector::install(&spans);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  const std::vector<FaultAnalysis> analyses = engine.analyze_all(faults);
  obs::SpanCollector::install(nullptr);

  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    index_of[fault::describe(faults[i], circuit)] = i;
  }
  ASSERT_EQ(index_of.size(), faults.size()) << "site labels must be unique";

  const obs::SpanCollector::Snapshot snap = spans.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  std::vector<int> spans_per_fault(faults.size(), 0);
  std::int64_t evaluated = 0, skipped = 0;
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.name != "dp.fault") continue;
    const auto it = index_of.find(attr_of(s, "site").text);
    ASSERT_NE(it, index_of.end()) << attr_of(s, "site").text;
    const FaultAnalysis& a = analyses[it->second];
    ++spans_per_fault[it->second];
    evaluated += attr_of(s, "gates_evaluated").i;
    skipped += attr_of(s, "gates_skipped").i;
    EXPECT_EQ(attr_of(s, "gates_evaluated").i,
              static_cast<std::int64_t>(a.stats.gates_evaluated));
    EXPECT_EQ(attr_of(s, "pos_observable").i,
              static_cast<std::int64_t>(a.pos_observable));
    EXPECT_EQ(attr_of(s, "seed_sites").i,
              static_cast<std::int64_t>(seed_sites_of(faults[it->second])));
    EXPECT_EQ(attr_of(s, "detectable").i, a.detectable ? 1 : 0);
  }
  EXPECT_EQ(spans_per_fault, std::vector<int>(faults.size(), 1));
  EXPECT_EQ(static_cast<std::uint64_t>(evaluated),
            engine.stats().total_gates_evaluated());
  EXPECT_EQ(static_cast<std::uint64_t>(skipped),
            engine.stats().total_gates_skipped());
}

TEST(ParallelEngineTest, FaultSpansCarryThePerFaultSummaryAtJobs4) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  expect_fault_spans_match_sweep(circuit,
                                 fault::collapse_checkpoint_faults(circuit));
  std::vector<BridgingFault> bridges =
      fault::enumerate_nfbfs(circuit, structure, BridgeType::And);
  bridges.resize(std::min<std::size_t>(bridges.size(), 200));
  expect_fault_spans_match_sweep(circuit, bridges);
  expect_fault_spans_match_sweep(
      circuit, fault::sample_multiple_faults(circuit, 3, 50, /*seed=*/7));
}

TEST(ParallelEngineTest, JobsZeroMeansHardwareConcurrency) {
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 0;
  ParallelEngine engine(circuit, structure, opt);
  const std::size_t expected =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(engine.jobs(), expected);
}

TEST(ParallelEngineTest, PerFaultFailureIsRethrownAfterTheSweep) {
  // C6288-class pathology: with cut points the good-function build fits
  // the budget but a deep PI fault's difference BDDs cannot. The engine
  // must surface that worker's OutOfNodes from analyze_all.
  const Circuit circuit = netlist::make_multiplier(16);
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  opt.bdd_node_limit = 1000000;
  opt.good.cut_threshold = 500;
  ParallelEngine engine(circuit, structure, opt);

  const std::vector<StuckAtFault> faults{
      {circuit.inputs()[0], std::nullopt, false}};
  EXPECT_THROW((void)engine.analyze_all(faults), bdd::OutOfNodes);
}

TEST(ParallelEngineTest, SharedForestMatchesPerWorkerBuildsExactly) {
  // The shared-frozen-forest engine (production default) and the
  // per-worker-build engine must agree bit for bit on every scalar: the
  // frozen adoption is a memory optimization, never a semantic one.
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);

  ParallelEngine::Options shared_opt;
  shared_opt.jobs = 3;
  ASSERT_TRUE(shared_opt.shared_forest) << "sharing must be the default";
  ParallelEngine shared(circuit, structure, shared_opt);

  ParallelEngine::Options unshared_opt;
  unshared_opt.jobs = 3;
  unshared_opt.shared_forest = false;
  ParallelEngine unshared(circuit, structure, unshared_opt);

  const auto a = shared.analyze_all(faults);
  const auto b = unshared.analyze_all(faults);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(scalars(a[i], circuit.num_inputs()),
              scalars(b[i], circuit.num_inputs()))
        << describe(faults[i], circuit);
  }
  EXPECT_GT(shared.stats().frozen_nodes, 0u);
  EXPECT_EQ(unshared.stats().frozen_nodes, 0u);
}

TEST(ParallelEngineTest, MoreJobsThanFaultsIsExactAndCoherent) {
  // Edge case: a pool wider than the fault list. Idle workers must not
  // disturb the input-order merge, the results, or the stats.
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  std::vector<StuckAtFault> faults = fault::collapse_checkpoint_faults(circuit);
  faults.resize(3);
  const std::vector<Scalars> serial = serial_sweep(circuit, faults);

  ParallelEngine::Options opt;
  opt.jobs = 8;
  ParallelEngine engine(circuit, structure, opt);
  std::vector<Scalars> out(faults.size());
  std::atomic<std::size_t> delivered{0};
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&& a) {
    out[i] = scalars(a, circuit.num_inputs());
    delivered.fetch_add(1);
  });
  EXPECT_EQ(delivered.load(), faults.size());
  EXPECT_EQ(out, serial);

  const ParallelStats& stats = engine.stats();
  EXPECT_EQ(stats.jobs, 8u);
  EXPECT_EQ(stats.faults, faults.size());
  ASSERT_EQ(stats.workers.size(), 8u);
  std::size_t busy = 0, total = 0;
  for (const WorkerStats& w : stats.workers) {
    total += w.faults_analyzed;
    if (w.faults_analyzed > 0) ++busy;
  }
  EXPECT_EQ(total, faults.size());
  EXPECT_LE(busy, faults.size());
}

TEST(ParallelEngineTest, IdleWorkersReportNoWork) {
  // Four workers, two faults: at least two workers claim nothing. Their
  // sweep counters must be zero, and the totals must still account for
  // every fault and every apply call.
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  std::vector<StuckAtFault> faults = fault::collapse_checkpoint_faults(circuit);
  faults.resize(2);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  (void)engine.analyze_all(faults);

  const ParallelStats& st = engine.stats();
  ASSERT_EQ(st.workers.size(), 4u);
  std::size_t total = 0, idle = 0;
  std::uint64_t apply_calls = 0;
  for (const WorkerStats& w : st.workers) {
    total += w.faults_analyzed;
    apply_calls += w.apply_calls;
    if (w.faults_analyzed > 0) continue;
    ++idle;
    EXPECT_EQ(w.apply_calls, 0u);
    EXPECT_EQ(w.nodes_created, 0u);
    EXPECT_EQ(w.unique_lookups, 0u);
    EXPECT_EQ(w.gates_evaluated, 0u);
    EXPECT_EQ(w.analyze_seconds, 0.0);
    EXPECT_TRUE(w.fault_seconds.empty());
  }
  EXPECT_GE(idle, 2u);
  EXPECT_EQ(st.faults, faults.size());
  EXPECT_EQ(total, faults.size());
  EXPECT_EQ(st.total_apply_calls(), apply_calls);
  EXPECT_GT(st.total_apply_calls(), 0u);
}

TEST(ParallelEngineTest, BuildFailureIsRethrownFromTheConstructor) {
  // Without cut points the 16x16 multiplier build itself exhausts the
  // budget inside the worker threads; the constructor must rethrow.
  const Circuit circuit = netlist::make_multiplier(16);
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  opt.bdd_node_limit = 1000000;
  EXPECT_THROW((ParallelEngine{circuit, structure, opt}), bdd::OutOfNodes);
}

}  // namespace
}  // namespace dp::core
