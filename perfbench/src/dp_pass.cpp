#include "dp_pass.hpp"

#include "dp/good_functions.hpp"

namespace pb {

namespace {

analysis::FaultRecord record_of(const netlist::Structure& s,
                                const fault::StuckAtFault& f,
                                const core::FaultAnalysis& a) {
  return analysis::make_stuck_at_record(s, f, a);
}

analysis::FaultRecord record_of(const netlist::Structure& s,
                                const fault::BridgingFault& f,
                                const core::FaultAnalysis& a) {
  return make_bridge_record(s, f, a);
}

template <typename Fault>
DpPass run_pass(const netlist::Circuit& circuit,
                const netlist::Structure& structure,
                const std::vector<Fault>& faults, bool sat_count) {
  obs::SpanCollector* const spans = obs::SpanCollector::current();
  DpPass out;
  core::ParallelEngine::Options popt;
  popt.jobs = 1;
  {
    obs::ScopedSpan span(spans, "dp.good_build");
    span.attr("circuit", circuit.name());
    const auto t0 = Clock::now();
    popt.shared_good = std::make_shared<const core::SharedGoodFunctions>(circuit);
    out.good_build_s = seconds_since(t0);
  }
  out.frozen_nodes = popt.shared_good->frozen_nodes();
  const std::size_t vars = popt.shared_good->num_vars();
  out.records.resize(faults.size());
  if (sat_count) out.sat_counts.resize(faults.size());
  {
    obs::ScopedSpan span(spans, "dp.sweep");
    core::ParallelEngine engine(circuit, structure, popt);
    // One worker runs inline on this thread, so the sink's spans nest.
    engine.analyze_each(faults, [&](std::size_t i, core::FaultAnalysis&& a) {
      out.records[i] = record_of(structure, faults[i], a);
      if (sat_count && a.detectable) {
        obs::ScopedSpan q(spans, "bdd.sat_count");
        out.sat_counts[i] = a.test_set.sat_count(vars);
      }
    });
    out.stats = engine.stats();
  }
  return out;
}

template <typename Fault>
DpPass run_interleaved(const netlist::Circuit& circuit,
                       const netlist::Structure& structure,
                       const std::vector<Fault>& faults, Interleaved& il) {
  DpPass out;
  core::ParallelEngine::Options popt;
  popt.jobs = 1;
  auto t0 = Clock::now();
  popt.shared_good = std::make_shared<const core::SharedGoodFunctions>(circuit);
  core::ParallelEngine plain(circuit, structure, popt);
  il.untraced_s += seconds_since(t0);

  std::unique_ptr<core::ParallelEngine> traced;
  {
    const TraceOn on(*il.spans);
    t0 = Clock::now();
    obs::ScopedSpan root(il.spans, "bench.build");
    {
      obs::ScopedSpan span(il.spans, "dp.good_build");
      span.attr("circuit", circuit.name());
      const auto tb = Clock::now();
      popt.shared_good =
          std::make_shared<const core::SharedGoodFunctions>(circuit);
      out.good_build_s = seconds_since(tb);
    }
    traced = std::make_unique<core::ParallelEngine>(circuit, structure, popt);
    root.stop();
    il.traced_s += seconds_since(t0);
  }
  out.frozen_nodes = popt.shared_good->frozen_nodes();
  out.records.resize(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::vector<Fault> one{faults[i]};
    t0 = Clock::now();
    plain.analyze_each(one, [](std::size_t, core::FaultAnalysis&&) {});
    il.untraced_s += seconds_since(t0);

    const TraceOn on(*il.spans);
    t0 = Clock::now();
    obs::ScopedSpan root(il.spans, "bench.fault");
    traced->analyze_each(one, [&](std::size_t, core::FaultAnalysis&& a) {
      out.records[i] = record_of(structure, faults[i], a);
    });
    root.stop();
    il.traced_s += seconds_since(t0);
    out.stats.merge(traced->stats());
  }
  return out;
}

}  // namespace

DpPass dp_pass_interleaved(const netlist::Circuit& circuit,
                           const netlist::Structure& structure,
                           const std::vector<fault::StuckAtFault>& faults,
                           Interleaved& il) {
  return run_interleaved(circuit, structure, faults, il);
}

DpPass dp_pass_interleaved(const netlist::Circuit& circuit,
                           const netlist::Structure& structure,
                           const std::vector<fault::BridgingFault>& faults,
                           Interleaved& il) {
  return run_interleaved(circuit, structure, faults, il);
}

DpPass dp_pass(const netlist::Circuit& circuit,
               const netlist::Structure& structure,
               const std::vector<fault::StuckAtFault>& faults,
               bool sat_count) {
  return run_pass(circuit, structure, faults, sat_count);
}

DpPass dp_pass(const netlist::Circuit& circuit,
               const netlist::Structure& structure,
               const std::vector<fault::BridgingFault>& faults) {
  return run_pass(circuit, structure, faults, false);
}

}  // namespace pb
