// The exact-DP pass the traced runs use: a jobs-1 sweep split into the
// public pieces it is made of, so each can carry a span.
//   dp.good_build   SharedGoodFunctions build + freeze
//   dp.sweep        ParallelEngine (jobs 1, adopting that forest) over
//                   the faults; the engine's own dp.* spans nest inside
//   bdd.sat_count   optional |CTS| query per fault (what ndetect adds)
// Spans are recorded only while a collector is installed, so the same
// code gives the untraced reference wall clock.
#pragma once

#include <vector>

#include "common.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/bridging.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/structure.hpp"

namespace pb {

struct DpPass {
  std::vector<analysis::FaultRecord> records;  ///< one per input fault
  std::vector<double> sat_counts;              ///< when requested
  double good_build_s = 0.0;
  std::size_t frozen_nodes = 0;
  core::ParallelStats stats;  ///< the sweep's (one worker: deterministic)
};

DpPass dp_pass(const netlist::Circuit& circuit,
               const netlist::Structure& structure,
               const std::vector<fault::StuckAtFault>& faults,
               bool sat_count = false);
DpPass dp_pass(const netlist::Circuit& circuit,
               const netlist::Structure& structure,
               const std::vector<fault::BridgingFault>& faults);

/// An untraced and a traced copy of the same jobs-1 sweep, run fault by
/// fault in alternation so both see the same machine state; the untraced
/// copy's wall clock is the reference for the traced copy's layer self
/// times. Returns the traced copy's pass.
struct Interleaved {
  obs::SpanCollector* spans = nullptr;
  double untraced_s = 0.0;  ///< accumulated over passes
  double traced_s = 0.0;
};
DpPass dp_pass_interleaved(const netlist::Circuit& circuit,
                           const netlist::Structure& structure,
                           const std::vector<fault::StuckAtFault>& faults,
                           Interleaved& il);
DpPass dp_pass_interleaved(const netlist::Circuit& circuit,
                           const netlist::Structure& structure,
                           const std::vector<fault::BridgingFault>& faults,
                           Interleaved& il);

}  // namespace pb
