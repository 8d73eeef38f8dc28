#include "dp/engine.hpp"

#include <algorithm>

#include "dp/difference.hpp"

namespace dp::core {

using netlist::GateType;
using netlist::NetId;

DifferencePropagator::DifferencePropagator(const GoodFunctions& good,
                                           const netlist::Structure& structure,
                                           Options options)
    : good_(good), structure_(structure), options_(options) {}

PropagationStats DifferencePropagator::propagate(std::vector<bdd::Bdd>& diff,
                                                 const PinSeed* pin_seed) const {
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  PropagationStats st;

  for (NetId id : c.topo_order()) {
    const GateType t = c.type(id);
    if (t == GateType::Input || netlist::is_constant(t)) continue;
    const auto& fi = c.fanins(id);

    const bool seeded_here = pin_seed && pin_seed->gate == id;
    // A zero-valued seed is no difference at all: an unexcitable fault must
    // not defeat selective trace and drag the whole downstream cone through
    // gate_difference.
    bool has_diff = seeded_here && !pin_seed->diff.is_zero();
    if (!has_diff) {
      for (NetId f : fi) {
        if (diff[f].valid()) {
          has_diff = true;
          break;
        }
      }
    }
    if (!has_diff && options_.selective_trace) {
      ++st.gates_skipped;
      continue;
    }

    std::vector<bdd::Bdd> goods, diffs;
    goods.reserve(fi.size());
    diffs.reserve(fi.size());
    for (std::uint32_t i = 0; i < fi.size(); ++i) {
      goods.push_back(good_.at(fi[i]));
      if (seeded_here && pin_seed->pin == i) {
        diffs.push_back(pin_seed->diff);
      } else {
        diffs.push_back(diff[fi[i]].valid() ? diff[fi[i]] : mgr.zero());
      }
    }
    bdd::Bdd result = gate_difference(mgr, t, goods, diffs);
    ++st.gates_evaluated;
    if (!result.is_zero()) diff[id] = std::move(result);
  }
  return st;
}

PropagationStats DifferencePropagator::propagate_multi(
    std::vector<bdd::Bdd>& diff, const std::vector<PinSeed>& pins,
    const std::vector<NetSeed>& nets) const {
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  PropagationStats st;

  // Index the overrides for O(1) lookup during the sweep.
  std::vector<const bdd::Bdd*> net_override(c.num_nets(), nullptr);
  for (const NetSeed& seed : nets) net_override[seed.net] = &seed.diff;
  std::vector<std::vector<const PinSeed*>> pin_override(c.num_nets());
  for (const PinSeed& seed : pins) pin_override[seed.gate].push_back(&seed);

  // Forced PI stems take effect before the sweep.
  for (const NetSeed& seed : nets) {
    if (c.type(seed.net) == GateType::Input && !seed.diff.is_zero()) {
      diff[seed.net] = seed.diff;
    }
  }

  for (NetId id : c.topo_order()) {
    const GateType t = c.type(id);
    if (t == GateType::Input || netlist::is_constant(t)) continue;

    // A forced stem never needs its gate evaluated: its difference is
    // pinned regardless of what the gate would produce.
    if (net_override[id]) {
      if (!net_override[id]->is_zero()) diff[id] = *net_override[id];
      ++st.gates_skipped;
      continue;
    }

    const auto& fi = c.fanins(id);
    const auto& pin_seeds = pin_override[id];
    auto pin_seed_at = [&](std::uint32_t pin) -> const PinSeed* {
      for (const PinSeed* p : pin_seeds) {
        if (p->pin == pin) return p;
      }
      return nullptr;
    };

    bool has_diff = false;
    for (std::uint32_t pin = 0; pin < fi.size() && !has_diff; ++pin) {
      const PinSeed* p = pin_seed_at(pin);
      has_diff = p ? !p->diff.is_zero() : diff[fi[pin]].valid();
    }
    if (!has_diff && options_.selective_trace) {
      ++st.gates_skipped;
      continue;
    }

    std::vector<bdd::Bdd> goods, diffs;
    goods.reserve(fi.size());
    diffs.reserve(fi.size());
    for (std::uint32_t pin = 0; pin < fi.size(); ++pin) {
      goods.push_back(good_.at(fi[pin]));
      const PinSeed* p = pin_seed_at(pin);
      if (p) {
        diffs.push_back(p->diff);
      } else {
        diffs.push_back(diff[fi[pin]].valid() ? diff[fi[pin]] : mgr.zero());
      }
    }
    bdd::Bdd result = gate_difference(mgr, t, goods, diffs);
    ++st.gates_evaluated;
    if (!result.is_zero()) diff[id] = std::move(result);
  }
  return st;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::MultipleStuckAtFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  if (fault.components.empty()) {
    throw netlist::NetlistError("analyze: multiple fault with no components");
  }
  for (std::size_t i = 0; i < fault.components.size(); ++i) {
    for (std::size_t j = i + 1; j < fault.components.size(); ++j) {
      if (fault::same_line(fault.components[i], fault.components[j])) {
        throw netlist::NetlistError(
            "analyze: multiple fault components share a line");
      }
    }
  }

  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  std::vector<bdd::Bdd> diff(c.num_nets());

  std::vector<PinSeed> pins;
  std::vector<NetSeed> nets;
  std::vector<NetId> site_nets;
  bdd::Bdd excitation = mgr.zero();
  for (const fault::StuckAtFault& f : fault.components) {
    const bdd::Bdd& f_site = good_.at(f.net);
    bdd::Bdd seed = f.stuck_value ? !f_site : f_site;
    excitation = excitation | seed;
    if (f.branch) {
      pins.push_back(PinSeed{f.branch->gate, f.branch->pin, std::move(seed)});
      site_nets.push_back(f.net);
    } else {
      nets.push_back(NetSeed{f.net, std::move(seed)});
      site_nets.push_back(f.net);
    }
  }

  // Excitation (some line differing) is necessary for detection, so its
  // density upper-bounds the detectability exactly as for single faults.
  const double upper = excitation.density(good_.num_vars());

  PropagationStats st = propagate_multi(diff, pins, nets);
  FaultAnalysis out = finish(diff, site_nets, upper, st);
  if (span.enabled()) {
    span.attr("site", fault::describe(fault, c));
    int po_distance = 0;
    for (const NetId net : site_nets) {
      po_distance = std::max(po_distance, structure_.max_levels_to_po(net));
    }
    span.attr("po_distance", po_distance);
    span.attr("gates_evaluated", out.stats.gates_evaluated);
    span.attr("gates_skipped", out.stats.gates_skipped);
    span.attr("detectable", out.detectable ? 1 : 0);
    span.attr("seed_sites", site_nets.size());
    span.attr("pos_observable", out.pos_observable);
  }
  return out;
}

FaultAnalysis DifferencePropagator::finish(
    std::vector<bdd::Bdd>& diff, const std::vector<NetId>& site_nets,
    double upper_bound, PropagationStats stats) const {
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  FaultAnalysis out;
  out.stats = stats;
  out.upper_bound = upper_bound;

  out.test_set = mgr.zero();
  out.po_observable.assign(c.num_outputs(), false);
  out.po_differences.resize(c.num_outputs());
  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    const bdd::Bdd& d = diff[c.outputs()[i]];
    if (d.valid() && !d.is_zero()) {
      out.po_observable[i] = true;
      out.po_differences[i] = d;
      ++out.pos_observable;
      out.test_set = out.test_set | d;
    }
  }
  out.detectable = !out.test_set.is_zero();
  out.detectability = out.test_set.density(good_.num_vars());
  out.adherence =
      upper_bound > 0.0
          ? std::clamp(out.detectability / upper_bound, 0.0, 1.0)
          : 0.0;

  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    for (NetId site : site_nets) {
      if (structure_.po_reachable(site, i)) {
        ++out.pos_fed;
        break;
      }
    }
  }
  return out;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::StuckAtFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  const Circuit& c = good_.circuit();
  std::vector<bdd::Bdd> diff(c.num_nets());

  const bdd::Bdd& f_site = good_.at(fault.net);
  // Delta = f XOR v : the inputs on which the forced value differs.
  bdd::Bdd seed = fault.stuck_value ? !f_site : f_site;

  const double syn = good_.syndrome(fault.net);
  const double upper = fault.stuck_value ? 1.0 - syn : syn;

  PropagationStats st;
  if (fault.branch) {
    PinSeed pin{fault.branch->gate, fault.branch->pin, seed};
    st = propagate(diff, &pin);
  } else {
    if (!seed.is_zero()) diff[fault.net] = seed;
    st = propagate(diff, nullptr);
  }
  // PO reachability is measured from the checkpoint line's stem: a branch
  // fault lives on the fanout branch of `fault.net`, not on the fed gate's
  // output, so pos_fed counts the POs the stem feeds.
  FaultAnalysis out = finish(diff, {fault.net}, upper, st);
  if (span.enabled()) {
    span.attr("site", fault::describe(fault, c));
    span.attr("branch", fault.branch ? 1 : 0);
    span.attr("po_distance", structure_.max_levels_to_po(fault.net));
    span.attr("gates_evaluated", out.stats.gates_evaluated);
    span.attr("gates_skipped", out.stats.gates_skipped);
    span.attr("detectable", out.detectable ? 1 : 0);
    span.attr("seed_sites", 1);
    span.attr("pos_observable", out.pos_observable);
  }
  return out;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::BridgingFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  std::vector<bdd::Bdd> diff(c.num_nets());

  const bdd::Bdd& fa = good_.at(fault.a);
  const bdd::Bdd& fb = good_.at(fault.b);
  const bdd::Bdd wired =
      fault.type == fault::BridgeType::And ? (fa & fb) : (fa | fb);

  // Both wires take the wired value; their differences seed together.
  bdd::Bdd da = fa ^ wired;
  bdd::Bdd db = fb ^ wired;
  if (!da.is_zero()) diff[fault.a] = da;
  if (!db.is_zero()) diff[fault.b] = db;

  // Excitation bound: the bridge disturbs some wire iff the wires disagree.
  const double upper = (fa ^ fb).density(good_.num_vars());

  PropagationStats st = propagate(diff, nullptr);
  FaultAnalysis out = finish(diff, {fault.a, fault.b}, upper, st);
  out.bridge_stuck_at = wired.is_constant();
  if (span.enabled()) {
    span.attr("site", fault::describe(fault, c));
    span.attr("po_distance", std::max(structure_.max_levels_to_po(fault.a),
                                      structure_.max_levels_to_po(fault.b)));
    span.attr("gates_evaluated", out.stats.gates_evaluated);
    span.attr("gates_skipped", out.stats.gates_skipped);
    span.attr("detectable", out.detectable ? 1 : 0);
    span.attr("seed_sites", 2);
    span.attr("pos_observable", out.pos_observable);
  }
  (void)mgr;
  return out;
}

}  // namespace dp::core
