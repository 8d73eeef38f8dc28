#include "verify/reference_sim.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace dp::verify {

namespace {

using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::GateType;
using netlist::NetId;
using Word = std::uint64_t;

/// What a fault does to the circuit: forced stems and branch pins (the one
/// component of a single stuck-at, every component of a multiple fault),
/// or a wired bridge with the order that honours it. Empty is fault-free.
struct Injection {
  std::vector<StuckAtFault> stuck;
  const BridgingFault* bridge = nullptr;
  std::vector<NetId> order;  ///< bridge only
  /// The bridged net evaluated last: both driven values are known there.
  NetId wire_at = netlist::kInvalidNet;
};

Word forced(const StuckAtFault& s) { return s.stuck_value ? ~Word{0} : 0; }

/// Evaluation order with the bridge's cross-dependencies honoured: Kahn's
/// algorithm over the original edges plus, for each bridged net, an edge
/// to every consumer of the other one. Throws on a feedback bridge.
std::vector<NetId> bridge_order(const Circuit& c, const BridgingFault& f) {
  const std::size_t n = c.num_nets();
  std::vector<std::vector<NetId>> succ(n);
  std::vector<std::uint32_t> indeg(n, 0);
  auto edges = [&](NetId from, NetId driver) {
    for (const netlist::PinRef& pin : c.fanouts(driver)) {
      succ[from].push_back(pin.gate);
      ++indeg[pin.gate];
    }
  };
  for (NetId id = 0; id < n; ++id) edges(id, id);
  edges(f.a, f.b);
  edges(f.b, f.a);

  std::vector<NetId> ready, order;
  for (NetId id = 0; id < n; ++id) {
    if (indeg[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NetId next : succ[id]) {
      if (--indeg[next] == 0) ready.push_back(next);
    }
  }
  if (order.size() != n) {
    throw std::logic_error("bridge_order(): feedback bridge passed to the "
                           "reference simulator");
  }
  return order;
}

/// Builds the injection, rejecting a branch fault on a pin its gate lacks
/// (every pin of a zero-fanin gate).
Injection inject(const Circuit& c, std::vector<StuckAtFault> stuck,
                 const BridgingFault* bridge) {
  for (const StuckAtFault& s : stuck) {
    if (!s.branch) continue;
    const std::size_t pins = c.fanins(s.branch->gate).size();
    if (s.branch->pin >= pins) {
      throw netlist::NetlistError(
          "branch fault pin " + std::to_string(s.branch->pin) +
          " out of range on gate '" + c.net_name(s.branch->gate) + "' (" +
          std::to_string(pins) + " fanin pins)");
    }
  }
  Injection inj;
  inj.stuck = std::move(stuck);
  inj.bridge = bridge;
  if (bridge) {
    inj.order = bridge_order(c, *bridge);
    for (NetId id : inj.order) {
      if (id == bridge->a || id == bridge->b) inj.wire_at = id;
    }
  }
  return inj;
}

/// Evaluates a gate of type `t`; `pin(k)` supplies the word on fanin k.
template <typename Pin>
Word eval_gate(GateType t, std::size_t arity, Pin&& pin) {
  if (t == GateType::Const0) return 0;
  if (t == GateType::Const1) return ~Word{0};
  const GateType base = netlist::base_of(t);
  Word acc = pin(0);
  for (std::size_t k = 1; k < arity; ++k) {
    const Word b = pin(k);
    acc = base == GateType::And ? acc & b
          : base == GateType::Or ? acc | b
                                 : acc ^ b;
  }
  return netlist::is_inverting(t) ? ~acc : acc;
}

/// One full sweep over 64 lane-packed patterns: `values` holds the PI
/// words on entry and every net's word on exit.
void simulate(const Circuit& c, const Injection& inj,
              std::vector<Word>& values) {
  for (NetId id : inj.bridge ? inj.order : c.topo_order()) {
    const GateType t = c.type(id);
    if (t != GateType::Input) {
      const auto& fi = c.fanins(id);
      values[id] = eval_gate(t, fi.size(), [&](std::size_t k) {
        for (const StuckAtFault& s : inj.stuck) {
          if (s.branch && s.branch->gate == id && s.branch->pin == k) {
            return forced(s);
          }
        }
        return values[fi[k]];
      });
    }
    for (const StuckAtFault& s : inj.stuck) {
      if (!s.branch && s.net == id) values[id] = forced(s);
    }
    if (id == inj.wire_at) {
      const BridgingFault& f = *inj.bridge;
      const Word wired = f.type == fault::BridgeType::And
                             ? (values[f.a] & values[f.b])
                             : (values[f.a] | values[f.b]);
      values[f.a] = values[f.b] = wired;
    }
  }
}

/// The 2^n sweep in 64-vector blocks: lane l of block b is input vector
/// b*64 + l, whose bit i drives PI i. Loads each block's PI words into
/// `values`, then calls `fn(lanes)`, `lanes` masking the valid lanes (all
/// 64, except under 6 inputs, where the one block holds only 2^n vectors).
template <typename Fn>
void for_each_block(const Circuit& c, std::vector<Word>& values, Fn&& fn) {
  const std::size_t n = c.num_inputs();
  if (n > ReferenceSimulator::kMaxInputs) {
    throw std::invalid_argument(
        "exhaustive analysis limited to " +
        std::to_string(ReferenceSimulator::kMaxInputs) + " inputs; circuit '" +
        c.name() + "' has " + std::to_string(n));
  }
  static constexpr Word kStripe[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  const std::uint64_t blocks = n > 6 ? std::uint64_t{1} << (n - 6) : 1;
  const Word lanes = n >= 6 ? ~Word{0} : (Word{1} << (1u << n)) - 1;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      values[c.inputs()[i]] =
          i < 6 ? kStripe[i] : ((b >> (i - 6)) & 1u) ? ~Word{0} : 0;
    }
    fn(lanes);
  }
}

TestSet sweep(const Circuit& c, const Injection& inj) {
  std::vector<Word> good(c.num_nets()), faulty(c.num_nets());
  TestSet tests;
  for_each_block(c, good, [&](Word lanes) {
    for (NetId pi : c.inputs()) faulty[pi] = good[pi];
    simulate(c, Injection{}, good);
    simulate(c, inj, faulty);
    Word diff = 0;
    for (NetId po : c.outputs()) diff |= good[po] ^ faulty[po];
    tests.words.push_back(diff & lanes);
  });
  tests.size = std::uint64_t{1} << c.num_inputs();
  return tests;
}

std::vector<bool> single_pattern(const Circuit& c,
                                 const std::vector<bool>& pattern,
                                 const Injection& inj) {
  if (pattern.size() != c.num_inputs()) {
    throw std::invalid_argument("outputs(): pattern width != #PIs");
  }
  std::vector<Word> values(c.num_nets(), 0);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    values[c.inputs()[i]] = pattern[i] ? ~Word{0} : 0;
  }
  simulate(c, inj, values);
  std::vector<bool> out;
  out.reserve(c.num_outputs());
  for (NetId po : c.outputs()) out.push_back(values[po] & 1u);
  return out;
}

}  // namespace

ReferenceSimulator::ReferenceSimulator(const Circuit& circuit)
    : circuit_(circuit) {
  if (!circuit.finalized()) {
    throw netlist::NetlistError(
        "ReferenceSimulator: circuit must be finalized");
  }
}

TestSet ReferenceSimulator::test_set(const StuckAtFault& f) const {
  return sweep(circuit_, inject(circuit_, {f}, nullptr));
}

TestSet ReferenceSimulator::test_set(const BridgingFault& f) const {
  return sweep(circuit_, inject(circuit_, {}, &f));
}

TestSet ReferenceSimulator::test_set(
    const fault::MultipleStuckAtFault& f) const {
  return sweep(circuit_, inject(circuit_, f.components, nullptr));
}

double ReferenceSimulator::syndrome(NetId net) const {
  std::vector<Word> values(circuit_.num_nets());
  std::uint64_t ones = 0;
  for_each_block(circuit_, values, [&](Word lanes) {
    simulate(circuit_, Injection{}, values);
    ones += static_cast<std::uint64_t>(std::popcount(values[net] & lanes));
  });
  return static_cast<double>(ones) /
         static_cast<double>(std::uint64_t{1} << circuit_.num_inputs());
}

std::vector<bool> ReferenceSimulator::outputs(
    const std::vector<bool>& pattern) const {
  return single_pattern(circuit_, pattern, Injection{});
}

std::vector<bool> ReferenceSimulator::outputs(const std::vector<bool>& pattern,
                                              const StuckAtFault& f) const {
  return single_pattern(circuit_, pattern, inject(circuit_, {f}, nullptr));
}

std::vector<bool> ReferenceSimulator::outputs(const std::vector<bool>& pattern,
                                              const BridgingFault& f) const {
  return single_pattern(circuit_, pattern, inject(circuit_, {}, &f));
}

}  // namespace dp::verify
