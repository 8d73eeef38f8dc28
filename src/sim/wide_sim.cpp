#include "sim/wide_sim.hpp"

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>

#include "obs/span.hpp"

namespace dp::sim {

using netlist::GateType;

namespace {

inline void wide_apply(GateType base, WideWord& acc, const WideWord& b) {
  switch (base) {
    case GateType::And:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] &= b.w[j];
      break;
    case GateType::Or:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] |= b.w[j];
      break;
    case GateType::Xor:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] ^= b.w[j];
      break;
    default:
      break;  // Buf is unary and never combines two operands
  }
}

}  // namespace

WideFaultSimulator::WideFaultSimulator(const Circuit& circuit)
    : circuit_(&circuit) {
  if (!circuit.finalized()) {
    throw netlist::NetlistError(
        "WideFaultSimulator: circuit must be finalized");
  }
  // Flatten the levelized order once: the topological order lists every
  // gate after its fanins, so a linear walk over `schedule_` is a full
  // good-circuit sweep with no per-gate indirection through the netlist.
  schedule_index_.assign(circuit.num_nets(), kNotScheduled);
  schedule_.reserve(circuit.num_nets());
  net_level_.assign(circuit.num_nets(), 0);
  for (NetId id : circuit.topo_order()) {
    if (circuit.type(id) == GateType::Input) continue;
    const auto& fi = circuit.fanins(id);
    GateRef g;
    g.net = id;
    g.type = circuit.type(id);
    g.fanin_begin = static_cast<std::uint32_t>(fanin_flat_.size());
    g.fanin_count = static_cast<std::uint32_t>(fi.size());
    fanin_flat_.insert(fanin_flat_.end(), fi.begin(), fi.end());
    schedule_index_[id] = static_cast<std::uint32_t>(schedule_.size());
    schedule_.push_back(g);
    std::uint32_t level = 0;
    for (const NetId f : fi) level = std::max(level, net_level_[f] + 1);
    net_level_[id] = level;
    num_levels_ = std::max<std::size_t>(num_levels_, level + 1);
  }
  if (num_levels_ == 0) num_levels_ = 1;  // PI-only circuit
}

template <typename FaninValue>
WideWord WideFaultSimulator::eval_entry(const GateRef& g,
                                        FaninValue&& fanin_value) {
  switch (g.type) {
    case GateType::Const0: return WideWord{};
    case GateType::Const1: {
      WideWord v;
      for (std::size_t j = 0; j < kWideWords; ++j) v.w[j] = ~Word{0};
      return v;
    }
    default: break;
  }
  WideWord acc = fanin_value(0);
  const GateType base = netlist::base_of(g.type);
  for (std::uint32_t k = 1; k < g.fanin_count; ++k) {
    wide_apply(base, acc, fanin_value(k));
  }
  if (netlist::is_inverting(g.type)) {
    for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] = ~acc.w[j];
  }
  return acc;
}

WideFaultSimulator::FaultPlan WideFaultSimulator::make_plan(
    const StuckAtFault& f) const {
  const Circuit& c = *circuit_;
  FaultPlan plan;
  plan.forced = f.stuck_value ? ~Word{0} : 0;
  if (f.branch) {
    plan.is_branch = true;
    plan.site = f.branch->gate;
    plan.pin = f.branch->pin;
    const std::uint32_t si = schedule_index_[plan.site];
    if (si == kNotScheduled || plan.pin >= schedule_[si].fanin_count) {
      throw netlist::NetlistError(
          "branch fault pin " + std::to_string(plan.pin) +
          " out of range on zero-fanin or input gate '" +
          c.net_name(plan.site) + "'");
    }
  } else {
    plan.site = f.net;
  }

  // Fanout cone: every net a difference at the site can reach. The gates
  // are collected in schedule (== topological) order so the block loop can
  // chase the difference with one linear pass.
  std::vector<bool> in_cone(c.num_nets(), false);
  std::vector<NetId> queue{plan.site};
  in_cone[plan.site] = true;
  while (!queue.empty()) {
    const NetId id = queue.back();
    queue.pop_back();
    for (const netlist::PinRef& pin : c.fanouts(id)) {
      if (!in_cone[pin.gate]) {
        in_cone[pin.gate] = true;
        queue.push_back(pin.gate);
      }
    }
  }
  for (std::size_t si = 0; si < schedule_.size(); ++si) {
    const NetId net = schedule_[si].net;
    if (in_cone[net] && net != plan.site) {
      plan.cone.push_back(static_cast<std::uint32_t>(si));
    }
  }
  for (NetId po : c.outputs()) {
    if (in_cone[po]) plan.observe.push_back(po);
  }
  return plan;
}

template <typename LoadBlock>
WideFaultSimulator::Grade WideFaultSimulator::run(
    const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
    const Options& options, LoadBlock&& load_block) const {
  const Circuit& c = *circuit_;
  obs::ScopedSpan span(obs::SpanCollector::current(), "sim.grade");
  Grade g;
  g.total = faults.size();
  g.num_patterns = num_patterns;
  g.detection_counts.assign(faults.size(), 0);
  g.first_detection.assign(faults.size(), kNotDetected);
  g.level_events.assign(num_levels_, 0);

  std::vector<FaultPlan> plans;
  plans.reserve(faults.size());
  for (const StuckAtFault& f : faults) plans.push_back(make_plan(f));

  // All scratch is allocated once here; the block loop is allocation-free.
  std::vector<WideWord> good(c.num_nets());
  std::vector<WideWord> scratch(c.num_nets());
  std::vector<std::uint32_t> stamp(c.num_nets(), 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> alive(faults.size(), 1);
  std::size_t num_alive = faults.size();

  for (std::size_t base = 0; base < num_patterns; base += kWideLanes) {
    if (options.drop_detected && num_alive == 0) break;
    load_block(base / kWideLanes, good);

    WideWord mask;
    const std::size_t remaining = num_patterns - base;
    for (std::size_t j = 0; j < kWideWords; ++j) {
      const std::size_t lo = j * 64;
      mask.w[j] = remaining >= lo + 64
                      ? ~Word{0}
                      : remaining <= lo
                            ? 0
                            : ((Word{1} << (remaining - lo)) - 1);
    }

    for (const GateRef& gr : schedule_) {
      good[gr.net] = eval_entry(
          gr, [&](std::uint32_t k) -> const WideWord& {
            return good[fanin_flat_[gr.fanin_begin + k]];
          });
    }

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!alive[fi]) continue;
      const FaultPlan& plan = plans[fi];
      if (++epoch == 0) {  // stamp wrap: invalidate everything once
        std::fill(stamp.begin(), stamp.end(), 0u);
        epoch = 1;
      }

      // Inject the difference at the site.
      WideWord forced_wide;
      for (std::size_t j = 0; j < kWideWords; ++j) {
        forced_wide.w[j] = plan.forced;
      }
      WideWord v = forced_wide;
      if (plan.is_branch) {
        const GateRef& gr = schedule_[schedule_index_[plan.site]];
        v = eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
          return k == plan.pin ? forced_wide
                               : good[fanin_flat_[gr.fanin_begin + k]];
        });
      }
      if (v == good[plan.site]) continue;  // no lane differs under this block
      scratch[plan.site] = v;
      stamp[plan.site] = epoch;
      ++g.level_events[net_level_[plan.site]];

      // Chase the difference through the cone; a gate whose fanins all
      // carry good values is skipped, and a gate whose faulty value equals
      // its good value kills the difference on that path.
      for (const std::uint32_t si : plan.cone) {
        const GateRef& gr = schedule_[si];
        bool touched = false;
        for (std::uint32_t k = 0; k < gr.fanin_count; ++k) {
          if (stamp[fanin_flat_[gr.fanin_begin + k]] == epoch) {
            touched = true;
            break;
          }
        }
        if (!touched) continue;
        ++g.level_events[net_level_[gr.net]];
        const WideWord fv =
            eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
              const NetId f = fanin_flat_[gr.fanin_begin + k];
              return stamp[f] == epoch ? scratch[f] : good[f];
            });
        if (fv == good[gr.net]) continue;
        scratch[gr.net] = fv;
        stamp[gr.net] = epoch;
      }

      WideWord diff{};
      for (const NetId po : plan.observe) {
        if (stamp[po] != epoch) continue;
        for (std::size_t j = 0; j < kWideWords; ++j) {
          diff.w[j] |= scratch[po].w[j] ^ good[po].w[j];
        }
      }
      std::uint64_t hits = 0;
      for (std::size_t j = 0; j < kWideWords; ++j) {
        hits += static_cast<std::uint64_t>(
            std::popcount(diff.w[j] & mask.w[j]));
      }
      if (hits == 0) continue;
      g.detection_counts[fi] += hits;
      if (g.first_detection[fi] == kNotDetected) {
        for (std::size_t j = 0; j < kWideWords; ++j) {
          const Word masked = diff.w[j] & mask.w[j];
          if (masked) {
            g.first_detection[fi] =
                base + j * 64 +
                static_cast<std::uint64_t>(std::countr_zero(masked));
            break;
          }
        }
      }
      if (options.drop_detected) {
        alive[fi] = 0;
        --num_alive;
      }
    }
  }
  if (span.enabled()) {
    span.attr("faults", g.total);
    span.attr("patterns", g.num_patterns);
    span.attr("events", g.events());
    span.attr("detected", g.detected());
  }
  return g;
}

WideFaultSimulator::Grade WideFaultSimulator::grade_random(
    const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
    std::uint64_t seed, const Options& options) const {
  std::mt19937_64 rng(seed);
  const auto& pis = circuit_->inputs();
  return run(faults, num_patterns, options,
             [&](std::uint64_t /*block*/, std::vector<WideWord>& values) {
               // One word per PI per 64-pattern slice, slices in order:
               // random_patterns() reproduces exactly this stream.
               for (std::size_t j = 0; j < kWideWords; ++j) {
                 for (std::size_t i = 0; i < pis.size(); ++i) {
                   values[pis[i]].w[j] = rng();
                 }
               }
             });
}

WideFaultSimulator::Grade WideFaultSimulator::grade_vectors(
    const std::vector<StuckAtFault>& faults,
    const std::vector<std::vector<bool>>& vectors,
    const Options& options) const {
  const auto& pis = circuit_->inputs();
  for (const auto& vec : vectors) {
    if (vec.size() != pis.size()) {
      throw std::invalid_argument("grade_vectors: vector width != #PIs");
    }
  }
  return run(faults, vectors.size(), options,
             [&](std::uint64_t block, std::vector<WideWord>& values) {
               const std::size_t base = block * kWideLanes;
               const std::size_t lanes =
                   std::min(kWideLanes, vectors.size() - base);
               for (std::size_t i = 0; i < pis.size(); ++i) {
                 values[pis[i]] = WideWord{};
               }
               for (std::size_t l = 0; l < lanes; ++l) {
                 const auto& vec = vectors[base + l];
                 for (std::size_t i = 0; i < pis.size(); ++i) {
                   if (vec[i]) {
                     values[pis[i]].w[l / 64] |= Word{1} << (l % 64);
                   }
                 }
               }
             });
}

WideFaultSimulator::Grade WideFaultSimulator::grade_exhaustive(
    const std::vector<StuckAtFault>& faults, const Options& options) const {
  const auto& pis = circuit_->inputs();
  if (pis.size() > kMaxExhaustiveInputs) {
    throw std::invalid_argument(
        "exhaustive analysis limited to " +
        std::to_string(kMaxExhaustiveInputs) + " inputs; circuit '" +
        circuit_->name() + "' has " + std::to_string(pis.size()));
  }
  // PIs 0..5 vary within a word (fixed stripes); PI i >= 6 is constant
  // across a word and takes bit i-6 of the word's global index B*4 + j.
  static constexpr Word kStripe[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  return run(faults, std::size_t{1} << pis.size(), options,
             [&](std::uint64_t block, std::vector<WideWord>& values) {
               for (std::size_t i = 0; i < pis.size(); ++i) {
                 for (std::size_t j = 0; j < kWideWords; ++j) {
                   const std::uint64_t word = block * kWideWords + j;
                   values[pis[i]].w[j] =
                       i < 6 ? kStripe[i]
                             : ((word >> (i - 6)) & 1u) ? ~Word{0} : 0;
                 }
               }
             });
}

std::vector<std::vector<bool>> WideFaultSimulator::random_patterns(
    std::size_t num_patterns, std::uint64_t seed) const {
  std::mt19937_64 rng(seed);
  const std::size_t num_pis = circuit_->num_inputs();
  std::vector<std::vector<bool>> vectors(num_patterns,
                                         std::vector<bool>(num_pis, false));
  for (std::size_t base = 0; base < num_patterns; base += kWideLanes) {
    for (std::size_t j = 0; j < kWideWords; ++j) {
      for (std::size_t i = 0; i < num_pis; ++i) {
        const Word word = rng();
        for (std::size_t l = 0; l < 64; ++l) {
          const std::size_t p = base + j * 64 + l;
          if (p < num_patterns && ((word >> l) & 1u)) vectors[p][i] = true;
        }
      }
    }
  }
  return vectors;
}

std::size_t WideFaultSimulator::Grade::detected() const {
  std::size_t n = 0;
  for (const std::uint64_t count : detection_counts) n += count > 0;
  return n;
}

std::uint64_t WideFaultSimulator::Grade::events() const {
  std::uint64_t n = 0;
  for (const std::uint64_t e : level_events) n += e;
  return n;
}

}  // namespace dp::sim
