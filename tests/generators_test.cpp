// Behavioral verification of every generated benchmark circuit against an
// independent C++ model, via exhaustive or sampled simulation.
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "netlist/generators.hpp"
#include "verify/reference_sim.hpp"

namespace dp::netlist {
namespace {

/// Evaluates circuit outputs for one input assignment (PI-indexed bits).
std::vector<bool> run(const Circuit& c, const std::vector<bool>& in) {
  return verify::ReferenceSimulator(c).outputs(in);
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = (v >> i) & 1;
  return b;
}

std::uint64_t pack(const std::vector<bool>& b, std::size_t lo, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (b[lo + i]) v |= 1ull << i;
  }
  return v;
}

TEST(GeneratorsTest, C17MatchesNandEquations) {
  Circuit c = make_c17();
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.num_gates(), 6u);
  for (std::uint64_t v = 0; v < 32; ++v) {
    const auto in = bits_of(v, 5);
    // PI order: 1, 2, 3, 6, 7.
    const bool i1 = in[0], i2 = in[1], i3 = in[2], i6 = in[3], i7 = in[4];
    const bool n10 = !(i1 && i3);
    const bool n11 = !(i3 && i6);
    const bool n16 = !(i2 && n11);
    const bool n19 = !(n11 && i7);
    const bool n22 = !(n10 && n16);
    const bool n23 = !(n16 && n19);
    const auto out = run(c, in);
    EXPECT_EQ(out[0], n22) << v;
    EXPECT_EQ(out[1], n23) << v;
  }
}

TEST(GeneratorsTest, FullAdderAddsBits) {
  Circuit c = make_full_adder();
  for (std::uint64_t v = 0; v < 8; ++v) {
    const auto in = bits_of(v, 3);
    const int total = in[0] + in[1] + in[2];
    const auto out = run(c, in);
    EXPECT_EQ(out[0], total & 1) << v;        // sum
    EXPECT_EQ(out[1], (total >> 1) & 1) << v;  // carry
  }
}

TEST(GeneratorsTest, RippleAdderAddsExhaustively) {
  Circuit c = make_ripple_adder(4);
  for (std::uint64_t v = 0; v < (1u << 9); ++v) {
    const auto in = bits_of(v, 9);  // a[4], b[4], cin
    const std::uint64_t a = pack(in, 0, 4), b = pack(in, 4, 4);
    const std::uint64_t cin = in[8];
    const std::uint64_t expect = a + b + cin;
    const auto out = run(c, in);
    std::uint64_t got = 0;
    for (int i = 0; i < 5; ++i) got |= static_cast<std::uint64_t>(out[i]) << i;
    EXPECT_EQ(got, expect) << "a=" << a << " b=" << b << " cin=" << cin;
  }
}

TEST(GeneratorsTest, ParityTreesComputeParity) {
  for (bool balanced : {true, false}) {
    Circuit c = make_parity_tree(7, balanced);
    for (std::uint64_t v = 0; v < (1u << 7); ++v) {
      const auto in = bits_of(v, 7);
      const bool parity = std::popcount(v) & 1;
      EXPECT_EQ(run(c, in)[0], parity) << v << " balanced=" << balanced;
    }
  }
}

TEST(GeneratorsTest, C95MultiplierIsExhaustivelyCorrect) {
  Circuit c = make_c95_analog();
  EXPECT_EQ(c.num_inputs(), 8u);
  EXPECT_EQ(c.num_outputs(), 8u);
  for (std::uint64_t v = 0; v < 256; ++v) {
    const auto in = bits_of(v, 8);
    const std::uint64_t a = pack(in, 0, 4), b = pack(in, 4, 4);
    const auto out = run(c, in);
    std::uint64_t got = 0;
    for (int i = 0; i < 8; ++i) got |= static_cast<std::uint64_t>(out[i]) << i;
    EXPECT_EQ(got, a * b) << a << "*" << b;
  }
}

TEST(GeneratorsTest, Alu181AddsInArithmeticMode) {
  Circuit c = make_alu181();
  EXPECT_EQ(c.num_inputs(), 14u);
  EXPECT_EQ(c.num_outputs(), 8u);
  // S = 1001 (s0 = 1, s3 = 1), M = 0: F = A plus B plus Cn.
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (std::uint64_t cn = 0; cn < 2; ++cn) {
        std::vector<bool> in(14, false);
        for (int i = 0; i < 4; ++i) in[i] = (a >> i) & 1;
        for (int i = 0; i < 4; ++i) in[4 + i] = (b >> i) & 1;
        in[8] = true;   // s0
        in[11] = true;  // s3
        in[12] = false; // m = 0: arithmetic
        in[13] = cn;
        const auto out = run(c, in);
        std::uint64_t f = 0;
        for (int i = 0; i < 4; ++i) f |= static_cast<std::uint64_t>(out[i]) << i;
        const std::uint64_t sum = a + b + cn;
        EXPECT_EQ(f, sum & 0xf) << a << "+" << b << "+" << cn;
        EXPECT_EQ(out[4], (sum >> 4) & 1) << "carry";  // Cout
      }
    }
  }
}

TEST(GeneratorsTest, Alu181LogicModeSuppressesCarries) {
  Circuit c = make_alu181();
  // M = 1: F_i must depend only on A_i, B_i, S (checked by flipping a
  // lower bit and observing no effect on higher F bits).
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> in(14);
    for (auto&& bit : in) bit = rng() & 1;
    in[12] = true;  // m = 1
    const auto base = run(c, in);
    auto flipped = in;
    flipped[0] = !flipped[0];  // flip a0
    const auto out = run(c, flipped);
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(out[i], base[i]) << "carry leaked in logic mode, trial "
                                 << trial;
    }
  }
}

TEST(GeneratorsTest, C432AnalogArbitratesChannels) {
  Circuit c = make_c432_analog();
  EXPECT_EQ(c.num_inputs(), 36u);
  EXPECT_EQ(c.num_outputs(), 7u);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<bool> in(36);
    for (auto&& bit : in) bit = rng() & 1;
    // PI order: e[9], a[9], b[9], c[9].
    bool any_a = false, any_b = false, any_c = false;
    int winner = -1;
    for (int i = 0; i < 9; ++i) {
      if (in[i] && in[9 + i]) any_a = true;
    }
    for (int i = 0; i < 9; ++i) {
      if (in[i] && in[18 + i]) any_b = true;
    }
    for (int i = 0; i < 9; ++i) {
      if (in[i] && in[27 + i]) any_c = true;
    }
    const int off = any_a ? 9 : any_b ? 18 : 27;
    for (int i = 0; i < 9 && winner < 0; ++i) {
      if (in[i] && in[off + i]) winner = i;
    }
    const auto out = run(c, in);
    EXPECT_EQ(out[0], any_a);
    EXPECT_EQ(out[1], any_b && !any_a);
    EXPECT_EQ(out[2], any_c && !any_a && !any_b);
    if (winner >= 0) {
      for (int bit = 0; bit < 4; ++bit) {
        EXPECT_EQ(out[3 + bit], static_cast<bool>((winner >> bit) & 1))
            << "trial " << trial;
      }
    }
  }
}

TEST(GeneratorsTest, C499AnalogCorrectsSingleDataErrors) {
  Circuit c = make_c499_analog();
  EXPECT_EQ(c.num_inputs(), 41u);
  EXPECT_EQ(c.num_outputs(), 32u);
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    // Random data word; compute matching check bits from the circuit
    // itself by first simulating with r = 0 and reading the syndromes off
    // an error-free reference... simpler: encode via the pattern masks.
    std::vector<bool> data(32);
    for (auto&& bit : data) bit = rng() & 1;
    std::vector<bool> check(8, false);
    for (int j = 0; j < 8; ++j) {
      bool p = false;
      for (int i = 0; i < 32; ++i) {
        unsigned pat = static_cast<unsigned>(i + 9);
        if ((pat & (pat - 1)) == 0) pat |= 0x80;
        if ((pat >> j) & 1) p ^= data[i];
      }
      check[j] = p;
    }
    // Inject a single data-bit error; with t = 1 the output must equal the
    // original data.
    const int bad = static_cast<int>(rng() % 32);
    std::vector<bool> in;
    for (int i = 0; i < 32; ++i) in.push_back(data[i] ^ (i == bad));
    for (int j = 0; j < 8; ++j) in.push_back(check[j]);
    in.push_back(true);  // t
    const auto out = run(c, in);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(out[i], data[i]) << "bit " << i << " trial " << trial;
    }
  }
}

TEST(GeneratorsTest, C1355AnalogIsNandOnly) {
  Circuit c = make_c1355_analog();
  EXPECT_EQ(c.num_inputs(), 41u);
  EXPECT_EQ(c.num_outputs(), 32u);
  for (NetId id = 0; id < c.num_nets(); ++id) {
    const GateType t = c.type(id);
    EXPECT_TRUE(t == GateType::Input || t == GateType::Nand ||
                t == GateType::And || t == GateType::Not ||
                t == GateType::Buf)
        << to_string(t);
    EXPECT_NE(t, GateType::Xor);
    EXPECT_NE(t, GateType::Xnor);
  }
  EXPECT_GT(c.num_gates(), make_c499_analog().num_gates());
}

TEST(GeneratorsTest, C1908AnalogShape) {
  Circuit c = make_c1908_analog();
  EXPECT_EQ(c.num_inputs(), 33u);
  EXPECT_EQ(c.num_outputs(), 25u);
  EXPECT_GT(c.num_gates(), 400u);
}

TEST(GeneratorsTest, C1908FlagsUncorrectableErrors) {
  Circuit c = make_c1908_analog();
  std::mt19937_64 rng(17);
  // Clean word: syndrome zero, error PO low. Two check-bit errors:
  // unmatched nonzero syndrome, error PO high.
  std::vector<bool> data(24);
  for (auto&& bit : data) bit = rng() & 1;
  std::vector<bool> check(8, false);
  for (int j = 0; j < 8; ++j) {
    bool p = false;
    for (int i = 0; i < 24; ++i) {
      unsigned pat = static_cast<unsigned>(i + 11);
      if ((pat & (pat - 1)) == 0) pat |= 0x80;
      if ((pat >> j) & 1) p ^= data[i];
    }
    check[j] = p;
  }
  auto assemble = [&](bool flip_r0, bool flip_r1) {
    std::vector<bool> in(data.begin(), data.end());
    for (int j = 0; j < 8; ++j) {
      in.push_back(check[j] ^ (j == 0 && flip_r0) ^ (j == 1 && flip_r1));
    }
    in.push_back(true);
    return in;
  };
  EXPECT_FALSE(run(c, assemble(false, false))[24]);  // clean
  EXPECT_TRUE(run(c, assemble(true, true))[24]);     // double check error
}

TEST(GeneratorsTest, SuiteIsOrderedBySize) {
  const auto names = benchmark_names();
  ASSERT_EQ(names.size(), 8u);
  std::size_t prev = 0;
  for (const auto& name : names) {
    Circuit c = make_benchmark(name);
    EXPECT_EQ(c.name(), name);
    EXPECT_GE(c.num_gates(), prev) << name;
    prev = c.num_gates();
  }
  EXPECT_THROW(make_benchmark("c6288"), NetlistError);
}

TEST(GeneratorsTest, CircuitShapeNamesRoundTrip) {
  EXPECT_EQ(all_circuit_shapes().size(), 5u);
  for (CircuitShape shape : all_circuit_shapes()) {
    const auto back = circuit_shape_from_string(to_string(shape));
    ASSERT_TRUE(back.has_value()) << to_string(shape);
    EXPECT_EQ(*back, shape);
  }
  EXPECT_FALSE(circuit_shape_from_string("banana").has_value());
  EXPECT_FALSE(circuit_shape_from_string("").has_value());
}

TEST(GeneratorsTest, ShapedCircuitsAreReproduciblePerPreset) {
  for (CircuitShape shape : all_circuit_shapes()) {
    Circuit a = make_random_circuit(99, 7, 25, 3, shape);
    Circuit b = make_random_circuit(99, 7, 25, 3, shape);
    ASSERT_EQ(a.num_nets(), b.num_nets()) << to_string(shape);
    for (NetId id = 0; id < a.num_nets(); ++id) {
      EXPECT_EQ(a.type(id), b.type(id)) << to_string(shape);
      EXPECT_EQ(a.fanins(id), b.fanins(id)) << to_string(shape);
    }
    EXPECT_EQ(a.outputs(), b.outputs()) << to_string(shape);
  }
}

TEST(GeneratorsTest, MixedShapeMatchesFourArgOverloadExactly) {
  Circuit a = make_random_circuit(42, 8, 30, 4);
  Circuit b = make_random_circuit(42, 8, 30, 4, CircuitShape::Mixed);
  ASSERT_EQ(a.num_nets(), b.num_nets());
  EXPECT_EQ(a.name(), b.name());
  for (NetId id = 0; id < a.num_nets(); ++id) {
    EXPECT_EQ(a.type(id), b.type(id));
    EXPECT_EQ(a.fanins(id), b.fanins(id));
  }
  EXPECT_EQ(a.outputs(), b.outputs());
}

TEST(GeneratorsTest, EveryShapeYieldsDrivenAcyclicCircuits) {
  for (CircuitShape shape : all_circuit_shapes()) {
    for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
      Circuit c = make_random_circuit(seed, 6, 20, 3, shape);
      // finalize() already ran (it throws on undefined nets and cycles),
      // so re-check its guarantees structurally: every gate's fanins are
      // defined, and the topo order places fanins before consumers.
      EXPECT_EQ(c.num_inputs(), 6u) << to_string(shape);
      EXPECT_GE(c.num_outputs(), 3u) << to_string(shape);
      std::vector<std::size_t> position(c.num_nets());
      const auto& topo = c.topo_order();
      ASSERT_EQ(topo.size(), c.num_nets()) << to_string(shape);
      for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
      for (NetId id = 0; id < c.num_nets(); ++id) {
        if (c.type(id) != GateType::Input) {
          EXPECT_FALSE(c.fanins(id).empty()) << to_string(shape);
        }
        for (NetId f : c.fanins(id)) {
          EXPECT_LT(position[f], position[id])
              << to_string(shape) << " seed " << seed;
        }
      }
      // Every non-PO net must feed something (all sinks became POs).
      for (NetId id = 0; id < c.num_nets(); ++id) {
        if (c.fanout_count(id) == 0) {
          const auto& pos = c.outputs();
          EXPECT_TRUE(c.type(id) == GateType::Input ||
                      std::find(pos.begin(), pos.end(), id) != pos.end())
              << to_string(shape) << " seed " << seed << " net " << id;
        }
      }
    }
  }
}

TEST(GeneratorsTest, ShapePresetsSteerStructure) {
  // FanoutHeavy: some net collects much more fanout than Mixed's max.
  std::size_t mixed_max = 0, heavy_max = 0;
  Circuit mixed = make_random_circuit(5, 8, 60, 4, CircuitShape::Mixed);
  Circuit heavy = make_random_circuit(5, 8, 60, 4, CircuitShape::FanoutHeavy);
  for (NetId id = 0; id < mixed.num_nets(); ++id) {
    mixed_max = std::max(mixed_max, mixed.fanout_count(id));
  }
  for (NetId id = 0; id < heavy.num_nets(); ++id) {
    heavy_max = std::max(heavy_max, heavy.fanout_count(id));
  }
  EXPECT_GE(heavy_max, 8u);
  EXPECT_GT(heavy_max, mixed_max);

  // XorRich: a majority of gates are parity gates.
  Circuit xr = make_random_circuit(5, 8, 60, 4, CircuitShape::XorRich);
  int parity = 0, gates = 0;
  for (NetId id = 0; id < xr.num_nets(); ++id) {
    if (xr.type(id) == GateType::Input) continue;
    ++gates;
    if (xr.type(id) == GateType::Xor || xr.type(id) == GateType::Xnor) {
      ++parity;
    }
  }
  EXPECT_GE(parity * 100, gates * 40) << parity << "/" << gates;

  // DeepChain: depth equals the gate count (each gate feeds the next).
  Circuit ch = make_random_circuit(5, 4, 30, 1, CircuitShape::DeepChain);
  std::vector<int> level(ch.num_nets(), 0);
  int max_level = 0;
  for (NetId id : ch.topo_order()) {
    for (NetId f : ch.fanins(id)) level[id] = std::max(level[id], level[f] + 1);
    max_level = std::max(max_level, level[id]);
  }
  EXPECT_GE(max_level, 25);

  // Reconvergent: at least one stem reaches some net along >= 2 paths
  // through distinct immediate fanins.
  Circuit rc = make_random_circuit(5, 6, 30, 2, CircuitShape::Reconvergent);
  bool reconverges = false;
  for (NetId id = 0; id < rc.num_nets() && !reconverges; ++id) {
    const auto& fi = rc.fanins(id);
    if (fi.size() < 2) continue;
    // Both fanins are gates sharing a common transitive source.
    auto cone = [&](NetId root) {
      std::vector<bool> seen(rc.num_nets(), false);
      std::vector<NetId> stack{root};
      while (!stack.empty()) {
        NetId n = stack.back();
        stack.pop_back();
        if (seen[n]) continue;
        seen[n] = true;
        for (NetId f : rc.fanins(n)) stack.push_back(f);
      }
      return seen;
    };
    const auto a = cone(fi[0]), b = cone(fi[1]);
    for (NetId n = 0; n < rc.num_nets(); ++n) {
      if (a[n] && b[n]) {
        reconverges = true;
        break;
      }
    }
  }
  EXPECT_TRUE(reconverges);
}

TEST(GeneratorsTest, RandomCircuitIsReproducibleAndValid) {
  Circuit a = make_random_circuit(42, 8, 30, 4);
  Circuit b = make_random_circuit(42, 8, 30, 4);
  EXPECT_EQ(a.num_nets(), b.num_nets());
  for (NetId id = 0; id < a.num_nets(); ++id) {
    EXPECT_EQ(a.type(id), b.type(id));
    EXPECT_EQ(a.fanins(id), b.fanins(id));
  }
  Circuit c = make_random_circuit(43, 8, 30, 4);
  EXPECT_EQ(c.num_inputs(), 8u);
  EXPECT_GE(c.num_outputs(), 4u);
  EXPECT_THROW(make_random_circuit(1, 0, 5, 1), NetlistError);
}

}  // namespace
}  // namespace dp::netlist
