// Gate primitives for combinational netlists.
//
// The netlist model follows the ISCAS-85 ".bench" convention: every gate
// drives exactly one named net, so gates and nets are identified 1:1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dp::netlist {

/// Identifier of a net (== the gate driving it, or a primary input).
using NetId = std::uint32_t;
inline constexpr NetId kInvalidNet = 0xffffffffu;

enum class GateType : std::uint8_t {
  Input,   ///< primary input; no fanins
  Buf,     ///< 1-input buffer
  Not,     ///< 1-input inverter
  And,     ///< n-input AND (n >= 1)
  Nand,    ///< n-input NAND
  Or,      ///< n-input OR
  Nor,     ///< n-input NOR
  Xor,     ///< n-input XOR (odd parity)
  Xnor,    ///< n-input XNOR (even parity)
  Const0,  ///< constant 0, no fanins
  Const1,  ///< constant 1, no fanins
};

/// True for gate types whose output is the complement of the same gate
/// without the bubble (NAND/NOR/XNOR/NOT).
constexpr bool is_inverting(GateType t) {
  return t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor ||
         t == GateType::Not;
}

/// Strips an output bubble: NAND -> AND, NOR -> OR, XNOR -> XOR, NOT -> BUF.
constexpr GateType base_of(GateType t) {
  switch (t) {
    case GateType::Nand: return GateType::And;
    case GateType::Nor: return GateType::Or;
    case GateType::Xnor: return GateType::Xor;
    case GateType::Not: return GateType::Buf;
    default: return t;
  }
}

constexpr bool is_constant(GateType t) {
  return t == GateType::Const0 || t == GateType::Const1;
}

/// Number of fanins the type requires; 0 means "any count >= 1".
constexpr int fixed_arity(GateType t) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1: return -1;  // exactly zero fanins
    case GateType::Buf:
    case GateType::Not: return 1;
    default: return 0;  // variadic
  }
}

std::string_view to_string(GateType t);

/// Parses a .bench gate keyword (case-insensitive): "AND", "nand", ...
/// Returns nullopt for unknown keywords.
std::optional<GateType> gate_type_from_string(std::string_view s);

}  // namespace dp::netlist
