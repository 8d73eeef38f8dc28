// Direct-mapped computed table for BDD operations (CUDD-style).
//
// Collisions silently evict: the cache is an accelerator, never a source of
// truth, so a lost entry only costs recomputation.
//
// Keys are (op, a, b) with a and b full *edges* -- the complement bit is
// part of the key, so f&g and f&¬g occupy distinct entries. Callers
// canonicalize commutative operands (a <= b) before keying; the slot mix
// below keeps `op` in its own bit range so an op id can never alias into
// an operand's bits (the old packing XORed op into b's low byte, which
// collided (op=And, b) with (op=Xor, b^2) systematically).
//
// Sizing and invalidation are the owner's policy (Manager: the table
// tracks the live-node count between kMinSlots and kMaxSlots); this class
// supplies the cheap primitives the policy needs. Every entry carries
// the epoch it was written in, and only entries of the current epoch hit,
// so invalidate() drops the whole table by bumping one counter instead of
// rewriting it. The epoch is 16 bits wide and lives in what would
// otherwise be padding; when it wraps, the table is wiped once so an
// entry from 65535 invalidations ago can never look current again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bdd/bdd_types.hpp"

namespace dp::bdd {

class ComputedCache {
 public:
  /// Initial and minimum slot count (the unique table's initial size).
  static constexpr std::size_t kMinSlots = std::size_t{1} << 12;
  /// Growth cap.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 22;

  ComputedCache() { reset(kMinSlots); }

  /// Returns kInvalidNode on miss.
  NodeIndex lookup(Op op, NodeIndex a, NodeIndex b) const {
    const Entry& e = entries_[slot(op, a, b)];
    if (e.epoch == epoch_ && e.op == op && e.a == a && e.b == b) {
      return e.result;
    }
    return kInvalidNode;
  }

  void insert(Op op, NodeIndex a, NodeIndex b, NodeIndex result) {
    entries_[slot(op, a, b)] = Entry{a, b, result, op, epoch_};
  }

  /// Drops every entry in O(1) (a full wipe once per 65535 calls).
  void invalidate() {
    if (++epoch_ == 0) {
      entries_.assign(entries_.size(), Entry{});
      epoch_ = 1;
    }
  }

  /// Replaces the table with an empty one of `slots` entries (a power of
  /// two), releasing the old storage.
  void reset(std::size_t slots) {
    std::vector<Entry>(slots).swap(entries_);
    mask_ = slots - 1;
  }

  /// Doubles the table, keeping every current entry. Doubling widens the
  /// slot mask by one bit, so old slot s maps to s or s + old size: no
  /// two current entries collide in the copy.
  void grow() {
    const std::vector<Entry> old =
        std::exchange(entries_, std::vector<Entry>(2 * entries_.size()));
    mask_ = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.epoch == epoch_) entries_[slot(e.op, e.a, e.b)] = e;
    }
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    NodeIndex a = kInvalidNode;
    NodeIndex b = kInvalidNode;
    NodeIndex result = kInvalidNode;
    Op op = Op::And;
    std::uint16_t epoch = 0;  ///< never current: epoch_ is in [1, 65535]
  };
  static_assert(sizeof(Entry) == 16, "the epoch must fit the padding");

  std::size_t slot(Op op, NodeIndex a, NodeIndex b) const {
    // The operands fill the low 64 bits; a first multiplicative mix
    // diffuses them, then `op` lands in bits 56..63 -- a range no operand
    // bit occupies pre-mix -- and a second multiply spreads it. Two
    // finalizer-style rounds keep the high bits (the ones the slot index
    // is drawn from) sensitive to every key bit.
    std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) |
                        static_cast<std::uint64_t>(b);
    key *= 0x9e3779b97f4a7c15ull;
    key ^= static_cast<std::uint64_t>(op) << 56;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key >> 32) & mask_;
  }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  std::uint16_t epoch_ = 1;
};

}  // namespace dp::bdd
