//===- support/BitSet.h - Dynamic bit set -----------------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-universe dynamic bit set used for dataflow (liveness) sets.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BITSET_H
#define SUPPORT_BITSET_H

#include <bit>
#include <cstddef>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rc {

/// A bit set over the universe 0..size()-1.
class BitSet {
public:
  explicit BitSet(unsigned Universe = 0)
      : Universe(Universe), Words((Universe + 63) / 64, 0) {}

  /// Returns the universe size.
  unsigned size() const { return Universe; }

  /// Tests bit \p I.
  bool test(unsigned I) const {
    assert(I < Universe && "bit out of range");
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  /// Sets bit \p I. \returns true if the bit was previously clear.
  bool set(unsigned I) {
    assert(I < Universe && "bit out of range");
    uint64_t Mask = uint64_t(1) << (I & 63);
    bool WasClear = !(Words[I >> 6] & Mask);
    Words[I >> 6] |= Mask;
    return WasClear;
  }

  /// Clears bit \p I.
  void reset(unsigned I) {
    assert(I < Universe && "bit out of range");
    Words[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  /// Clears all bits.
  void clear() { Words.assign(Words.size(), 0); }

  /// Unions \p Other into this set. \returns true if this set changed.
  bool unionWith(const BitSet &Other) {
    assert(Other.Universe == Universe && "universe mismatch");
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t New = Words[W] | Other.Words[W];
      Changed |= New != Words[W];
      Words[W] = New;
    }
    return Changed;
  }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned Total = 0;
    for (uint64_t W : Words)
      Total += static_cast<unsigned>(std::popcount(W));
    return Total;
  }

  /// Calls \p Fn(I) for every set bit I, in increasing order. \p Fn must
  /// not modify this set.
  template <typename FnT> void forEach(FnT &&Fn) const {
    for (size_t W = 0; W < Words.size(); ++W)
      for (uint64_t Bits = Words[W]; Bits; Bits &= Bits - 1)
        Fn(static_cast<unsigned>(W * 64 + std::countr_zero(Bits)));
  }

  /// Returns the set bits in increasing order.
  std::vector<unsigned> toVector() const {
    std::vector<unsigned> Result;
    Result.reserve(count());
    forEach([&Result](unsigned I) { Result.push_back(I); });
    return Result;
  }

  friend bool operator==(const BitSet &A, const BitSet &B) {
    return A.Universe == B.Universe && A.Words == B.Words;
  }

private:
  unsigned Universe;
  std::vector<uint64_t> Words;
};

} // namespace rc

#endif // SUPPORT_BITSET_H
