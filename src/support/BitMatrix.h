//===- support/BitMatrix.h - Symmetric boolean matrix -----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact symmetric bit matrix used for O(1) interference queries. Only the
/// strict lower triangle is stored; the diagonal is implicitly false (a
/// variable never interferes with itself).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BITMATRIX_H
#define SUPPORT_BITMATRIX_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rc {

/// Symmetric N x N bit matrix with a false diagonal.
class BitMatrix {
public:
  explicit BitMatrix(unsigned N = 0) { reset(N); }

  /// Clears the matrix and resizes it to \p N rows/columns.
  void reset(unsigned N);

  /// Grows the matrix to \p NewN rows/columns, preserving existing bits.
  ///
  /// The triangular index of a pair only depends on the pair itself, so
  /// growing never relocates existing bits.
  void grow(unsigned NewN);

  /// Returns the number of rows (= columns).
  unsigned size() const { return N; }

  /// Returns the bit at (\p I, \p J). The diagonal is always false.
  bool test(unsigned I, unsigned J) const {
    assert(I < N && J < N && "index out of range");
    if (I == J)
      return false;
    unsigned Idx = index(I, J);
    return (Words[Idx >> 6] >> (Idx & 63)) & 1;
  }

  /// Sets the bit at (\p I, \p J) (and symmetrically (\p J, \p I)).
  void set(unsigned I, unsigned J) {
    assert(I < N && J < N && I != J && "cannot set the diagonal");
    unsigned Idx = index(I, J);
    Words[Idx >> 6] |= uint64_t(1) << (Idx & 63);
  }

  /// Clears the bit at (\p I, \p J).
  void clear(unsigned I, unsigned J) {
    assert(I < N && J < N && I != J && "cannot clear the diagonal");
    unsigned Idx = index(I, J);
    Words[Idx >> 6] &= ~(uint64_t(1) << (Idx & 63));
  }

  /// Returns the number of set bits (i.e. the number of edges).
  unsigned count() const;

  /// Calls \p F(J) for every J < \p I whose bit (\p I, J) is set, in
  /// ascending J. Those bits are one contiguous run of the triangle, so the
  /// walk reads I / 64 + 2 words at most.
  template <typename Fn> void forEachBelow(unsigned I, Fn F) const {
    assert(I < N && "index out of range");
    if (I == 0)
      return;
    size_t Begin = index(I, 0), End = Begin + I;
    size_t First = Begin >> 6, Last = (End - 1) >> 6;
    for (size_t W = First; W <= Last; ++W) {
      uint64_t Bits = Words[W];
      if (W == First)
        Bits &= ~uint64_t(0) << (Begin & 63);
      if (W == Last && (End & 63))
        Bits &= (uint64_t(1) << (End & 63)) - 1;
      for (; Bits; Bits &= Bits - 1)
        F(static_cast<unsigned>(W * 64 + std::countr_zero(Bits) - Begin));
    }
  }

private:
  /// Maps the unordered pair {I, J}, I != J, to a dense triangular index.
  static unsigned index(unsigned I, unsigned J) {
    if (I < J)
      std::swap(I, J);
    return I * (I - 1) / 2 + J;
  }

  unsigned N = 0;
  std::vector<uint64_t> Words;
};

} // namespace rc

#endif // SUPPORT_BITMATRIX_H
