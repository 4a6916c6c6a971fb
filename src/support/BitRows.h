//===- support/BitRows.h - Row-major symmetric bit matrix -------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A row-major symmetric boolean matrix. Every row is a contiguous
/// word-aligned bitset, so set algebra over neighborhoods --
/// common-neighbor counts, masked popcounts -- runs word-at-a-time. The
/// cost is storing every bit twice (N*N bits instead of N*(N-1)/2): 4096
/// rows cost 2 MiB.
///
/// The diagonal is implicitly false and cannot be set.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BITROWS_H
#define SUPPORT_BITROWS_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rc {

/// Symmetric N x N bit matrix with word-addressable rows.
class BitRows {
public:
  explicit BitRows(unsigned N = 0) { reset(N); }

  /// Clears the matrix and resizes it to \p N rows/columns.
  void reset(unsigned N) {
    this->N = N;
    WordsPerRow = (N + 63) / 64;
    Words.assign(static_cast<size_t>(N) * WordsPerRow, 0);
  }

  /// Returns the number of rows (= columns).
  unsigned size() const { return N; }

  /// Number of 64-bit words per row.
  unsigned wordsPerRow() const { return WordsPerRow; }

  /// Word-aligned view of row \p I.
  const uint64_t *row(unsigned I) const {
    assert(I < N && "row out of range");
    return Words.data() + static_cast<size_t>(I) * WordsPerRow;
  }

  /// Mutable word-aligned view of row \p I, for callers that edit whole
  /// neighborhoods at once (e.g. OR-ing one row into another). The caller
  /// owns symmetry: bulk row edits must be mirrored column-side (or
  /// rewritten via set/clear) before any symmetric query.
  uint64_t *row(unsigned I) {
    assert(I < N && "row out of range");
    return mutRow(I);
  }

  /// Returns the bit at (\p I, \p J). The diagonal is always false.
  bool test(unsigned I, unsigned J) const {
    assert(I < N && J < N && "index out of range");
    return (row(I)[J >> 6] >> (J & 63)) & 1;
  }

  /// Sets the bit at (\p I, \p J) and symmetrically at (\p J, \p I).
  void set(unsigned I, unsigned J) {
    assert(I < N && J < N && I != J && "cannot set the diagonal");
    mutRow(I)[J >> 6] |= uint64_t(1) << (J & 63);
    mutRow(J)[I >> 6] |= uint64_t(1) << (I & 63);
  }

  /// Clears the bit at (\p I, \p J) and symmetrically at (\p J, \p I).
  void clear(unsigned I, unsigned J) {
    assert(I < N && J < N && I != J && "cannot clear the diagonal");
    mutRow(I)[J >> 6] &= ~(uint64_t(1) << (J & 63));
    mutRow(J)[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  /// Popcount of (row I & row J): the number of common neighbors of I
  /// and J when rows encode adjacency.
  unsigned countCommon(unsigned I, unsigned J) const {
    const uint64_t *RI = row(I), *RJ = row(J);
    unsigned Count = 0;
    for (unsigned W = 0; W < WordsPerRow; ++W)
      Count += static_cast<unsigned>(std::popcount(RI[W] & RJ[W]));
    return Count;
  }

  /// Popcount of (row I & row J & Mask) for a caller-maintained word mask
  /// of wordsPerRow() entries.
  unsigned countCommonMasked(unsigned I, unsigned J,
                             const uint64_t *Mask) const {
    const uint64_t *RI = row(I), *RJ = row(J);
    unsigned Count = 0;
    for (unsigned W = 0; W < WordsPerRow; ++W)
      Count += static_cast<unsigned>(std::popcount(RI[W] & RJ[W] & Mask[W]));
    return Count;
  }

private:
  uint64_t *mutRow(unsigned I) {
    return Words.data() + static_cast<size_t>(I) * WordsPerRow;
  }

  unsigned N = 0;
  unsigned WordsPerRow = 0;
  std::vector<uint64_t> Words;
};

} // namespace rc

#endif // SUPPORT_BITROWS_H
