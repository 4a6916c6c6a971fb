//===- support/AdjacencyArena.h - Pooled sorted adjacency rows --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-backed CSR-style adjacency storage for the sparse mode of
/// coalescing/WorkGraph, whose class rows change as merges run and roll
/// back. (graph/Graph is immutable and keeps plain CSR rows.) All neighbor
/// lists live in one contiguous pool; each row is a (offset, size, capacity) triple into it,
/// kept sorted ascending so membership is a binary search and set algebra
/// runs on merges of sorted runs.
///
/// Mutation strategy: an insert into a full row relocates the row to the
/// pool tail with doubled capacity and retires the old extent. Reclaimable
/// space (retired extents plus capacity slack) is rewritten out by
/// compact(), which packs the pool into an exact CSR (capacity == size,
/// rows in id order) and runs automatically once reclaimable slots exceed
/// half the pool — so the footprint stays O(live entries) and each rewrite
/// is amortized against the mutations that created the garbage.
///
/// Unlike per-row std::vectors, a million nearly-empty rows cost one
/// allocation instead of a million, rows sit cache-adjacent in id order
/// after a compact, and copying the whole structure is two flat copies.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_ADJACENCYARENA_H
#define SUPPORT_ADJACENCYARENA_H

#include "support/VertexSpan.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace rc {

/// Pooled storage of sorted per-row vertex lists.
class AdjacencyArena {
public:
  AdjacencyArena() = default;

  /// Clears everything and creates \p NumRows empty rows.
  void reset(unsigned NumRows) {
    Rows.assign(NumRows, Row());
    Pool.clear();
    Live = 0;
  }

  /// Reserves pool capacity for \p Entries total neighbor entries.
  void reserveEntries(size_t Entries) { Pool.reserve(Entries); }

  unsigned rowSize(unsigned R) const {
    assert(R < Rows.size() && "row out of range");
    return Rows[R].Size;
  }

  /// The row's sorted contents. Invalidated by any mutating call.
  VertexSpan row(unsigned R) const {
    assert(R < Rows.size() && "row out of range");
    return VertexSpan(Pool.data() + Rows[R].Offset, Rows[R].Size);
  }

  /// Binary-search membership test.
  bool contains(unsigned R, unsigned V) const {
    assert(R < Rows.size() && "row out of range");
    const unsigned *B = Pool.data() + Rows[R].Offset;
    const unsigned *E = B + Rows[R].Size;
    const unsigned *It = std::lower_bound(B, E, V);
    return It != E && *It == V;
  }

  /// Sorted insert. \returns true if \p V was not already present.
  bool insert(unsigned R, unsigned V) {
    assert(R < Rows.size() && "row out of range");
    {
      Row &Rw = Rows[R];
      unsigned *B = Pool.data() + Rw.Offset;
      unsigned *E = B + Rw.Size;
      unsigned *It = std::lower_bound(B, E, V);
      if (It != E && *It == V)
        return false;
      size_t Pos = static_cast<size_t>(It - B);
      if (Rw.Size == Rw.Cap)
        relocate(R, Rw.Cap ? 2 * Rw.Cap : 4);
      Row &Rw2 = Rows[R];
      unsigned *Base = Pool.data() + Rw2.Offset;
      for (unsigned *P = Base + Rw2.Size; P != Base + Pos; --P)
        *P = *(P - 1);
      Base[Pos] = V;
      ++Rw2.Size;
      ++Live;
    }
    maybeCompact();
    return true;
  }

  /// Sorted erase. \returns true if \p V was present.
  bool erase(unsigned R, unsigned V) {
    assert(R < Rows.size() && "row out of range");
    {
      Row &Rw = Rows[R];
      unsigned *B = Pool.data() + Rw.Offset;
      unsigned *E = B + Rw.Size;
      unsigned *It = std::lower_bound(B, E, V);
      if (It == E || *It != V)
        return false;
      for (unsigned *P = It; P + 1 != E; ++P)
        *P = *(P + 1);
      --Rw.Size;
      --Live;
    }
    maybeCompact();
    return true;
  }

  /// Replaces the row's contents with \p Sorted (strictly ascending).
  void assignRow(unsigned R, VertexSpan Sorted) {
    assert(R < Rows.size() && "row out of range");
    if (Sorted.size() > Rows[R].Cap)
      relocate(R, static_cast<unsigned>(Sorted.size()));
    Row &Rw = Rows[R];
    std::copy(Sorted.begin(), Sorted.end(), Pool.begin() + Rw.Offset);
    Live += Sorted.size();
    Live -= Rw.Size;
    Rw.Size = static_cast<unsigned>(Sorted.size());
    maybeCompact();
  }

  /// Empties the row. Its extent becomes reclaimable garbage.
  void clearRow(unsigned R) {
    assert(R < Rows.size() && "row out of range");
    Row &Rw = Rows[R];
    Live -= Rw.Size;
    Rw.Offset = 0;
    Rw.Size = 0;
    Rw.Cap = 0;
    maybeCompact();
  }

  /// Unions \p Sorted (strictly ascending, disjoint from the row) into the
  /// row in one backwards merge pass.
  void mergeSorted(unsigned R, const std::vector<unsigned> &Sorted) {
    if (Sorted.empty())
      return;
    assert(R < Rows.size() && "row out of range");
    unsigned NewSize = Rows[R].Size + static_cast<unsigned>(Sorted.size());
    if (NewSize > Rows[R].Cap)
      relocate(R, std::max(NewSize, Rows[R].Cap ? 2 * Rows[R].Cap : 4u));
    Row &Rw = Rows[R];
    // Merge backwards so the in-place union never overwrites unread input.
    unsigned *Base = Pool.data() + Rw.Offset;
    size_t I = Rw.Size, J = Sorted.size(), Out = NewSize;
    while (J > 0) {
      if (I > 0 && Base[I - 1] > Sorted[J - 1])
        Base[--Out] = Base[--I];
      else
        Base[--Out] = Sorted[--J];
    }
    Live += Sorted.size();
    Rw.Size = NewSize;
    maybeCompact();
  }

  /// Removes every element of \p Sorted (strictly ascending, a subset of
  /// the row) from the row in one pass.
  void removeSorted(unsigned R, const std::vector<unsigned> &Sorted) {
    if (Sorted.empty())
      return;
    assert(R < Rows.size() && "row out of range");
    Row &Rw = Rows[R];
    unsigned *Base = Pool.data() + Rw.Offset;
    size_t Out = 0, J = 0;
    for (size_t I = 0; I < Rw.Size; ++I) {
      if (J < Sorted.size() && Base[I] == Sorted[J]) {
        ++J;
        continue;
      }
      Base[Out++] = Base[I];
    }
    assert(J == Sorted.size() && "removeSorted of a non-subset");
    Live -= Rw.Size - Out;
    Rw.Size = static_cast<unsigned>(Out);
    maybeCompact();
  }

  /// Rewrites the pool as an exact CSR: rows packed in id order with
  /// capacity == size. Invalidates every outstanding span.
  void compact() {
    std::vector<unsigned> NewPool;
    NewPool.reserve(Live);
    for (Row &Rw : Rows) {
      size_t NewOffset = NewPool.size();
      NewPool.insert(NewPool.end(), Pool.begin() + Rw.Offset,
                     Pool.begin() + Rw.Offset + Rw.Size);
      Rw.Offset = NewOffset;
      Rw.Cap = Rw.Size;
    }
    Pool.swap(NewPool);
    assert(Pool.size() == Live && "live-entry accounting out of sync");
  }

private:
  struct Row {
    size_t Offset = 0;
    unsigned Size = 0;
    unsigned Cap = 0;
  };

  /// Moves row \p R to the pool tail with capacity \p NewCap, retiring its
  /// old extent.
  void relocate(unsigned R, unsigned NewCap) {
    Row &Rw = Rows[R];
    assert(NewCap >= Rw.Size && "relocation would truncate the row");
    size_t NewOffset = Pool.size();
    Pool.resize(Pool.size() + NewCap);
    std::copy(Pool.begin() + Rw.Offset, Pool.begin() + Rw.Offset + Rw.Size,
              Pool.begin() + NewOffset);
    Rw.Offset = NewOffset;
    Rw.Cap = NewCap;
  }

  void maybeCompact() {
    // Amortized reclamation: only when reclaimable slots (retired extents
    // plus slack) dominate and the pool is big enough to matter. Strict
    // majority, so a pool of freshly doubled rows does not thrash.
    if (Pool.size() > 64 && Pool.size() - Live > Pool.size() / 2)
      compact();
  }

  std::vector<Row> Rows;
  std::vector<unsigned> Pool;
  /// Sum of row sizes; Pool.size() - Live is reclaimable by compact().
  size_t Live = 0;
};

} // namespace rc

#endif // SUPPORT_ADJACENCYARENA_H
