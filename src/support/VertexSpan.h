//===- support/VertexSpan.h - Borrowed view of a vertex list ----*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-owning view over a contiguous run of vertex ids. graph/Graph hands
/// out its CSR rows and coalescing/WorkGraph its class rows (per-class
/// vectors in dense mode, a shared adjacency arena in sparse mode) as
/// VertexSpans, so callers are representation-agnostic.
///
/// Validity: a span borrows storage owned by the graph it came from. It is
/// invalidated by any mutation of that graph (adding edges or vertices,
/// merging classes, rolling back) — copy it into a vector first if it must
/// survive one.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_VERTEXSPAN_H
#define SUPPORT_VERTEXSPAN_H

#include <cstddef>
#include <vector>

namespace rc {

/// A borrowed, read-only view of a contiguous vertex-id sequence.
class VertexSpan {
public:
  VertexSpan() = default;
  VertexSpan(const unsigned *Data, size_t Count)
      : Data(Data), Count(Count) {}
  VertexSpan(const std::vector<unsigned> &V)
      : Data(V.data()), Count(V.size()) {}

  const unsigned *begin() const { return Data; }
  const unsigned *end() const { return Data + Count; }
  const unsigned *data() const { return Data; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  unsigned operator[](size_t I) const { return Data[I]; }
  unsigned front() const { return Data[0]; }
  unsigned back() const { return Data[Count - 1]; }

  /// Materializes an owning copy (also usable implicitly, so call sites
  /// that pass neighbor lists to vector parameters keep compiling).
  operator std::vector<unsigned>() const {
    return std::vector<unsigned>(Data, Data + Count);
  }

private:
  const unsigned *Data = nullptr;
  size_t Count = 0;
};

inline bool operator==(VertexSpan A, VertexSpan B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

inline bool operator!=(VertexSpan A, VertexSpan B) { return !(A == B); }

} // namespace rc

#endif // SUPPORT_VERTEXSPAN_H
