//===- graph/Graph.h - Undirected interference graph ------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The undirected simple graph used throughout the project to model
/// interference graphs (Section 2.1 of Bouchez, Darte, Rastello, "On the
/// Complexity of Register Coalescing"). Vertices are dense unsigned ids.
///
/// A Graph is immutable. A GraphBuilder collects vertices and edges in any
/// order and build() freezes them once into sorted CSR rows: one offsets
/// array and one neighbor array, each row strictly ascending. The rows are
/// a function of the edge set alone, so every reader that walks
/// neighbors() (IRC's adjacency lists, greedy elimination, the canonical
/// instance encodings) sees the same order however the edges were
/// inserted. hasEdge is a binary search of the shorter row, and memory is
/// O(V + E) at every size.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPH_GRAPH_H
#define GRAPH_GRAPH_H

#include "support/VertexSpan.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace rc {

/// An immutable undirected simple graph over vertices 0..numVertices()-1.
class Graph {
public:
  /// The empty graph.
  Graph() = default;

  /// Returns true if the edge (\p U, \p V) exists. The diagonal is false.
  bool hasEdge(unsigned U, unsigned V) const {
    assert(U < NumV && V < NumV && "vertex out of range");
    if (U == V)
      return false;
    // Probe the lower-degree endpoint's row.
    if (degree(U) > degree(V))
      std::swap(U, V);
    VertexSpan Row = neighbors(U);
    const unsigned *It = std::lower_bound(Row.begin(), Row.end(), V);
    return It != Row.end() && *It == V;
  }

  /// Returns the number of vertices.
  unsigned numVertices() const { return NumV; }

  /// Returns the number of edges.
  unsigned numEdges() const { return NumEdges; }

  /// Returns the degree of \p V.
  unsigned degree(unsigned V) const {
    assert(V < NumV && "vertex out of range");
    return static_cast<unsigned>(RowStart[V + 1] - RowStart[V]);
  }

  /// Returns the neighbors of \p V, strictly ascending. The span lives as
  /// long as the graph.
  VertexSpan neighbors(unsigned V) const {
    assert(V < NumV && "vertex out of range");
    return VertexSpan(Nbrs.data() + RowStart[V],
                      RowStart[V + 1] - RowStart[V]);
  }

  /// Returns true if \p Vertices induce a complete subgraph.
  bool isClique(VertexSpan Vertices) const;
  bool isClique(std::initializer_list<unsigned> Vertices) const {
    return isClique(VertexSpan(Vertices.begin(), Vertices.size()));
  }

  /// Builds the quotient graph obtained by merging vertices with the same
  /// class id (the "coalesced graph" G_f of the paper).
  ///
  /// \param ClassIds maps each vertex to a class id in 0..NumClasses-1.
  /// \param NumClasses the number of classes.
  /// \param [out] SelfLoop if non-null, set to true when two interfering
  ///        vertices share a class (the merge is invalid as a coalescing).
  ///        Such edges are dropped from the result.
  Graph quotient(const std::vector<unsigned> &ClassIds, unsigned NumClasses,
                 bool *SelfLoop = nullptr) const;

  /// Builds the subgraph induced by \p Vertices.
  ///
  /// \param [out] OldToNew if non-null, receives a map of size numVertices()
  ///        from old id to new id (~0u for vertices not kept).
  Graph inducedSubgraph(const std::vector<unsigned> &Vertices,
                        std::vector<unsigned> *OldToNew = nullptr) const;

  /// Returns the connected components, each as a vertex list.
  std::vector<std::vector<unsigned>> connectedComponents() const;

  /// Returns true if \p U and \p V lie in the same connected component.
  bool sameComponent(unsigned U, unsigned V) const;

  /// Builds a graph in one shot from a canonically ordered edge array:
  /// little-endian (u32 u, u32 v) pairs with u < v, sorted
  /// lexicographically ascending — the edge-array layout of the RCBF
  /// binary instance format. The caller must have validated ranges and
  /// ordering. The pairs feed the same row fill as GraphBuilder::build().
  static Graph fromSortedEdges(unsigned NumVertices,
                               const unsigned char *PairsLE, size_t NumEdges);

  /// Returns the complete graph on \p N vertices.
  static Graph complete(unsigned N);

  /// Returns the cycle on \p N >= 3 vertices.
  static Graph cycle(unsigned N);

  /// Returns the path on \p N vertices.
  static Graph path(unsigned N);

private:
  friend class GraphBuilder;

  /// Freezes the rows of a graph. \p Degree holds each vertex's final
  /// degree, and \p ForEachEdge(Emit) calls Emit(A, B) once per edge in
  /// lexicographic (A, B) order, with A on the same side of B for every
  /// edge (all A < B, or all A > B). Appending both directions in that
  /// order leaves every row ascending: row W gets its neighbors on one
  /// side of W, in order, from the edges led by W, and those on the other
  /// side, also in order, from the edges led by them.
  template <typename EdgeWalk>
  static Graph freeze(unsigned NumVertices, const std::vector<unsigned> &Degree,
                      EdgeWalk ForEachEdge);

  unsigned NumV = 0;
  unsigned NumEdges = 0;
  /// Row V is Nbrs[RowStart[V] .. RowStart[V + 1]), strictly ascending.
  std::vector<size_t> RowStart{0};
  std::vector<unsigned> Nbrs;
};

/// Collects the vertices and edges of a Graph in any order. build()
/// consumes it and freezes them once: edges are collected as pairs, and
/// the freeze sorts them and drops repeats.
class GraphBuilder {
public:
  /// Starts from \p NumVertices isolated vertices.
  explicit GraphBuilder(unsigned NumVertices = 0) : NumV(NumVertices) {}

  /// Starts from the vertices and edges of \p G.
  explicit GraphBuilder(const Graph &G);

  /// Returns the number of vertices so far.
  unsigned numVertices() const { return NumV; }

  /// Adds \p Count isolated vertices; returns the id of the first one.
  unsigned addVertices(unsigned Count);

  /// Adds the undirected edge (\p U, \p V). Self loops are forbidden; a
  /// repeated edge is kept once.
  void addEdge(unsigned U, unsigned V) {
    assert(U < NumV && V < NumV && "vertex out of range");
    assert(U != V && "self loops are forbidden");
    Pairs.push_back(U < V ? std::make_pair(U, V) : std::make_pair(V, U));
  }

  /// Adds all edges among \p Vertices, turning them into a clique.
  void addClique(VertexSpan Vertices);
  void addClique(std::initializer_list<unsigned> Vertices) {
    addClique(VertexSpan(Vertices.begin(), Vertices.size()));
  }

  /// Freezes the graph into sorted rows.
  Graph build() &&;

private:
  unsigned NumV = 0;
  /// (lo, hi) pairs in arrival order, repeats included.
  std::vector<std::pair<unsigned, unsigned>> Pairs;
};

} // namespace rc

#endif // GRAPH_GRAPH_H
