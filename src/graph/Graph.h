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
/// The representation is hybrid, chosen by vertex count against a dense
/// threshold:
///  - Dense (<= threshold): per-vertex adjacency vectors in insertion
///    order plus a triangular bit matrix for O(1) hasEdge. 4096 vertices
///    cost one megabyte of matrix; byte-compatible with the historical
///    representation, so solvers and golden outputs are unchanged.
///  - Sparse (> threshold): arena-backed CSR adjacency — all neighbor
///    lists in one pooled array, each row sorted ascending, hasEdge a
///    binary search. A million-vertex graph costs O(V + E) memory instead
///    of the matrix's N^2/2 bits (~62 GB at 10^6).
/// A graph that grows past the threshold via addVertex/addVertices
/// migrates to the sparse form automatically; neighbor lists switch from
/// insertion order to sorted ascending at that point.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPH_GRAPH_H
#define GRAPH_GRAPH_H

#include "support/AdjacencyArena.h"
#include "support/BitMatrix.h"
#include "support/VertexSpan.h"

#include <cassert>
#include <vector>

namespace rc {

/// An undirected simple graph over vertices 0..numVertices()-1.
class Graph {
public:
  /// Largest vertex count stored densely (adjacency vectors + bit matrix).
  static constexpr unsigned DefaultDenseThreshold = 4096;

  /// Creates a graph with \p NumVertices isolated vertices.
  explicit Graph(unsigned NumVertices = 0,
                 unsigned DenseThreshold = DefaultDenseThreshold)
      : NumV(NumVertices), DenseThreshold(DenseThreshold),
        DenseMode(NumVertices <= DenseThreshold) {
    if (DenseMode) {
      Adj.resize(NumVertices);
      Edges.reset(NumVertices);
    } else {
      Sparse.reset(NumVertices);
    }
  }

  /// Adds a new isolated vertex and returns its id.
  unsigned addVertex();

  /// Adds \p Count new isolated vertices; returns the id of the first one.
  unsigned addVertices(unsigned Count);

  /// Pre-sizes internal storage for growth up to \p PlannedVertices total
  /// vertices (and, in sparse mode, optionally \p PlannedEdges edges), so
  /// incremental building is not quadratic in allocations. If the plan
  /// exceeds the dense threshold the graph switches to the sparse
  /// representation immediately instead of migrating mid-build.
  void reserveVertices(unsigned PlannedVertices, size_t PlannedEdges = 0);

  /// Adds the undirected edge (\p U, \p V).
  ///
  /// Self loops are forbidden. \returns true if the edge was new.
  bool addEdge(unsigned U, unsigned V);

  /// Returns true if the edge (\p U, \p V) exists. The diagonal is false.
  bool hasEdge(unsigned U, unsigned V) const {
    if (DenseMode)
      return Edges.test(U, V);
    assert(U < NumV && V < NumV && "vertex out of range");
    if (U == V)
      return false;
    // Probe the lower-degree endpoint's row.
    return Sparse.rowSize(U) <= Sparse.rowSize(V) ? Sparse.contains(U, V)
                                                  : Sparse.contains(V, U);
  }

  /// Returns the number of vertices.
  unsigned numVertices() const { return NumV; }

  /// Returns the number of edges.
  unsigned numEdges() const { return NumEdges; }

  /// True while the dense (bit matrix) representation is active.
  bool usesDenseRepresentation() const { return DenseMode; }

  /// Returns the degree of \p V.
  unsigned degree(unsigned V) const {
    assert(V < NumV && "vertex out of range");
    return DenseMode ? static_cast<unsigned>(Adj[V].size())
                     : Sparse.rowSize(V);
  }

  /// Returns the neighbors of \p V — insertion order in dense mode, sorted
  /// ascending in sparse mode. The span is invalidated by any mutation of
  /// the graph.
  VertexSpan neighbors(unsigned V) const {
    assert(V < NumV && "vertex out of range");
    return DenseMode ? VertexSpan(Adj[V]) : Sparse.row(V);
  }

  /// Adds all edges among \p Vertices, turning them into a clique.
  void addClique(const std::vector<unsigned> &Vertices);

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
  /// ordering. Above the dense threshold this constructs the CSR rows
  /// directly (two linear passes, no per-edge sorted inserts): because
  /// the input is sorted with u < v, emitting both directions in file
  /// order fills every row in ascending order already.
  static Graph fromSortedEdges(unsigned NumVertices,
                               const unsigned char *PairsLE, size_t NumEdges,
                               unsigned DenseThreshold = DefaultDenseThreshold);

  /// Returns the complete graph on \p N vertices.
  static Graph complete(unsigned N);

  /// Returns the cycle on \p N >= 3 vertices.
  static Graph cycle(unsigned N);

  /// Returns the path on \p N vertices.
  static Graph path(unsigned N);

private:
  /// One-way dense -> sparse migration when growth crosses the threshold.
  void migrateToSparse();

  unsigned NumV = 0;
  unsigned DenseThreshold = DefaultDenseThreshold;
  bool DenseMode = true;
  unsigned NumEdges = 0;
  /// Dense mode: per-vertex neighbor lists in insertion order.
  std::vector<std::vector<unsigned>> Adj;
  /// Dense mode: triangular bit matrix for O(1) hasEdge.
  BitMatrix Edges;
  /// Sparse mode: pooled sorted adjacency rows.
  AdjacencyArena Sparse;
};

} // namespace rc

#endif // GRAPH_GRAPH_H
