//===- graph/CliqueTree.h - Clique trees of chordal graphs ------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clique-tree representation of a chordal graph: a tree whose nodes are the
/// maximal cliques such that, for every vertex v, the set of nodes whose
/// clique contains v induces a subtree T_v. This is the representation used
/// by the proof of Theorem 5 (polynomial incremental conservative coalescing
/// on chordal graphs): two vertices are adjacent iff their subtrees
/// intersect.
///
/// Construction: the maximal cliques come from a perfect elimination order
/// (computed, or handed in by a caller that already has one); a
/// maximum-weight spanning tree of the clique intersection graph (weights =
/// intersection sizes) is a clique tree (Bernstein–Goodman / Gavril).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPH_CLIQUETREE_H
#define GRAPH_CLIQUETREE_H

#include "graph/Graph.h"

#include <vector>

namespace rc {

/// A clique tree of a chordal graph.
class CliqueTree {
public:
  /// Builds a clique tree for the chordal graph \p G.
  /// Asserts chordality in debug builds.
  static CliqueTree build(const Graph &G);

  /// Builds the same tree from \p Peo, a perfect elimination order of \p G
  /// the caller already has (and has checked). build(G) is this with the
  /// reverse MCS order.
  static CliqueTree build(const Graph &G, const std::vector<unsigned> &Peo);

  /// Returns the number of tree nodes (maximal cliques). At most |V|.
  unsigned numNodes() const { return static_cast<unsigned>(Cliques.size()); }

  /// Returns the sorted vertex list of the clique at tree node \p Node.
  const std::vector<unsigned> &clique(unsigned Node) const {
    assert(Node < numNodes() && "node out of range");
    return Cliques[Node];
  }

  /// Returns the tree neighbors of \p Node.
  const std::vector<unsigned> &treeNeighbors(unsigned Node) const {
    assert(Node < numNodes() && "node out of range");
    return TreeAdj[Node];
  }

  /// Returns the tree nodes whose cliques contain graph vertex \p V (the
  /// subtree T_v, as a node list).
  const std::vector<unsigned> &nodesContaining(unsigned V) const {
    assert(V < VertexNodes.size() && "vertex out of range");
    return VertexNodes[V];
  }

  /// Returns the unique tree path from \p From to \p To, inclusive.
  std::vector<unsigned> pathBetween(unsigned From, unsigned To) const;

  /// Returns a shortest tree path from any node of \p SourceSet to any node
  /// of \p TargetSet. The first node is the only path node in SourceSet and
  /// the last is the only one in TargetSet. Returns an empty path if the two
  /// sets lie in different tree components or either set is empty.
  std::vector<unsigned>
  pathBetweenSubtrees(const std::vector<unsigned> &SourceSet,
                      const std::vector<unsigned> &TargetSet) const;

  /// Verifies the defining clique-tree properties against \p G:
  /// every node is a maximal clique, every edge of G lies in some clique,
  /// and every vertex's node set induces a connected subtree.
  bool verify(const Graph &G) const;

private:
  std::vector<std::vector<unsigned>> Cliques;
  std::vector<std::vector<unsigned>> TreeAdj;
  std::vector<std::vector<unsigned>> VertexNodes;
};

} // namespace rc

#endif // GRAPH_CLIQUETREE_H
