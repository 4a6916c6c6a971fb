//===- graph/Chordal.h - Chordal graph algorithms ---------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chordal graph recognition and coloring. Interference graphs of strict SSA
/// programs are chordal (Theorem 1 of the paper), which makes chordality the
/// key structural hypothesis of Theorem 5 (polynomial incremental
/// conservative coalescing) and of Property 1 (chordal k-colorable implies
/// greedy-k-colorable).
///
/// Recognition uses maximum cardinality search (MCS): the reverse of an MCS
/// order is a perfect elimination order (PEO) iff the graph is chordal.
/// The clique number and the maximal cliques are read off a PEO; each has a
/// form that takes a PEO the caller already has, so a caller that needs
/// several of them runs MCS once.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPH_CHORDAL_H
#define GRAPH_CHORDAL_H

#include "graph/Coloring.h"
#include "graph/Graph.h"

#include <vector>

namespace rc {

/// Computes a maximum cardinality search order of \p G in O(V + E): vertices
/// in selection order, each chosen to maximize the number of already-selected
/// neighbors.
std::vector<unsigned> mcsOrder(const Graph &G);

/// Returns the reverse of mcsOrder(G): a perfect elimination order exactly
/// when \p G is chordal. Unlike isChordal, it does not check that.
std::vector<unsigned> mcsEliminationOrder(const Graph &G);

/// Returns true if \p Peo is a perfect elimination order of \p G, i.e. for
/// every vertex its neighbors occurring later in \p Peo form a clique.
bool isPerfectEliminationOrder(const Graph &G,
                               const std::vector<unsigned> &Peo);

/// Returns true if \p G is chordal.
///
/// \param [out] PeoOut if non-null and the graph is chordal, receives a
///        perfect elimination order.
bool isChordal(const Graph &G, std::vector<unsigned> *PeoOut = nullptr);

/// Returns the clique number omega(G) of a chordal graph \p G.
/// Asserts chordality in debug builds.
unsigned chordalCliqueNumber(const Graph &G);

/// Returns omega(G) read off \p Peo, which must be a perfect elimination
/// order of \p G (the caller checks it): one more than the largest number
/// of later neighbors.
unsigned chordalCliqueNumber(const Graph &G, const std::vector<unsigned> &Peo);

/// Colors a chordal graph optimally (with omega(G) colors) by coloring along
/// the reverse of a PEO.
Coloring chordalOptimalColoring(const Graph &G);

/// Lists the maximal cliques of a chordal graph (at most V of them), each as
/// a sorted vertex list. Asserts chordality in debug builds.
std::vector<std::vector<unsigned>> chordalMaximalCliques(const Graph &G);

/// As above, read off \p Peo, which must be a perfect elimination order of
/// \p G (the caller checks it).
std::vector<std::vector<unsigned>>
chordalMaximalCliques(const Graph &G, const std::vector<unsigned> &Peo);

/// Returns a simplicial vertex of \p G (one whose neighborhood is a clique),
/// or ~0u if none exists. Every chordal graph has one.
unsigned findSimplicialVertex(const Graph &G);

} // namespace rc

#endif // GRAPH_CHORDAL_H
