//===- graph/Chordal.cpp - Chordal graph algorithms -----------------------===//

#include "graph/Chordal.h"

#include <algorithm>

using namespace rc;

std::vector<unsigned> rc::mcsOrder(const Graph &G) {
  unsigned N = G.numVertices();
  std::vector<unsigned> Weight(N, 0);
  std::vector<bool> Selected(N, false);
  std::vector<unsigned> Order;
  Order.reserve(N);

  // Bucket queue keyed by weight; weights only increase, so a cursor that
  // moves down by at most one per selection keeps this O(V + E).
  std::vector<std::vector<unsigned>> Buckets(N + 1);
  for (unsigned V = 0; V < N; ++V)
    Buckets[0].push_back(V);
  unsigned Cursor = 0;

  for (unsigned Taken = 0; Taken < N; ++Taken) {
    unsigned V = ~0u;
    for (;;) {
      auto &Bucket = Buckets[Cursor];
      while (!Bucket.empty()) {
        unsigned Candidate = Bucket.back();
        if (Selected[Candidate] || Weight[Candidate] != Cursor) {
          Bucket.pop_back(); // Stale entry.
          continue;
        }
        V = Candidate;
        Bucket.pop_back();
        break;
      }
      if (V != ~0u)
        break;
      assert(Cursor > 0 && "MCS bucket scan underflow");
      --Cursor;
    }
    Selected[V] = true;
    Order.push_back(V);
    for (unsigned W : G.neighbors(V)) {
      if (Selected[W])
        continue;
      ++Weight[W];
      Buckets[Weight[W]].push_back(W);
      Cursor = std::max(Cursor, Weight[W]);
    }
  }
  return Order;
}

bool rc::isPerfectEliminationOrder(const Graph &G,
                                   const std::vector<unsigned> &Peo) {
  unsigned N = G.numVertices();
  if (Peo.size() != N)
    return false;
  std::vector<unsigned> Position(N, ~0u);
  for (unsigned I = 0; I < N; ++I) {
    if (Peo[I] >= N || Position[Peo[I]] != ~0u)
      return false; // Not a permutation.
    Position[Peo[I]] = I;
  }

  // Standard linear-time certification (Golumbic): for each vertex V, let P
  // be its earliest later-neighbor; then the remaining later-neighbors of V
  // must all be neighbors of P. Batch the containment checks per P, each
  // against one stamp of P's row.
  std::vector<std::vector<unsigned>> MustBeAdjacentTo(N);
  for (unsigned V = 0; V < N; ++V) {
    unsigned Parent = ~0u;
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V] &&
          (Parent == ~0u || Position[W] < Position[Parent]))
        Parent = W;
    if (Parent == ~0u)
      continue;
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V] && W != Parent)
        MustBeAdjacentTo[Parent].push_back(W);
  }
  // Stamp[W] == P exactly when W is a neighbor of the P being checked.
  std::vector<unsigned> Stamp(N, ~0u);
  for (unsigned P = 0; P < N; ++P) {
    if (MustBeAdjacentTo[P].empty())
      continue;
    for (unsigned W : G.neighbors(P))
      Stamp[W] = P;
    for (unsigned W : MustBeAdjacentTo[P])
      if (Stamp[W] != P)
        return false;
  }
  return true;
}

bool rc::isChordal(const Graph &G, std::vector<unsigned> *PeoOut) {
  std::vector<unsigned> Mcs = mcsOrder(G);
  std::vector<unsigned> Peo(Mcs.rbegin(), Mcs.rend());
  if (!isPerfectEliminationOrder(G, Peo))
    return false;
  if (PeoOut)
    *PeoOut = std::move(Peo);
  return true;
}

/// Shared helper: computes, for a PEO, each vertex's later-neighbor count.
static std::vector<unsigned>
laterNeighborCounts(const Graph &G, const std::vector<unsigned> &Peo) {
  unsigned N = G.numVertices();
  std::vector<unsigned> Position(N);
  for (unsigned I = 0; I < N; ++I)
    Position[Peo[I]] = I;
  std::vector<unsigned> Count(N, 0);
  for (unsigned V = 0; V < N; ++V)
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V])
        ++Count[V];
  return Count;
}

unsigned rc::chordalCliqueNumber(const Graph &G) {
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "chordalCliqueNumber requires a chordal graph");
  if (G.numVertices() == 0)
    return 0;
  std::vector<unsigned> Count = laterNeighborCounts(G, Peo);
  unsigned Best = 0;
  for (unsigned V = 0; V < G.numVertices(); ++V)
    Best = std::max(Best, Count[V] + 1);
  return Best;
}

Coloring rc::chordalOptimalColoring(const Graph &G) {
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "chordalOptimalColoring requires a chordal graph");
  // Coloring in reverse PEO meets, at each vertex, only the clique of its
  // later neighbors, so omega(G) colors suffice.
  std::vector<unsigned> ReversePeo(Peo.rbegin(), Peo.rend());
  return greedyColorInOrder(G, ReversePeo);
}

std::vector<std::vector<unsigned>>
rc::chordalMaximalCliques(const Graph &G) {
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "chordalMaximalCliques requires a chordal graph");
  unsigned N = G.numVertices();
  std::vector<unsigned> Position(N);
  for (unsigned I = 0; I < N; ++I)
    Position[Peo[I]] = I;

  // Candidate cliques are C_v = {v} + later-neighbors(v). C_v is dominated
  // iff some u whose earliest later-neighbor is v satisfies
  // |C_u| = |C_v| + 1, i.e. C_u = {u} + C_v.
  std::vector<unsigned> Count = laterNeighborCounts(G, Peo);
  std::vector<bool> Dominated(N, false);
  for (unsigned U = 0; U < N; ++U) {
    unsigned Parent = ~0u;
    for (unsigned W : G.neighbors(U))
      if (Position[W] > Position[U] &&
          (Parent == ~0u || Position[W] < Position[Parent]))
        Parent = W;
    if (Parent != ~0u && Count[U] == Count[Parent] + 1)
      Dominated[Parent] = true;
  }

  std::vector<std::vector<unsigned>> Cliques;
  for (unsigned V = 0; V < N; ++V) {
    if (Dominated[V])
      continue;
    std::vector<unsigned> Clique{V};
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V])
        Clique.push_back(W);
    std::sort(Clique.begin(), Clique.end());
    Cliques.push_back(std::move(Clique));
  }
  return Cliques;
}

unsigned rc::findSimplicialVertex(const Graph &G) {
  for (unsigned V = 0; V < G.numVertices(); ++V)
    if (G.isClique(G.neighbors(V)))
      return V;
  return ~0u;
}
