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
  // must all be neighbors of P. Batch the containment checks per P, in one
  // array bucketed by P, each batch against one stamp of P's row.
  std::vector<unsigned> Parent(N, ~0u);
  std::vector<unsigned> Start(N + 1, 0);
  for (unsigned V = 0; V < N; ++V) {
    unsigned Here = Position[V], ParentAt = ~0u, Later = 0;
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Here) {
        ++Later;
        ParentAt = std::min(ParentAt, Position[W]);
      }
    if (Later == 0)
      continue;
    Parent[V] = Peo[ParentAt];
    Start[Parent[V] + 1] += Later - 1;
  }
  for (unsigned P = 0; P < N; ++P)
    Start[P + 1] += Start[P];
  std::vector<unsigned> MustBeAdjacent(Start[N]);
  std::vector<unsigned> Fill(Start.begin(), Start.end() - 1);
  for (unsigned V = 0; V < N; ++V) {
    if (Parent[V] == ~0u)
      continue;
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V] && W != Parent[V])
        MustBeAdjacent[Fill[Parent[V]]++] = W;
  }
  // Stamp[W] == P exactly when W is a neighbor of the P being checked.
  std::vector<unsigned> Stamp(N, ~0u);
  for (unsigned P = 0; P < N; ++P) {
    if (Start[P] == Start[P + 1])
      continue;
    for (unsigned W : G.neighbors(P))
      Stamp[W] = P;
    for (unsigned I = Start[P]; I < Start[P + 1]; ++I)
      if (Stamp[MustBeAdjacent[I]] != P)
        return false;
  }
  return true;
}

std::vector<unsigned> rc::mcsEliminationOrder(const Graph &G) {
  std::vector<unsigned> Order = mcsOrder(G);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

bool rc::isChordal(const Graph &G, std::vector<unsigned> *PeoOut) {
  std::vector<unsigned> Peo = mcsEliminationOrder(G);
  if (!isPerfectEliminationOrder(G, Peo))
    return false;
  if (PeoOut)
    *PeoOut = std::move(Peo);
  return true;
}

unsigned rc::chordalCliqueNumber(const Graph &G) {
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "chordalCliqueNumber requires a chordal graph");
  return chordalCliqueNumber(G, Peo);
}

unsigned rc::chordalCliqueNumber(const Graph &G,
                                 const std::vector<unsigned> &Peo) {
  unsigned N = G.numVertices();
  assert(Peo.size() == N && "PEO must order every vertex");
  std::vector<unsigned> Position(N);
  for (unsigned I = 0; I < N; ++I)
    Position[Peo[I]] = I;
  // Each vertex closes a clique with its later neighbors.
  unsigned Best = 0;
  for (unsigned V = 0; V < N; ++V) {
    unsigned Clique = 1;
    for (unsigned W : G.neighbors(V))
      Clique += Position[W] > Position[V];
    Best = std::max(Best, Clique);
  }
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
  return chordalMaximalCliques(G, Peo);
}

std::vector<std::vector<unsigned>>
rc::chordalMaximalCliques(const Graph &G, const std::vector<unsigned> &Peo) {
  assert(Peo.size() == G.numVertices() && "PEO must order every vertex");
  unsigned N = G.numVertices();
  std::vector<unsigned> Position(N);
  for (unsigned I = 0; I < N; ++I)
    Position[Peo[I]] = I;

  // Candidate cliques are C_v = {v} + later-neighbors(v). C_v is dominated
  // iff some u whose earliest later-neighbor is v satisfies
  // |C_u| = |C_v| + 1, i.e. C_u = {u} + C_v. One pass finds every vertex's
  // later-neighbor count and earliest later-neighbor.
  std::vector<unsigned> Count(N, 0), Parent(N, ~0u);
  for (unsigned U = 0; U < N; ++U)
    for (unsigned W : G.neighbors(U))
      if (Position[W] > Position[U]) {
        ++Count[U];
        if (Parent[U] == ~0u || Position[W] < Position[Parent[U]])
          Parent[U] = W;
      }
  std::vector<bool> Dominated(N, false);
  for (unsigned U = 0; U < N; ++U)
    if (Parent[U] != ~0u && Count[U] == Count[Parent[U]] + 1)
      Dominated[Parent[U]] = true;

  std::vector<std::vector<unsigned>> Cliques;
  for (unsigned V = 0; V < N; ++V) {
    if (Dominated[V])
      continue;
    // Rows are ascending, so slotting V in as the row passes it keeps the
    // clique sorted.
    std::vector<unsigned> Clique;
    Clique.reserve(Count[V] + 1);
    bool Placed = false;
    for (unsigned W : G.neighbors(V)) {
      if (!Placed && W > V) {
        Clique.push_back(V);
        Placed = true;
      }
      if (Position[W] > Position[V])
        Clique.push_back(W);
    }
    if (!Placed)
      Clique.push_back(V);
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
