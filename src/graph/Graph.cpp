//===- graph/Graph.cpp - Undirected interference graph --------------------===//

#include "graph/Graph.h"

#include <cstdint>

using namespace rc;

namespace {

inline uint32_t loadU32LE(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

} // namespace

template <typename EdgeWalk>
Graph Graph::freeze(unsigned NumVertices, const std::vector<unsigned> &Degree,
                    EdgeWalk ForEachEdge) {
  Graph G;
  G.NumV = NumVertices;
  G.RowStart.resize(static_cast<size_t>(NumVertices) + 1);
  size_t Total = 0;
  for (unsigned V = 0; V < NumVertices; ++V) {
    G.RowStart[V] = Total;
    Total += Degree[V];
  }
  G.RowStart[NumVertices] = Total;
  G.Nbrs.resize(Total);
  std::vector<size_t> Cursor(G.RowStart.begin(), G.RowStart.end() - 1);
  ForEachEdge([&](unsigned A, unsigned B) {
    G.Nbrs[Cursor[A]++] = B;
    G.Nbrs[Cursor[B]++] = A;
  });
  G.NumEdges = static_cast<unsigned>(Total / 2);
  return G;
}

Graph Graph::fromSortedEdges(unsigned NumVertices, const unsigned char *PairsLE,
                             size_t NumEdges) {
  std::vector<unsigned> Degree(NumVertices, 0);
  for (size_t I = 0; I < NumEdges; ++I) {
    const unsigned char *P = PairsLE + 8 * I;
    ++Degree[loadU32LE(P)];
    ++Degree[loadU32LE(P + 4)];
  }
  // Sorted (u < v) pairs are the lexicographic order freeze() asks for.
  return freeze(NumVertices, Degree, [&](auto Emit) {
    for (size_t I = 0; I < NumEdges; ++I) {
      const unsigned char *P = PairsLE + 8 * I;
      Emit(loadU32LE(P), loadU32LE(P + 4));
    }
  });
}

bool Graph::isClique(VertexSpan Vertices) const {
  for (size_t I = 0; I < Vertices.size(); ++I)
    for (size_t J = I + 1; J < Vertices.size(); ++J)
      if (!hasEdge(Vertices[I], Vertices[J]))
        return false;
  return true;
}

Graph Graph::quotient(const std::vector<unsigned> &ClassIds,
                      unsigned NumClasses, bool *SelfLoop) const {
  assert(ClassIds.size() == numVertices() && "class map has wrong size");
  if (SelfLoop)
    *SelfLoop = false;
  GraphBuilder Result(NumClasses);
  for (unsigned U = 0; U < numVertices(); ++U) {
    assert(ClassIds[U] < NumClasses && "class id out of range");
    for (unsigned V : neighbors(U)) {
      if (V < U)
        continue; // Visit each edge once.
      if (ClassIds[U] == ClassIds[V]) {
        if (SelfLoop)
          *SelfLoop = true;
        continue;
      }
      Result.addEdge(ClassIds[U], ClassIds[V]);
    }
  }
  return std::move(Result).build();
}

Graph Graph::inducedSubgraph(const std::vector<unsigned> &Vertices,
                             std::vector<unsigned> *OldToNew) const {
  std::vector<unsigned> Map(numVertices(), ~0u);
  for (unsigned I = 0; I < Vertices.size(); ++I) {
    assert(Vertices[I] < numVertices() && "vertex out of range");
    assert(Map[Vertices[I]] == ~0u && "duplicate vertex in induced set");
    Map[Vertices[I]] = I;
  }
  GraphBuilder Result(static_cast<unsigned>(Vertices.size()));
  for (unsigned NewU = 0; NewU < Vertices.size(); ++NewU)
    for (unsigned V : neighbors(Vertices[NewU]))
      if (Map[V] != ~0u && Map[V] > NewU)
        Result.addEdge(NewU, Map[V]);
  if (OldToNew)
    *OldToNew = std::move(Map);
  return std::move(Result).build();
}

std::vector<std::vector<unsigned>> Graph::connectedComponents() const {
  std::vector<std::vector<unsigned>> Components;
  std::vector<bool> Seen(numVertices(), false);
  std::vector<unsigned> Stack;
  for (unsigned Start = 0; Start < numVertices(); ++Start) {
    if (Seen[Start])
      continue;
    Components.emplace_back();
    Stack.push_back(Start);
    Seen[Start] = true;
    while (!Stack.empty()) {
      unsigned V = Stack.back();
      Stack.pop_back();
      Components.back().push_back(V);
      for (unsigned W : neighbors(V)) {
        if (Seen[W])
          continue;
        Seen[W] = true;
        Stack.push_back(W);
      }
    }
    std::sort(Components.back().begin(), Components.back().end());
  }
  return Components;
}

bool Graph::sameComponent(unsigned U, unsigned V) const {
  assert(U < numVertices() && V < numVertices() && "vertex out of range");
  if (U == V)
    return true;
  std::vector<bool> Seen(numVertices(), false);
  std::vector<unsigned> Stack{U};
  Seen[U] = true;
  while (!Stack.empty()) {
    unsigned X = Stack.back();
    Stack.pop_back();
    if (X == V)
      return true;
    for (unsigned W : neighbors(X))
      if (!Seen[W]) {
        Seen[W] = true;
        Stack.push_back(W);
      }
  }
  return false;
}

Graph Graph::complete(unsigned N) {
  GraphBuilder B(N);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = I + 1; J < N; ++J)
      B.addEdge(I, J);
  return std::move(B).build();
}

Graph Graph::cycle(unsigned N) {
  assert(N >= 3 && "a cycle needs at least 3 vertices");
  GraphBuilder B(N);
  for (unsigned I = 0; I < N; ++I)
    B.addEdge(I, (I + 1) % N);
  return std::move(B).build();
}

Graph Graph::path(unsigned N) {
  GraphBuilder B(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    B.addEdge(I, I + 1);
  return std::move(B).build();
}

GraphBuilder::GraphBuilder(const Graph &G) : GraphBuilder(G.numVertices()) {
  for (unsigned U = 0; U < NumV; ++U)
    for (unsigned V : G.neighbors(U))
      if (V > U)
        addEdge(U, V);
}

unsigned GraphBuilder::addVertices(unsigned Count) {
  unsigned First = NumV;
  NumV += Count;
  return First;
}

void GraphBuilder::addClique(VertexSpan Vertices) {
  for (size_t I = 0; I < Vertices.size(); ++I)
    for (size_t J = I + 1; J < Vertices.size(); ++J)
      addEdge(Vertices[I], Vertices[J]);
}

Graph GraphBuilder::build() && {
  // Two counting passes sort the pairs: by Lo into ByLo, then by Hi into
  // Down, scanning Lo ascending so that each vertex's row of smaller
  // neighbors comes out ascending with its repeats adjacent.
  std::vector<size_t> LoStart(static_cast<size_t>(NumV) + 1, 0);
  std::vector<size_t> HiStart(static_cast<size_t>(NumV) + 1, 0);
  for (const auto &[Lo, Hi] : Pairs) {
    ++LoStart[Lo + 1];
    ++HiStart[Hi + 1];
  }
  for (unsigned V = 0; V < NumV; ++V) {
    LoStart[V + 1] += LoStart[V];
    HiStart[V + 1] += HiStart[V];
  }
  std::vector<unsigned> ByLo(Pairs.size());
  {
    std::vector<size_t> Cursor(LoStart.begin(), LoStart.end() - 1);
    for (const auto &[Lo, Hi] : Pairs)
      ByLo[Cursor[Lo]++] = Hi;
  }
  std::vector<std::pair<unsigned, unsigned>>().swap(Pairs);
  std::vector<unsigned> Down(ByLo.size());
  {
    std::vector<size_t> Cursor(HiStart.begin(), HiStart.end() - 1);
    for (unsigned Lo = 0; Lo < NumV; ++Lo)
      for (size_t I = LoStart[Lo]; I < LoStart[Lo + 1]; ++I)
        Down[Cursor[ByLo[I]]++] = Lo;
  }
  std::vector<unsigned>().swap(ByLo);
  // Drop repeats in place; DownEnd[Hi] ends Hi's deduplicated run.
  std::vector<unsigned> Deg(NumV, 0);
  std::vector<size_t> DownEnd(NumV);
  for (unsigned Hi = 0; Hi < NumV; ++Hi) {
    size_t Out = HiStart[Hi];
    for (size_t I = HiStart[Hi]; I < HiStart[Hi + 1]; ++I) {
      if (Out != HiStart[Hi] && Down[Out - 1] == Down[I])
        continue;
      Down[Out++] = Down[I];
      ++Deg[Down[I]];
    }
    DownEnd[Hi] = Out;
    Deg[Hi] += static_cast<unsigned>(Out - HiStart[Hi]);
  }
  return Graph::freeze(NumV, Deg, [&](auto Emit) {
    for (unsigned Hi = 0; Hi < NumV; ++Hi)
      for (size_t I = HiStart[Hi]; I < DownEnd[Hi]; ++I)
        Emit(Hi, Down[I]);
  });
}
