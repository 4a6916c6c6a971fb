//===- npc/VertexCover.cpp - Vertex cover ----------------------------------===//

#include "npc/VertexCover.h"

using namespace rc;

bool rc::isVertexCover(const Graph &G, const std::vector<bool> &InCover) {
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U))
      if (V > U && !InCover[U] && !InCover[V])
        return false;
  return true;
}

namespace {

class VertexCoverSearch {
public:
  explicit VertexCoverSearch(const Graph &G) : G(G) {}

  VertexCoverResult run() {
    InCover.assign(G.numVertices(), false);
    // Incumbent: all vertices (always a cover).
    Best.assign(G.numVertices(), true);
    BestSize = G.numVertices();
    recurse(0);

    VertexCoverResult Result;
    Result.Size = BestSize;
    Result.InCover = Best;
    Result.NodesExplored = Nodes;
    return Result;
  }

private:
  /// Finds an edge with both endpoints out of the cover, or false.
  bool findUncoveredEdge(unsigned &U, unsigned &V) const {
    for (unsigned A = 0; A < G.numVertices(); ++A) {
      if (InCover[A])
        continue;
      for (unsigned B : G.neighbors(A))
        if (!InCover[B]) {
          U = A;
          V = B;
          return true;
        }
    }
    return false;
  }

  void recurse(unsigned Size) {
    ++Nodes;
    if (Size >= BestSize)
      return;
    unsigned U, V;
    if (!findUncoveredEdge(U, V)) {
      BestSize = Size;
      Best = InCover;
      return;
    }
    InCover[U] = true;
    recurse(Size + 1);
    InCover[U] = false;
    InCover[V] = true;
    recurse(Size + 1);
    InCover[V] = false;
  }

  const Graph &G;
  std::vector<bool> InCover, Best;
  unsigned BestSize = 0;
  uint64_t Nodes = 0;
};

} // namespace

VertexCoverResult rc::solveVertexCoverExact(const Graph &G) {
  return VertexCoverSearch(G).run();
}

namespace {

class WeightedVertexCoverSearch {
public:
  WeightedVertexCoverSearch(const Graph &G,
                            const std::vector<double> &Weights)
      : G(G), Weights(Weights) {}

  WeightedVertexCoverResult run() {
    InCover.assign(G.numVertices(), false);
    Best.assign(G.numVertices(), true);
    BestWeight = 0;
    for (double W : Weights)
      BestWeight += W;
    recurse(0);

    WeightedVertexCoverResult Result;
    Result.Weight = BestWeight;
    Result.InCover = Best;
    Result.NodesExplored = Nodes;
    return Result;
  }

private:
  bool findUncoveredEdge(unsigned &U, unsigned &V) const {
    for (unsigned A = 0; A < G.numVertices(); ++A) {
      if (InCover[A])
        continue;
      for (unsigned B : G.neighbors(A))
        if (!InCover[B]) {
          U = A;
          V = B;
          return true;
        }
    }
    return false;
  }

  void recurse(double Weight) {
    ++Nodes;
    if (Weight >= BestWeight)
      return;
    unsigned U, V;
    if (!findUncoveredEdge(U, V)) {
      BestWeight = Weight;
      Best = InCover;
      return;
    }
    InCover[U] = true;
    recurse(Weight + Weights[U]);
    InCover[U] = false;
    InCover[V] = true;
    recurse(Weight + Weights[V]);
    InCover[V] = false;
  }

  const Graph &G;
  const std::vector<double> &Weights;
  std::vector<bool> InCover, Best;
  double BestWeight = 0;
  uint64_t Nodes = 0;
};

} // namespace

WeightedVertexCoverResult
rc::solveWeightedVertexCoverExact(const Graph &G,
                                  const std::vector<double> &Weights) {
  assert(Weights.size() == G.numVertices() && "weight vector has wrong size");
  return WeightedVertexCoverSearch(G, Weights).run();
}

Graph rc::randomBoundedDegreeGraph(unsigned NumVertices, unsigned MaxDegree,
                                   double EdgeProbability, Rng &Rand) {
  GraphBuilder G(NumVertices);
  std::vector<unsigned> Degree(NumVertices, 0);
  for (unsigned U = 0; U < NumVertices; ++U)
    for (unsigned V = U + 1; V < NumVertices; ++V) {
      if (Degree[U] >= MaxDegree || Degree[V] >= MaxDegree)
        continue;
      if (Rand.flip(EdgeProbability)) {
        G.addEdge(U, V);
        ++Degree[U];
        ++Degree[V];
      }
    }
  return std::move(G).build();
}
