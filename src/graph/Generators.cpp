//===- graph/Generators.cpp - Random graph generators ---------------------===//

#include "graph/Generators.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

using namespace rc;

Graph rc::randomGraph(unsigned NumVertices, double EdgeProbability,
                      Rng &Rand) {
  GraphBuilder G(NumVertices);
  for (unsigned U = 0; U < NumVertices; ++U)
    for (unsigned V = U + 1; V < NumVertices; ++V)
      if (Rand.flip(EdgeProbability))
        G.addEdge(U, V);
  return std::move(G).build();
}

Graph rc::randomSparseGraph(unsigned NumVertices, double AvgDegree,
                            Rng &Rand) {
  GraphBuilder G(NumVertices);
  if (NumVertices < 2)
    return std::move(G).build();
  size_t Target = static_cast<size_t>(
      static_cast<double>(NumVertices) * AvgDegree / 2.0);
  size_t MaxEdges =
      static_cast<size_t>(NumVertices) * (NumVertices - 1) / 2;
  Target = std::min(Target, MaxEdges);
  // Rejection sampling stays O(edges) while the graph is sparse (the
  // duplicate rate is edges/possible-pairs); the attempt cap makes dense
  // parameterizations terminate instead of thrashing. Pairs already drawn
  // are keyed (min,max) packed into one word.
  std::unordered_set<uint64_t> Drawn;
  Drawn.reserve(Target);
  size_t Attempts = 0, MaxAttempts = 20 * Target + 64;
  while (Drawn.size() < Target && Attempts++ < MaxAttempts) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(NumVertices));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(NumVertices));
    if (U == V)
      continue;
    uint64_t Key = (uint64_t(std::min(U, V)) << 32) | std::max(U, V);
    if (Drawn.insert(Key).second)
      G.addEdge(U, V);
  }
  return std::move(G).build();
}

std::vector<std::vector<unsigned>> rc::randomTree(unsigned NumNodes,
                                                  Rng &Rand) {
  std::vector<std::vector<unsigned>> Adj(NumNodes);
  for (unsigned Node = 1; Node < NumNodes; ++Node) {
    unsigned Parent = static_cast<unsigned>(Rand.nextBelow(Node));
    Adj[Node].push_back(Parent);
    Adj[Parent].push_back(Node);
  }
  return Adj;
}

Graph rc::randomChordalGraph(
    unsigned NumVertices, unsigned TreeSize, unsigned MeanSubtreeSize,
    Rng &Rand, std::vector<std::vector<unsigned>> *SubtreesOut) {
  assert(TreeSize > 0 && "tree must be non-empty");
  assert(MeanSubtreeSize > 0 && "subtrees must be non-empty");
  std::vector<std::vector<unsigned>> Tree = randomTree(TreeSize, Rand);

  // Grow each vertex's subtree by randomized BFS from a random root.
  std::vector<std::vector<unsigned>> Subtrees(NumVertices);
  std::vector<bool> InSubtree(TreeSize, false);
  for (auto &Subtree : Subtrees) {
    unsigned Target = 1 + static_cast<unsigned>(
                              Rand.nextBelow(2 * MeanSubtreeSize - 1));
    unsigned Root = static_cast<unsigned>(Rand.nextBelow(TreeSize));
    std::vector<unsigned> Frontier{Root};
    InSubtree[Root] = true;
    Subtree.push_back(Root);
    while (Subtree.size() < Target && !Frontier.empty()) {
      size_t Pick = Rand.nextBelow(Frontier.size());
      unsigned Node = Frontier[Pick];
      Frontier[Pick] = Frontier.back();
      Frontier.pop_back();
      for (unsigned Next : Tree[Node]) {
        if (InSubtree[Next] || Subtree.size() >= Target)
          continue;
        InSubtree[Next] = true;
        Subtree.push_back(Next);
        Frontier.push_back(Next);
      }
    }
    for (unsigned Node : Subtree)
      InSubtree[Node] = false;
    std::sort(Subtree.begin(), Subtree.end());
  }

  // Intersection graph: bucket vertices by tree node to avoid the quadratic
  // all-pairs subtree comparison.
  std::vector<std::vector<unsigned>> AtNode(TreeSize);
  for (unsigned V = 0; V < NumVertices; ++V)
    for (unsigned Node : Subtrees[V])
      AtNode[Node].push_back(V);
  GraphBuilder G(NumVertices);
  for (const auto &Bucket : AtNode)
    G.addClique(Bucket);

  if (SubtreesOut)
    *SubtreesOut = std::move(Subtrees);
  return std::move(G).build();
}

Graph rc::randomIntervalGraph(unsigned NumVertices, unsigned Domain,
                              unsigned MaxLength, Rng &Rand) {
  assert(Domain > 0 && MaxLength > 0 && "degenerate interval parameters");
  std::vector<std::pair<unsigned, unsigned>> Intervals(NumVertices);
  for (auto &[Lo, Hi] : Intervals) {
    Lo = static_cast<unsigned>(Rand.nextBelow(Domain));
    Hi = std::min<unsigned>(
        Domain - 1, Lo + static_cast<unsigned>(Rand.nextBelow(MaxLength)));
  }
  GraphBuilder G(NumVertices);
  for (unsigned U = 0; U < NumVertices; ++U)
    for (unsigned V = U + 1; V < NumVertices; ++V)
      if (Intervals[U].first <= Intervals[V].second &&
          Intervals[V].first <= Intervals[U].second)
        G.addEdge(U, V);
  return std::move(G).build();
}

Graph rc::randomKColorableGraph(unsigned NumVertices, unsigned K,
                                double EdgeProbability, Rng &Rand) {
  assert(K > 0 && "need at least one color class");
  std::vector<unsigned> HiddenColor(NumVertices);
  for (auto &Color : HiddenColor)
    Color = static_cast<unsigned>(Rand.nextBelow(K));
  GraphBuilder G(NumVertices);
  for (unsigned U = 0; U < NumVertices; ++U)
    for (unsigned V = U + 1; V < NumVertices; ++V)
      if (HiddenColor[U] != HiddenColor[V] && Rand.flip(EdgeProbability))
        G.addEdge(U, V);
  return std::move(G).build();
}

Graph rc::addDominatingClique(const Graph &G, unsigned P,
                              unsigned *FirstNewVertex) {
  GraphBuilder Result(G);
  unsigned First = Result.addVertices(P);
  if (FirstNewVertex)
    *FirstNewVertex = First;
  for (unsigned I = 0; I < P; ++I) {
    unsigned NewV = First + I;
    for (unsigned J = 0; J < I; ++J)
      Result.addEdge(First + J, NewV);
    for (unsigned V = 0; V < G.numVertices(); ++V)
      Result.addEdge(V, NewV);
  }
  return std::move(Result).build();
}
