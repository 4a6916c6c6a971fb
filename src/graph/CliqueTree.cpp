//===- graph/CliqueTree.cpp - Clique trees of chordal graphs --------------===//

#include "graph/CliqueTree.h"

#include "graph/Chordal.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <queue>

using namespace rc;

CliqueTree CliqueTree::build(const Graph &G) {
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "CliqueTree::build requires a chordal graph");
  return build(G, Peo);
}

CliqueTree CliqueTree::build(const Graph &G,
                             const std::vector<unsigned> &Peo) {
  CliqueTree T;
  T.Cliques = chordalMaximalCliques(G, Peo);
  unsigned M = static_cast<unsigned>(T.Cliques.size());
  T.TreeAdj.assign(M, {});
  T.VertexNodes.assign(G.numVertices(), {});
  for (unsigned Node = 0; Node < M; ++Node)
    for (unsigned V : T.Cliques[Node])
      T.VertexNodes[V].push_back(Node);

  if (M <= 1)
    return T;

  // Maximum-weight spanning forest of the clique intersection graph, by
  // Kruskal over the node pairs with a positive intersection. Only cliques
  // sharing a vertex intersect, so for each node A the nodes B > A met
  // through A's vertices are its candidates, and the number of times B is
  // met is the weight |A ∩ B|. Candidates come out in (A, B) order.
  struct Candidate {
    unsigned A, B, Weight;
  };
  std::vector<Candidate> Candidates;
  std::vector<unsigned> Shared(M, 0);
  std::vector<unsigned> Met;
  for (unsigned A = 0; A < M; ++A) {
    for (unsigned V : T.Cliques[A])
      for (unsigned B : T.VertexNodes[V])
        if (B > A && Shared[B]++ == 0)
          Met.push_back(B);
    std::sort(Met.begin(), Met.end());
    for (unsigned B : Met) {
      Candidates.push_back({A, B, Shared[B]});
      Shared[B] = 0;
    }
    Met.clear();
  }
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [](const Candidate &X, const Candidate &Y) {
                     return X.Weight > Y.Weight;
                   });

  UnionFind Forest(M);
  auto link = [&T](unsigned A, unsigned B) {
    T.TreeAdj[A].push_back(B);
    T.TreeAdj[B].push_back(A);
  };
  for (const Candidate &C : Candidates)
    if (Forest.merge(C.A, C.B))
      link(C.A, C.B);

  // Join remaining components (G disconnected) with arbitrary tree edges;
  // no vertex spans two components, so the subtree property is preserved.
  for (unsigned Node = 1; Node < M; ++Node)
    if (Forest.merge(0, Node))
      link(0, Node);

  return T;
}

std::vector<unsigned> CliqueTree::pathBetween(unsigned From,
                                              unsigned To) const {
  return pathBetweenSubtrees({From}, {To});
}

std::vector<unsigned> CliqueTree::pathBetweenSubtrees(
    const std::vector<unsigned> &SourceSet,
    const std::vector<unsigned> &TargetSet) const {
  std::vector<int> Parent(numNodes(), -2); // -2 unvisited, -1 root.
  std::vector<bool> IsTarget(numNodes(), false);
  for (unsigned Node : TargetSet)
    IsTarget[Node] = true;

  std::queue<unsigned> Queue;
  for (unsigned Node : SourceSet) {
    if (Parent[Node] != -2)
      continue;
    Parent[Node] = -1;
    Queue.push(Node);
  }
  while (!Queue.empty()) {
    unsigned Node = Queue.front();
    Queue.pop();
    if (IsTarget[Node]) {
      std::vector<unsigned> Path;
      for (int Cursor = static_cast<int>(Node); Cursor >= 0;
           Cursor = Parent[Cursor])
        Path.push_back(static_cast<unsigned>(Cursor));
      std::reverse(Path.begin(), Path.end());
      return Path;
    }
    for (unsigned Next : TreeAdj[Node]) {
      if (Parent[Next] != -2)
        continue;
      Parent[Next] = static_cast<int>(Node);
      Queue.push(Next);
    }
  }
  return {};
}

bool CliqueTree::verify(const Graph &G) const {
  // Every clique node must be a clique of G.
  for (const auto &Clique : Cliques)
    if (!G.isClique(Clique))
      return false;

  // Every edge of G must appear inside some clique: equivalently, the
  // subtrees of its endpoints share a node.
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U)) {
      if (V < U)
        continue;
      bool Shared = false;
      for (unsigned Node : VertexNodes[U])
        for (unsigned Other : VertexNodes[V])
          if (Node == Other)
            Shared = true;
      if (!Shared)
        return false;
    }

  // Each vertex's node set must induce a connected subtree.
  for (unsigned V = 0; V < G.numVertices(); ++V) {
    const auto &Nodes = VertexNodes[V];
    if (Nodes.size() <= 1)
      continue;
    std::vector<bool> InSet(numNodes(), false);
    for (unsigned Node : Nodes)
      InSet[Node] = true;
    std::vector<unsigned> Stack{Nodes[0]};
    std::vector<bool> Seen(numNodes(), false);
    Seen[Nodes[0]] = true;
    unsigned Reached = 0;
    while (!Stack.empty()) {
      unsigned Node = Stack.back();
      Stack.pop_back();
      ++Reached;
      for (unsigned Next : TreeAdj[Node])
        if (InSet[Next] && !Seen[Next]) {
          Seen[Next] = true;
          Stack.push_back(Next);
        }
    }
    if (Reached != Nodes.size())
      return false;
  }
  return true;
}
