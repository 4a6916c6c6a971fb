//===- coalescing/ChordalIncremental.cpp - Theorem 5 ----------------------===//

#include "coalescing/ChordalIncremental.h"

#include "graph/Chordal.h"
#include "graph/CliqueTree.h"

#include <algorithm>

using namespace rc;

Coloring rc::chordalChainWitness(
    const Graph &G, const std::vector<unsigned> &Chain,
    const std::vector<const std::vector<unsigned> *> &SlackCliques,
    unsigned K) {
  unsigned N = G.numVertices();
  unsigned NAug = N + static_cast<unsigned>(SlackCliques.size());
  GraphBuilder AugBuilder(G);
  AugBuilder.addVertices(static_cast<unsigned>(SlackCliques.size()));
  for (unsigned S = 0; S < SlackCliques.size(); ++S)
    for (unsigned W : *SlackCliques[S])
      AugBuilder.addEdge(N + S, W);
  Graph Aug = std::move(AugBuilder).build();

  std::vector<bool> InChain(NAug, false);
  for (unsigned V : Chain)
    InChain[V] = true;
  for (unsigned S = 0; S < SlackCliques.size(); ++S)
    InChain[N + S] = true;
  std::vector<unsigned> ClassIds(NAug);
  unsigned NextId = 1;
  for (unsigned V = 0; V < NAug; ++V)
    ClassIds[V] = InChain[V] ? 0 : NextId++;
  Graph Quotient = Aug.quotient(ClassIds, NextId);
  Coloring QuotientColors = chordalOptimalColoring(Quotient);
  assert(numColorsUsed(QuotientColors) <= K &&
         "merged chain raised the clique number");
  (void)K;

  Coloring Witness(N);
  for (unsigned V = 0; V < N; ++V)
    Witness[V] = QuotientColors[ClassIds[V]];
  return Witness;
}

ChordalIncrementalResult
rc::chordalIncrementalCoalescing(const Graph &G, unsigned X, unsigned Y,
                                 unsigned K) {
  // Interfering endpoints never share a color, and below omega G is not
  // even k-colorable. chordalCliqueNumber asserts chordality.
  if (G.hasEdge(X, Y) || K < chordalCliqueNumber(G))
    return {};
  return chordalIncrementalCoalescing(G, CliqueTree::build(G), X, Y, K);
}

ChordalIncrementalResult
rc::chordalIncrementalCoalescing(const Graph &G, const CliqueTree &T,
                                 unsigned X, unsigned Y, unsigned K) {
  assert(X < G.numVertices() && Y < G.numVertices() && X != Y &&
         "bad affinity endpoints");
  ChordalIncrementalResult Result;
  if (G.hasEdge(X, Y))
    return Result; // Interfering endpoints can never share a color.

  // When K > Omega every clique-path position has a free color slot, so the
  // interval chain below always exists (slack at every node) and the answer
  // is always yes; the general algorithm handles both cases uniformly and
  // its chain witness keeps the quotient chordal with unchanged omega,
  // which chordalCoalesce relies on.
  std::vector<unsigned> Path =
      T.pathBetweenSubtrees(T.nodesContaining(X), T.nodesContaining(Y));
  // CliqueTree::build joins the components of a disconnected G into one
  // tree through empty separators, and every vertex lies in a clique.
  assert(!Path.empty() && "clique tree must connect every pair of subtrees");

  unsigned Q = static_cast<unsigned>(Path.size());
  assert(Q >= 2 && "adjacent subtrees imply an interference");
  std::vector<int> Pos(T.numNodes(), -1);
  for (unsigned I = 0; I < Q; ++I)
    Pos[Path[I]] = static_cast<int>(I);

  // Intervals I_v = T_v intersected with the path; subtree-path
  // intersections are contiguous.
  struct Interval {
    unsigned Lo = 0, Hi = 0;
    unsigned Vertex = ~0u; // ~0u marks a slack interval.
  };
  std::vector<Interval> Intervals;
  unsigned XInterval = ~0u, YInterval = ~0u;
  for (unsigned V = 0; V < G.numVertices(); ++V) {
    unsigned Lo = ~0u, Hi = 0, Count = 0;
    for (unsigned Node : T.nodesContaining(V)) {
      if (Pos[Node] < 0)
        continue;
      unsigned P = static_cast<unsigned>(Pos[Node]);
      Lo = std::min(Lo, P);
      Hi = std::max(Hi, P);
      ++Count;
    }
    if (Count == 0)
      continue;
    assert(Count == Hi - Lo + 1 && "subtree-path intersection has a gap");
    if (V == X)
      XInterval = static_cast<unsigned>(Intervals.size());
    if (V == Y)
      YInterval = static_cast<unsigned>(Intervals.size());
    Intervals.push_back({Lo, Hi, V});
  }
  assert(XInterval != ~0u && YInterval != ~0u && "endpoints missed the path");
  assert(Intervals[XInterval].Lo == 0 && Intervals[XInterval].Hi == 0 &&
         "x's interval must be the first path node only");
  assert(Intervals[YInterval].Lo == Q - 1 && Intervals[YInterval].Hi == Q - 1 &&
         "y's interval must be the last path node only");

  // Slack intervals where the clique is not full: the color of x can pass
  // through such a node without occupying a real vertex.
  for (unsigned P = 0; P < Q; ++P)
    if (T.clique(Path[P]).size() < K)
      Intervals.push_back({P, P, ~0u});

  // Left-to-right marking: a chain of contiguous disjoint intervals from
  // I_x to I_y, i.e. BFS where interval [lo,hi] connects to intervals
  // starting at hi+1.
  std::vector<std::vector<unsigned>> ByStart(Q);
  for (unsigned I = 0; I < Intervals.size(); ++I)
    ByStart[Intervals[I].Lo].push_back(I);

  std::vector<int> Parent(Intervals.size(), -2);
  std::vector<unsigned> Queue{XInterval};
  Parent[XInterval] = -1;
  bool Found = false;
  for (size_t Head = 0; Head < Queue.size() && !Found; ++Head) {
    unsigned Cur = Queue[Head];
    if (Cur == YInterval) {
      Found = true;
      break;
    }
    unsigned NextStart = Intervals[Cur].Hi + 1;
    if (NextStart >= Q)
      continue;
    for (unsigned Next : ByStart[NextStart]) {
      if (Parent[Next] != -2)
        continue;
      Parent[Next] = static_cast<int>(Cur);
      Queue.push_back(Next);
    }
  }
  if (!Found)
    return Result; // No disjoint cover: x and y cannot share a color.

  // Collect the chain's real vertices, noting every slack interval it
  // threads through (the chain is then NOT a tiling of real subtrees).
  std::vector<unsigned> Chain;
  std::vector<const std::vector<unsigned> *> SlackCliques;
  for (int Cur = static_cast<int>(YInterval); Cur >= 0; Cur = Parent[Cur]) {
    if (Intervals[Cur].Vertex != ~0u)
      Chain.push_back(Intervals[Cur].Vertex);
    else
      SlackCliques.push_back(&T.clique(Path[Intervals[Cur].Lo]));
  }
  std::reverse(Chain.begin(), Chain.end());

  Result.Feasible = true;
  Result.GapFree = SlackCliques.empty();
  Result.Witness = chordalChainWitness(G, Chain, SlackCliques, K);
  Result.MergedChain = std::move(Chain);
  assert(isValidColoring(G, Result.Witness, static_cast<int>(K)) &&
         Result.Witness[X] == Result.Witness[Y] && "chain witness is invalid");
  return Result;
}
