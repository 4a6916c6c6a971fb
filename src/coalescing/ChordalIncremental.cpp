//===- coalescing/ChordalIncremental.cpp - Theorem 5 ----------------------===//

#include "coalescing/ChordalIncremental.h"

#include "graph/Chordal.h"
#include "graph/CliqueTree.h"

#include <algorithm>

using namespace rc;

namespace {

/// Completes the chain of \p D to a witness coloring of \p G, on an
/// augmented graph: one artificial vertex per slack clique of \p T the
/// chain threads through, adjacent to exactly that clique. Merging only the
/// real vertices can leave their subtree union disconnected, but each
/// artificial vertex is simplicial, so the augmented graph stays chordal,
/// and its clique has fewer than \p K vertices, so the clique number stays
/// within K. The augmented chain tiles the path, its quotient is chordal
/// with clique number at most K, and its optimal coloring restricted to G
/// is the witness.
Coloring chainWitness(const Graph &G, const CliqueTree &T,
                      const ChordalChainDecision &D, unsigned K) {
  unsigned N = G.numVertices();
  unsigned NumSlack = static_cast<unsigned>(D.SlackNodes.size());
  unsigned NAug = N + NumSlack;
  GraphBuilder AugBuilder(G);
  AugBuilder.addVertices(NumSlack);
  for (unsigned S = 0; S < NumSlack; ++S)
    for (unsigned W : T.clique(D.SlackNodes[S]))
      AugBuilder.addEdge(N + S, W);
  Graph Aug = std::move(AugBuilder).build();

  std::vector<bool> InChain(NAug, false);
  for (unsigned V : D.MergedChain)
    InChain[V] = true;
  for (unsigned S = 0; S < NumSlack; ++S)
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

using TreeDecision = ChordalChainDecision (*)(const Graph &,
                                              const CliqueTree &, unsigned,
                                              unsigned, unsigned);

/// The one-shot form of the tree decision \p Decide: one perfect
/// elimination order of \p G gives both omega and the clique tree, and the
/// chain is completed to a witness while that tree is alive.
ChordalIncrementalResult decideOnce(const Graph &G, unsigned X, unsigned Y,
                                    unsigned K, TreeDecision Decide) {
  // Interfering endpoints never share a color, and below omega G is not
  // even k-colorable.
  if (G.hasEdge(X, Y))
    return {};
  std::vector<unsigned> Peo;
  [[maybe_unused]] bool Chordal = isChordal(G, &Peo);
  assert(Chordal && "incremental coalescing requires a chordal graph");
  if (K < chordalCliqueNumber(G, Peo))
    return {};
  CliqueTree T = CliqueTree::build(G, Peo);
  ChordalChainDecision D = Decide(G, T, X, Y, K);
  if (!D.Feasible)
    return {};
  ChordalIncrementalResult Result;
  Result.Feasible = true;
  Result.GapFree = D.gapFree();
  Result.Witness = chainWitness(G, T, D, K);
  Result.MergedChain = std::move(D.MergedChain);
  assert(isValidColoring(G, Result.Witness, static_cast<int>(K)) &&
         Result.Witness[X] == Result.Witness[Y] && "chain witness is invalid");
  return Result;
}

} // namespace

ChordalIncrementalResult
rc::chordalIncrementalCoalescing(const Graph &G, unsigned X, unsigned Y,
                                 unsigned K) {
  return decideOnce(G, X, Y, K, chordalIncrementalCoalescing);
}

ChordalIncrementalResult rc::chordalIncrementalDP(const Graph &G, unsigned X,
                                                  unsigned Y, unsigned K) {
  return decideOnce(G, X, Y, K, chordalIncrementalDP);
}

ChordalChainDecision
rc::chordalIncrementalCoalescing(const Graph &G, const CliqueTree &T,
                                 unsigned X, unsigned Y, unsigned K) {
  assert(X < G.numVertices() && Y < G.numVertices() && X != Y &&
         "bad affinity endpoints");
  ChordalChainDecision Result;
  if (G.hasEdge(X, Y))
    return Result; // Interfering endpoints can never share a color.

  // When K > Omega every clique-path position has a free color slot, so the
  // interval chain below always exists (slack at every node) and the answer
  // is always yes; the general algorithm handles both cases uniformly, and
  // merging its chain keeps the quotient chordal with omega at most K,
  // which chordalCoalesce relies on (and asserts per commit).
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
  for (int Cur = static_cast<int>(YInterval); Cur >= 0; Cur = Parent[Cur]) {
    if (Intervals[Cur].Vertex != ~0u)
      Result.MergedChain.push_back(Intervals[Cur].Vertex);
    else
      Result.SlackNodes.push_back(Path[Intervals[Cur].Lo]);
  }
  std::reverse(Result.MergedChain.begin(), Result.MergedChain.end());
  Result.Feasible = true;
  return Result;
}
