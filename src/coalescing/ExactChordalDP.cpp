//===- coalescing/ExactChordalDP.cpp - Thm 5 clique-tree DP ---------------===//
//
// The clique-tree DP decision of Theorem 5 on a prebuilt tree, declared in
// coalescing/ChordalIncremental.h next to the BFS decision it is diffed
// against. Its one-shot form lives with the BFS one in
// ChordalIncremental.cpp, which completes either chain to a witness.
//
//===----------------------------------------------------------------------===//

#include "coalescing/ChordalIncremental.h"

#include "graph/CliqueTree.h"

#include <algorithm>
#include <cstdint>
#include <limits>

using namespace rc;

ChordalChainDecision rc::chordalIncrementalDP(const Graph &G,
                                              const CliqueTree &T, unsigned X,
                                              unsigned Y, unsigned K) {
  assert(X < G.numVertices() && Y < G.numVertices() && X != Y &&
         "bad affinity endpoints");
  ChordalChainDecision Result;
  if (G.hasEdge(X, Y))
    return Result;

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

  // Intervals: subtree-path intersections (contiguous) for every vertex
  // touching the path, then one slack interval per position whose clique
  // has a free color slot.
  struct Interval {
    unsigned Lo = 0, Hi = 0;
    unsigned Vertex = ~0u; // ~0u marks a slack interval.
  };
  std::vector<Interval> Intervals;
  unsigned XInterval = ~0u;
  [[maybe_unused]] unsigned YInterval = ~0u; // Read only by the asserts.
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
  assert(Intervals[YInterval].Lo == Q - 1 &&
         Intervals[YInterval].Hi == Q - 1 &&
         "y's interval must be the last path node only");
  for (unsigned P = 0; P < Q; ++P)
    if (T.clique(Path[P]).size() < K)
      Intervals.push_back({P, P, ~0u});

  // DP left to right over path positions, minimizing the lexicographic
  // cost (slack intervals used, real vertices merged): a gap-free chain —
  // whose merge provably keeps the quotient chordal — always beats one
  // that threads through free color slots, and among gap-free chains the
  // fewest artificial merges win. Cost packs as slack<<32 | real.
  // BestCost[p] covers exactly [0..p] starting with I_x; BestEnd[p] is the
  // interval ending that chain (ties: first in construction order, so the
  // result is deterministic). Every interval ending at p-1 is processed
  // before position p is read, because Lo <= Hi.
  constexpr uint64_t Inf = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> BestCost(Q, Inf);
  std::vector<int> BestEnd(Q, -1);
  std::vector<std::vector<unsigned>> ByLo(Q);
  for (unsigned I = 0; I < Intervals.size(); ++I)
    ByLo[Intervals[I].Lo].push_back(I);

  for (unsigned P = 0; P < Q; ++P) {
    for (unsigned I : ByLo[P]) {
      uint64_t Base;
      if (P == 0)
        Base = I == XInterval ? 0 : Inf; // The chain must start with I_x.
      else
        Base = BestCost[P - 1];
      if (Base == Inf)
        continue;
      uint64_t Cost =
          Base + (Intervals[I].Vertex != ~0u ? 1 : uint64_t(1) << 32);
      unsigned Hi = Intervals[I].Hi;
      if (Cost < BestCost[Hi]) {
        BestCost[Hi] = Cost;
        BestEnd[Hi] = static_cast<int>(I);
      }
    }
  }

  // The chain must end with I_y (y's class contains y, and intervals in a
  // chain are disjoint), so the answer hangs off position Q-2.
  if (BestCost[Q - 2] == Inf)
    return Result;

  std::vector<unsigned> &Chain = Result.MergedChain;
  Chain.push_back(Y);
  [[maybe_unused]] unsigned RealMerges = 0; // Read only by the asserts.
  for (int P = static_cast<int>(Q) - 2; P >= 0;) {
    const Interval &I = Intervals[static_cast<unsigned>(BestEnd[P])];
    if (I.Vertex != ~0u) {
      Chain.push_back(I.Vertex);
      if (I.Vertex != X && I.Vertex != Y)
        ++RealMerges;
    } else {
      Result.SlackNodes.push_back(Path[I.Lo]);
    }
    P = static_cast<int>(I.Lo) - 1;
  }
  std::reverse(Chain.begin(), Chain.end());
  assert(Chain.front() == X && Chain.back() == Y &&
         "DP chain must run from x to y");
  assert(RealMerges + 2 == Chain.size() && "chain cost mismatch");
  assert(Result.SlackNodes.size() == (BestCost[Q - 2] >> 32) &&
         "slack cost mismatch");
  Result.Feasible = true;
  return Result;
}
