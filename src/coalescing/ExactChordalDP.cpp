//===- coalescing/ExactChordalDP.cpp - Thm 5 clique-tree DP ---------------===//

#include "coalescing/ExactChordalDP.h"

#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

using namespace rc;

namespace {

/// Swaps colors \p A and \p B on every vertex reachable from \p Start;
/// swapping within a union of connected components keeps a coloring valid.
void swapColorsInComponent(const Graph &G, Coloring &C, unsigned Start,
                           int A, int B) {
  std::vector<bool> Seen(G.numVertices(), false);
  std::vector<unsigned> Stack{Start};
  Seen[Start] = true;
  while (!Stack.empty()) {
    unsigned V = Stack.back();
    Stack.pop_back();
    if (C[V] == A)
      C[V] = B;
    else if (C[V] == B)
      C[V] = A;
    for (unsigned W : G.neighbors(V))
      if (!Seen[W]) {
        Seen[W] = true;
        Stack.push_back(W);
      }
  }
}

/// Builds a witness coloring for a chain that may thread through slack
/// cliques. Merging only the real chain vertices can leave their subtree
/// union disconnected (the quotient need not be chordal!), so the chain is
/// completed on an AUGMENTED graph first: one artificial vertex per used
/// slack clique, adjacent to exactly that clique — simplicial, so the
/// augmented graph is chordal, and the clique stays below K, so its clique
/// number still is. The augmented chain tiles the path, its quotient is
/// chordal with unchanged clique number, and restricting the quotient's
/// optimal coloring to the original vertices yields the witness.
Coloring chainWitness(const Graph &G, const std::vector<unsigned> &Chain,
                      const std::vector<std::vector<unsigned>> &SlackCliques,
                      unsigned K) {
  unsigned N = G.numVertices();
  unsigned NAug = N + static_cast<unsigned>(SlackCliques.size());
  Graph Aug(NAug);
  for (unsigned V = 0; V < N; ++V)
    for (unsigned W : G.neighbors(V))
      if (V < W)
        Aug.addEdge(V, W);
  for (unsigned S = 0; S < SlackCliques.size(); ++S)
    for (unsigned W : SlackCliques[S])
      Aug.addEdge(N + S, W);

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
         "tiling chain raised the clique number");
  (void)K;
  Coloring Witness(N);
  for (unsigned V = 0; V < N; ++V)
    Witness[V] = QuotientColors[ClassIds[V]];
  return Witness;
}

} // namespace

ChordalDPResult rc::chordalIncrementalDP(const Graph &G, unsigned X,
                                         unsigned Y, unsigned K) {
  assert(X < G.numVertices() && Y < G.numVertices() && X != Y &&
         "bad affinity endpoints");
  ChordalDPResult Result;
  if (G.hasEdge(X, Y))
    return Result;

  unsigned Omega = chordalCliqueNumber(G); // Asserts chordality.
  if (K < Omega)
    return Result;

  CliqueTree T = CliqueTree::build(G);
  std::vector<unsigned> Path =
      T.pathBetweenSubtrees(T.nodesContaining(X), T.nodesContaining(Y));

  if (Path.empty()) {
    // Different components: any optimal coloring, colors permuted on y's
    // side, identifies the endpoints with no merging at all.
    Coloring C = chordalOptimalColoring(G);
    if (C[X] != C[Y])
      swapColorsInComponent(G, C, Y, C[X], C[Y]);
    Result.Feasible = true;
    Result.GapFree = true;
    Result.Witness = std::move(C);
    Result.MergedChain = {X, Y};
    assert(Result.Witness[X] == Result.Witness[Y] &&
           isValidColoring(G, Result.Witness, static_cast<int>(K)) &&
           "cross-component witness is invalid");
    return Result;
  }

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

  std::vector<unsigned> Chain{Y};
  std::vector<std::vector<unsigned>> SlackCliques;
  unsigned RealMerges = 0;
  for (int P = static_cast<int>(Q) - 2; P >= 0;) {
    const Interval &I = Intervals[static_cast<unsigned>(BestEnd[P])];
    if (I.Vertex != ~0u) {
      Chain.push_back(I.Vertex);
      if (I.Vertex != X && I.Vertex != Y)
        ++RealMerges;
    } else {
      const auto &Clique = T.clique(Path[I.Lo]);
      SlackCliques.emplace_back(Clique.begin(), Clique.end());
    }
    P = static_cast<int>(I.Lo) - 1;
  }
  std::reverse(Chain.begin(), Chain.end());
  assert(Chain.front() == X && Chain.back() == Y &&
         "DP chain must run from x to y");
  assert(RealMerges + 2 == Chain.size() && "chain cost mismatch");
  assert(SlackCliques.size() == (BestCost[Q - 2] >> 32) &&
         "slack cost mismatch");

  Result.Feasible = true;
  Result.GapFree = SlackCliques.empty();
  Result.MergedChain = std::move(Chain);
  Result.RealMerges = RealMerges;
  Result.Witness = chainWitness(G, Result.MergedChain, SlackCliques, K);
  assert(isValidColoring(G, Result.Witness, static_cast<int>(K)) &&
         Result.Witness[X] == Result.Witness[Y] && "DP witness is invalid");
  return Result;
}

ChordalDPStrategyResult rc::chordalCoalesceDP(const CoalescingProblem &P,
                                              CoalescingTelemetry *Telemetry,
                                              const CancelToken *Cancel) {
  auto Count = [Telemetry](EngineEvent E) {
    if (Telemetry)
      Telemetry->count(E);
  };
  assert(isChordal(P.G) && "DP strategy requires a chordal graph");
  assert(P.K >= chordalCliqueNumber(P.G) &&
         "DP strategy requires k >= omega");

  unsigned N = P.G.numVertices();
  UnionFind Classes(N);
  Graph Current = P.G;
  std::vector<unsigned> DenseIds(N);
  std::iota(DenseIds.begin(), DenseIds.end(), 0u);

  // Applies the tentative partition when its quotient stays chordal —
  // guaranteed for gap-free chains (asserted), merely possible for chains
  // that threaded a slack slot. Returns false, leaving the state intact,
  // when the merge would break the chordality later decisions rely on.
  auto tryCommit = [&](UnionFind &&Tentative, bool GapFree) {
    std::vector<unsigned> Dense = Tentative.denseClassIds();
    Graph Quotient = P.G.quotient(Dense, Tentative.numClasses());
    bool Chordal = isChordal(Quotient);
    assert((Chordal || !GapFree) &&
           "gap-free chain merge broke chordality, contradicting Theorem 5");
    (void)GapFree;
    if (!Chordal)
      return false;
    Classes = std::move(Tentative);
    DenseIds = std::move(Dense);
    Current = std::move(Quotient);
    return true;
  };

  std::vector<unsigned> Order(P.Affinities.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

  ChordalDPStrategyResult Result;
  for (unsigned Idx : Order) {
    // pollNow, not expired(): nothing else polls this token here, so a
    // deadline-armed token would otherwise never trip. Once per affinity
    // decision, the clock read is noise.
    if (Cancel && Cancel->pollNow()) {
      Result.TimedOut = true;
      break;
    }
    const Affinity &A = P.Affinities[Idx];
    unsigned X = DenseIds[A.U], Y = DenseIds[A.V];
    if (X == Y)
      continue;
    Count(EngineEvent::MergeAttempted);
    if (Current.hasEdge(X, Y)) {
      ++Result.InfeasibleAffinities;
      continue;
    }
    ChordalDPResult Decision = chordalIncrementalDP(Current, X, Y, P.K);
    if (!Decision.Feasible) {
      ++Result.InfeasibleAffinities;
      continue;
    }
    assert(Decision.MergedChain.size() >= 2 && "chain must contain x and y");
    std::vector<unsigned> Reps;
    for (unsigned Vertex = 0; Vertex < N; ++Vertex)
      if (std::find(Decision.MergedChain.begin(),
                    Decision.MergedChain.end(),
                    DenseIds[Vertex]) != Decision.MergedChain.end())
        Reps.push_back(Vertex);
    UnionFind Tentative = Classes;
    for (size_t I = 1; I < Reps.size(); ++I)
      Tentative.merge(Reps[0], Reps[I]);
    if (!tryCommit(std::move(Tentative), Decision.GapFree)) {
      // The minimum-cost chain threads through a free color slot and
      // merging its real vertices would break chordality, invalidating
      // every later exact decision. Leave the affinity uncoalesced.
      ++Result.DeferredGapped;
      continue;
    }
    Result.ChainMerges += Decision.RealMerges;
    for (size_t I = 1; I < Reps.size(); ++I)
      Count(EngineEvent::MergeCommitted);
  }

  Result.Solution.ClassIds = Classes.denseClassIds();
  Result.Solution.NumClasses = Classes.numClasses();
  Result.Stats = evaluateSolution(P, Result.Solution);
  assert(isValidCoalescing(P.G, Result.Solution) &&
         "DP strategy produced an invalid coalescing");
  return Result;
}
