//===- testing/Oracles.cpp - Paper invariants as predicates ---------------===//

#include "testing/Oracles.h"

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeFormat.h"
#include "challenge/StrategyRegistry.h"
#include "challenge/StrategyRunner.h"
#include "coalescing/ChordalIncremental.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "coalescing/WorkGraph.h"
#include "graph/Chordal.h"
#include "graph/ExactColoring.h"
#include "graph/GreedyColorability.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Liveness.h"
#include "ir/OutOfSsa.h"
#include "ir/Verifier.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>

using namespace rc;
using namespace rc::testing;

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

//===----------------------------------------------------------------------===//
// Oracle 1: Theorem 1.
//===----------------------------------------------------------------------===//

bool testing::checkSsaChordalMaxlive(const ir::Function &F, std::string *Error,
                                     unsigned BruteForceLimit) {
  std::string Why;
  if (!ir::verifyStrictSsa(F, &Why))
    return fail(Error, "generated function is not strict SSA: " + Why);

  ir::Liveness L = ir::Liveness::compute(F);
  ir::InterferenceGraph IG = buildInterferenceGraph(F, L);
  if (!isChordal(IG.G))
    return fail(Error, "strict-SSA interference graph is not chordal");

  unsigned Omega = IG.G.numVertices() ? chordalCliqueNumber(IG.G) : 0;
  unsigned Maxlive = ir::computeMaxlive(F, L);
  if (Omega != Maxlive) {
    std::ostringstream OS;
    OS << "omega(G) = " << Omega << " but Maxlive = " << Maxlive;
    return fail(Error, OS.str());
  }
  if (IG.G.numVertices() > 0 && IG.G.numVertices() <= BruteForceLimit) {
    unsigned BruteOmega = cliqueNumberBruteForce(IG.G);
    if (BruteOmega != Omega) {
      std::ostringstream OS;
      OS << "chordal clique number " << Omega
         << " disagrees with Bron-Kerbosch " << BruteOmega;
      return fail(Error, OS.str());
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 2: out-of-SSA preserves semantics.
//===----------------------------------------------------------------------===//

bool testing::checkOutOfSsaSemantics(const ir::Function &F,
                                     std::string *Error) {
  std::string Why;
  if (!ir::verifyStrictSsa(F, &Why))
    return fail(Error, "input function is not strict SSA: " + Why);

  ir::ExecutionResult Before = ir::interpret(F);
  if (!Before.Ok)
    return fail(Error, "SSA function does not terminate: " + Before.Error);

  ir::Function Lowered = F;
  ir::lowerOutOfSsa(Lowered);
  if (!ir::verifyCfg(Lowered, &Why))
    return fail(Error, "lowered function has a malformed CFG: " + Why);
  for (ir::BlockId B = 0; B < Lowered.numBlocks(); ++B)
    if (!Lowered.block(B).Phis.empty())
      return fail(Error, "out-of-SSA left a phi behind");

  ir::ExecutionResult After = ir::interpret(Lowered);
  if (!After.Ok)
    return fail(Error, "lowered function fails to run: " + After.Error);
  if (After.ReturnValues != Before.ReturnValues) {
    std::ostringstream OS;
    OS << "out-of-SSA changed observable behavior: returned {";
    for (int64_t V : After.ReturnValues)
      OS << " " << V;
    OS << " } instead of {";
    for (int64_t V : Before.ReturnValues)
      OS << " " << V;
    OS << " }";
    return fail(Error, OS.str());
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Shared solution soundness.
//===----------------------------------------------------------------------===//

bool testing::checkSolutionSound(const CoalescingProblem &P,
                                 const CoalescingSolution &S,
                                 bool RequireGreedy, std::string *Error) {
  if (S.ClassIds.size() != P.G.numVertices())
    return fail(Error, "solution size differs from vertex count");
  std::vector<bool> Used(S.NumClasses, false);
  for (unsigned V = 0; V < P.G.numVertices(); ++V) {
    if (S.ClassIds[V] >= S.NumClasses)
      return fail(Error, "class id out of range");
    Used[S.ClassIds[V]] = true;
  }
  for (unsigned C = 0; C < S.NumClasses; ++C)
    if (!Used[C])
      return fail(Error, "class ids are not dense");
  for (unsigned U = 0; U < P.G.numVertices(); ++U)
    for (unsigned V : P.G.neighbors(U))
      if (V > U && S.ClassIds[U] == S.ClassIds[V]) {
        std::ostringstream OS;
        OS << "interfering vertices " << U << " and " << V << " were merged";
        return fail(Error, OS.str());
      }
  if (RequireGreedy) {
    Graph Quotient = buildCoalescedGraph(P.G, S);
    if (!isGreedyKColorable(Quotient, P.K)) {
      std::ostringstream OS;
      OS << "coalesced graph lost greedy-" << P.K << "-colorability";
      return fail(Error, OS.str());
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 3: conservative coalescers stay sound.
//===----------------------------------------------------------------------===//

static const char *ruleName(ConservativeRule Rule) {
  switch (Rule) {
  case ConservativeRule::Briggs:
    return "Briggs";
  case ConservativeRule::George:
    return "George";
  case ConservativeRule::BriggsOrGeorge:
    return "BriggsOrGeorge";
  case ConservativeRule::BruteForce:
    return "BruteForce";
  }
  return "?";
}

bool testing::checkCoalescerSoundness(const CoalescingProblem &P,
                                      std::string *Error,
                                      const std::vector<std::string> *Only) {
  bool InputGreedy = isGreedyKColorable(P.G, P.K);
  std::string Why;
  unsigned Omega =
      P.G.numVertices() && isChordal(P.G) ? chordalCliqueNumber(P.G) : ~0u;
  bool ChordalCase = Omega != ~0u && P.K >= Omega && P.K > 0;

  for (const StrategyInfo &Info : StrategyRegistry::instance().strategies()) {
    if (Only && !Only->empty() &&
        std::find(Only->begin(), Only->end(), Info.Name) == Only->end())
      continue;
    CoalescingTelemetry T;
    StrategyContext Ctx(T);
    CoalescingSolution S = Info.Run(P, StrategyOptions(), Ctx);
    // Aggressive merging deliberately ignores k; everyone else must keep a
    // greedy-k-colorable input greedy-k-colorable.
    bool RequireGreedy = InputGreedy && Info.Name != "aggressive";
    if (!checkSolutionSound(P, S, RequireGreedy, &Why))
      return fail(Error, Info.Name + ": " + Why);
    CoalescingStats Stats = evaluateSolution(P, S);
    if (Stats.CoalescedAffinities + Stats.UncoalescedAffinities !=
        P.Affinities.size())
      return fail(Error, Info.Name + ": affinity stats do not add up");
    // Note Rollbacks may exceed Checkpoints: rollbackTo() replays against
    // one mark arbitrarily often (the optimistic phase-2 loop does).
    if (T.BriggsPassed > T.BriggsTests || T.GeorgePassed > T.GeorgeTests ||
        T.BruteForcePassed > T.BruteForceTests ||
        T.MergesRolledBack > T.Merges)
      return fail(Error, Info.Name + ": telemetry counters inconsistent");
    if ((Info.Name == "chordal-thm5" || Info.Name == "exact-chordal-dp") &&
        ChordalCase) {
      Graph Quotient = buildCoalescedGraph(P.G, S);
      if (!isChordal(Quotient))
        return fail(Error, Info.Name + ": quotient lost chordality");
      if (Quotient.numVertices() && chordalCliqueNumber(Quotient) > P.K)
        return fail(Error, Info.Name + ": quotient clique number exceeds k");
    }
  }

  // IRC's colors and spill set are not visible through the registry's
  // solution interface; re-run it directly for the coloring checks.
  if (Only && !Only->empty() &&
      std::find(Only->begin(), Only->end(), "irc") == Only->end())
    return true;
  IrcResult Irc = iteratedRegisterCoalescing(P);
  if (!checkSolutionSound(P, Irc.Solution, /*RequireGreedy=*/false, &Why))
    return fail(Error, "irc: " + Why);
  if (InputGreedy && !Irc.Spilled.empty())
    return fail(Error, "irc: spilled on a greedy-k-colorable input");
  for (unsigned U = 0; U < P.G.numVertices(); ++U) {
    int CU = Irc.Colors[U];
    if (CU >= static_cast<int>(P.K))
      return fail(Error, "irc: color out of range");
    if (InputGreedy && CU < 0)
      return fail(Error, "irc: uncolored vertex without a spill excuse");
    if (CU < 0)
      continue;
    for (unsigned V : P.G.neighbors(U))
      if (V > U && Irc.Colors[V] == CU) {
        std::ostringstream OS;
        OS << "irc: interfering vertices " << U << " and " << V
           << " share color " << CU;
        return fail(Error, OS.str());
      }
  }

  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 4: differential against exact search.
//===----------------------------------------------------------------------===//

bool testing::checkDifferentialExact(const CoalescingProblem &P,
                                     std::string *Error, double *GapOut) {
  if (P.G.numVertices() > 14)
    return fail(Error, "instance too large for the exact differential oracle");

  bool InputGreedy = isGreedyKColorable(P.G, P.K);
  ExactSearchResult Exact = exactCoalesceSearch(P, {ExactFeasibility::Greedy});
  if (!Exact.Optimal)
    return fail(Error, "exact conservative search did not complete");
  const double Eps = 1e-6;
  double WorstGap = 0;
  std::string Why;

  for (ConservativeRule Rule :
       {ConservativeRule::Briggs, ConservativeRule::George,
        ConservativeRule::BriggsOrGeorge, ConservativeRule::BruteForce}) {
    ConservativeResult R = conservativeCoalesce(P, Rule);
    if (!checkSolutionSound(P, R.Solution, InputGreedy, &Why))
      return fail(Error, std::string("conservative/") + ruleName(Rule) +
                             ": " + Why);
    if (InputGreedy) {
      if (R.Stats.CoalescedWeight > Exact.Stats.CoalescedWeight + Eps) {
        std::ostringstream OS;
        OS << "conservative/" << ruleName(Rule) << " coalesced weight "
           << R.Stats.CoalescedWeight << " exceeds the exact optimum "
           << Exact.Stats.CoalescedWeight << " (unsound merge)";
        return fail(Error, OS.str());
      }
      // Greedy-k-colorability implies k-colorability; double-check with the
      // independent exact search so a broken greedy checker cannot hide.
      Graph Quotient = buildCoalescedGraph(P.G, R.Solution);
      if (!exactKColoring(Quotient, P.K).Colorable) {
        std::ostringstream OS;
        OS << "conservative/" << ruleName(Rule)
           << " quotient is not exactly " << P.K << "-colorable";
        return fail(Error, OS.str());
      }
      WorstGap = std::max(
          WorstGap, Exact.Stats.CoalescedWeight - R.Stats.CoalescedWeight);
    }
  }

  // The Theorem 5 strategy may merge non-affinity chain vertices, so its
  // partition, under either chain rule, is compared against the
  // k-colorable (not greedy) optimum.
  unsigned Omega =
      P.G.numVertices() && isChordal(P.G) ? chordalCliqueNumber(P.G) : ~0u;
  if (Omega != ~0u && P.K >= Omega && P.K > 0) {
    ExactSearchResult ExactAny =
        exactCoalesceSearch(P, {ExactFeasibility::ExactColor});
    if (!ExactAny.Optimal)
      return fail(Error, "exact (non-greedy) search did not complete");
    for (ChordalChain Chain : {ChordalChain::Any, ChordalChain::FewestMerges}) {
      const char *Name =
          Chain == ChordalChain::Any ? "chordal-thm5" : "exact-chordal-dp";
      ChordalStrategyResult C = chordalCoalesce(P, Chain);
      if (!checkSolutionSound(P, C.Solution, /*RequireGreedy=*/true, &Why))
        return fail(Error, std::string(Name) + ": " + Why);
      if (C.Stats.CoalescedWeight > ExactAny.Stats.CoalescedWeight + Eps) {
        std::ostringstream OS;
        OS << Name << " coalesced weight " << C.Stats.CoalescedWeight
           << " exceeds the exact optimum " << ExactAny.Stats.CoalescedWeight
           << " (unsound merge)";
        return fail(Error, OS.str());
      }
    }
  }

  if (GapOut)
    *GapOut = WorstGap;
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 7: the exact baselines agree with brute force and bound everyone.
//===----------------------------------------------------------------------===//

BruteForceOptima testing::bruteForceOptima(const CoalescingProblem &P) {
  const unsigned N = P.G.numVertices();
  const size_t NumAff = P.Affinities.size();
  assert(NumAff <= BruteForceAffinityLimit &&
         "brute-force enumeration over too many affinities");
  BruteForceOptima Best;
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumAff); ++Mask) {
    UnionFind Classes(N);
    for (size_t A = 0; A < NumAff; ++A)
      if (Mask & (uint64_t(1) << A))
        Classes.merge(P.Affinities[A].U, P.Affinities[A].V);
    CoalescingSolution S;
    S.ClassIds = Classes.denseClassIds();
    S.NumClasses = Classes.numClasses();
    if (!isValidCoalescing(P.G, S))
      continue;
    double Weight = evaluateSolution(P, S).CoalescedWeight;
    Best.Any = std::max(Best.Any, Weight);
    Graph Q = buildCoalescedGraph(P.G, S);
    if (exactKColoring(Q, P.K).Colorable)
      Best.KColor = std::max(Best.KColor, Weight);
    if (isGreedyKColorable(Q, P.K))
      Best.Greedy = std::max(Best.Greedy, Weight);
  }
  return Best;
}

bool testing::checkExactGapSound(const CoalescingProblem &P,
                                 std::string *Error) {
  if (P.G.numVertices() > 12 ||
      P.Affinities.size() > BruteForceAffinityLimit)
    return fail(Error, "instance too large for the exact gap oracle");
  if (!isGreedyKColorable(P.G, P.K))
    return true; // The exact baselines are only defined at feasible pressure.
  const double Eps = 1e-6;
  std::string Why;

  // The branch and bound must reach the brute-force optimum in every
  // feasibility regime, with a partition that is sound for the regime.
  BruteForceOptima Brute = bruteForceOptima(P);
  struct Regime {
    ExactFeasibility Feasibility;
    double BruteOptimum;
  } Regimes[] = {{ExactFeasibility::Greedy, Brute.Greedy},
                 {ExactFeasibility::ExactColor, Brute.KColor},
                 {ExactFeasibility::Any, Brute.Any}};
  for (const Regime &R : Regimes) {
    std::string Name = exactFeasibilityName(R.Feasibility);
    ExactSearchResult BB = exactCoalesceSearch(P, {R.Feasibility});
    if (!BB.Optimal)
      return fail(Error,
                  "unlimited " + Name + " branch-and-bound did not complete");
    bool RequireGreedy = R.Feasibility == ExactFeasibility::Greedy;
    if (!checkSolutionSound(P, BB.Solution, RequireGreedy, &Why))
      return fail(Error, "exact " + Name + " search: " + Why);
    if (std::abs(BB.BestWeight - R.BruteOptimum) > Eps) {
      std::ostringstream OS;
      OS << Name << " optima disagree: branch-and-bound " << BB.BestWeight
         << " vs brute-force enumeration " << R.BruteOptimum;
      return fail(Error, OS.str());
    }
  }

  // The three feasibility spaces nest: greedy-k-colorable quotients are
  // k-colorable, and k-colorable partitions are in particular valid.
  if (Brute.Greedy > Brute.KColor + Eps)
    return fail(Error,
                "greedy optimum exceeds the kcolor optimum (smaller space)");
  if (Brute.KColor > Brute.Any + Eps)
    return fail(Error,
                "kcolor optimum exceeds the aggressive optimum");

  // Every registered strategy stays within the aggressive (Any) optimum;
  // every strategy except aggressive keeps a k-colorable quotient, so it
  // also stays within the kcolor optimum (the coalesced-affinity subset of
  // its partition is a refinement with a k-colorable quotient); and the
  // strategies that only merge affinity endpoints under conservative tests
  // stay within the Greedy optimum. The whitelist mirrors
  // withinAffinitySubsetSpace in runner/GapReport.cpp.
  auto InGreedySpace = [](const std::string &Name) {
    return Name == "briggs" || Name == "george" ||
           Name == "briggs+george" || Name == "brute-conservative" ||
           Name == "optimistic" || Name == "irc" || Name == "exact-bb";
  };
  for (const StrategyInfo &Info : StrategyRegistry::instance().strategies()) {
    CoalescingTelemetry T;
    StrategyContext Ctx(T);
    CoalescingSolution S = Info.Run(P, StrategyOptions(), Ctx);
    CoalescingStats Stats = evaluateSolution(P, S);
    if (Stats.CoalescedWeight > Brute.Any + Eps) {
      std::ostringstream OS;
      OS << Info.Name << " coalesced weight " << Stats.CoalescedWeight
         << " exceeds the exact aggressive optimum " << Brute.Any
         << " (merged interfering vertices)";
      return fail(Error, OS.str());
    }
    if (Info.Name != "aggressive" &&
        Stats.CoalescedWeight > Brute.KColor + Eps) {
      std::ostringstream OS;
      OS << Info.Name << " coalesced weight " << Stats.CoalescedWeight
         << " exceeds the exact k-colorable optimum " << Brute.KColor
         << " (unsound merge)";
      return fail(Error, OS.str());
    }
    if (InGreedySpace(Info.Name) &&
        Stats.CoalescedWeight > Brute.Greedy + Eps) {
      std::ostringstream OS;
      OS << Info.Name << " coalesced weight " << Stats.CoalescedWeight
         << " exceeds the exact greedy-feasibility optimum " << Brute.Greedy;
      return fail(Error, OS.str());
    }
  }

  // On chordal inputs at feasible pressure, the per-affinity incremental
  // decision has three independent implementations: BFS interval marking
  // (Theorem 5), the clique-tree DP, and equality-constrained exact
  // coloring. All three must agree on every affinity of the ORIGINAL graph.
  unsigned Omega =
      P.G.numVertices() && isChordal(P.G) ? chordalCliqueNumber(P.G) : ~0u;
  if (Omega == ~0u || P.K < Omega || P.K == 0)
    return true;
  for (const Affinity &A : P.Affinities) {
    if (A.U == A.V || P.G.hasEdge(A.U, A.V))
      continue;
    ChordalIncrementalResult Bfs =
        chordalIncrementalCoalescing(P.G, A.U, A.V, P.K);
    ChordalIncrementalResult Dp = chordalIncrementalDP(P.G, A.U, A.V, P.K);
    ExactColoringResult Exact =
        exactKColoringWithEquality(P.G, A.U, A.V, P.K);
    if (Exact.HitLimit)
      return fail(Error, "equality-constrained coloring hit its node limit");
    std::ostringstream Where;
    Where << "affinity (" << A.U << ", " << A.V << "): ";
    if (Bfs.Feasible != Exact.Colorable)
      return fail(Error, Where.str() +
                             "BFS feasibility disagrees with exact coloring");
    if (Dp.Feasible != Exact.Colorable)
      return fail(Error, Where.str() +
                             "DP feasibility disagrees with exact coloring");
    // The DP minimizes slack lexicographically first, so a gap-free BFS
    // chain implies a gap-free DP chain, and among gap-free chains the DP
    // merges no more real vertices than the BFS.
    if (Bfs.GapFree && !Dp.GapFree)
      return fail(Error, Where.str() +
                             "BFS found a gap-free chain the DP missed");
    if (Bfs.GapFree && Dp.GapFree &&
        Dp.MergedChain.size() > Bfs.MergedChain.size())
      return fail(Error, Where.str() + "DP chain merges more real vertices "
                                       "than the BFS chain");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 5: WorkGraph vs rebuild-from-scratch.
//===----------------------------------------------------------------------===//

bool testing::checkWorkGraphIncremental(const Graph &G, unsigned Steps,
                                        Rng &Rand, std::string *Error) {
  const unsigned N = G.numVertices();
  if (N < 2)
    return true;
  WorkGraph WG(G);
  UnionFind Oracle(N);

  auto classMembers = [&](unsigned X) {
    std::vector<unsigned> Members;
    for (unsigned W = 0; W < N; ++W)
      if (Oracle.connected(W, X))
        Members.push_back(W);
    return Members;
  };

  for (unsigned Step = 0; Step < Steps; ++Step) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U == V)
      continue;
    std::ostringstream Where;
    Where << "step " << Step << " pair (" << U << ", " << V << "): ";

    bool OracleSame = Oracle.connected(U, V);
    if (WG.sameClass(U, V) != OracleSame)
      return fail(Error, Where.str() + "sameClass diverged from rebuild");

    if (!OracleSame) {
      bool OracleInterfere = false;
      for (unsigned A : classMembers(U)) {
        for (unsigned B : classMembers(V))
          if (G.hasEdge(A, B)) {
            OracleInterfere = true;
            break;
          }
        if (OracleInterfere)
          break;
      }
      if (WG.interfere(U, V) != OracleInterfere)
        return fail(Error, Where.str() + "interfere diverged from rebuild");
      if (WG.canMerge(U, V) != !OracleInterfere)
        return fail(Error, Where.str() + "canMerge diverged from rebuild");
      if (!OracleInterfere) {
        WG.merge(U, V);
        Oracle.merge(U, V);
      }
    }

    if (Step % 8 != 0)
      continue;

    // Full rebuild: partition, quotient adjacency, and per-class degrees.
    if (WG.numClasses() != Oracle.numClasses())
      return fail(Error, Where.str() + "class count diverged from rebuild");
    CoalescingSolution S = WG.solution();
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = A + 1; B < N; ++B)
        if (S.merged(A, B) != Oracle.connected(A, B))
          return fail(Error, Where.str() + "partition diverged from rebuild");

    Graph Q = WG.quotientGraph();
    if (Q.numVertices() != S.NumClasses)
      return fail(Error, Where.str() + "quotient size mismatch");
    // Rebuild quotient adjacency by scanning all member pairs.
    std::vector<std::vector<unsigned>> ByClass(S.NumClasses);
    for (unsigned W = 0; W < N; ++W)
      ByClass[S.ClassIds[W]].push_back(W);
    for (unsigned C1 = 0; C1 < S.NumClasses; ++C1)
      for (unsigned C2 = C1 + 1; C2 < S.NumClasses; ++C2) {
        bool Expect = false;
        for (unsigned A : ByClass[C1]) {
          for (unsigned B : ByClass[C2])
            if (G.hasEdge(A, B)) {
              Expect = true;
              break;
            }
          if (Expect)
            break;
        }
        if (Q.hasEdge(C1, C2) != Expect)
          return fail(Error,
                      Where.str() + "quotient adjacency diverged from rebuild");
      }
    for (unsigned W = 0; W < N; ++W)
      if (WG.degree(W) != Q.degree(S.ClassIds[W]))
        return fail(Error, Where.str() + "degree diverged from quotient");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 6: checkpoint/rollback round-trips and dense-vs-sparse agreement.
//===----------------------------------------------------------------------===//

static bool sameGraph(const Graph &A, const Graph &B) {
  if (A.numVertices() != B.numVertices() || A.numEdges() != B.numEdges())
    return false;
  for (unsigned U = 0; U < A.numVertices(); ++U)
    for (unsigned V : A.neighbors(U))
      if (V > U && !B.hasEdge(U, V))
        return false;
  return true;
}

bool testing::checkWorkGraphRollback(const Graph &G, unsigned Steps,
                                     Rng &Rand, std::string *Error) {
  const unsigned N = G.numVertices();
  if (N < 2)
    return true;
  // The same operation sequence through both adjacency representations:
  // forced-dense (threshold above N) and forced-sparse (threshold 0). Both
  // must agree bit-for-bit, and every rollback must restore the partition
  // snapshotted at the matching checkpoint.
  WorkGraph Dense(G, /*DenseThreshold=*/N + 1);
  WorkGraph Sparse(G, /*DenseThreshold=*/0);
  CoalescingTelemetry T;
  Dense.attachTelemetry(&T);

  struct Snapshot {
    CoalescingSolution Solution;
    unsigned NumClasses;
  };
  std::vector<Snapshot> Stack;
  uint64_t RollbacksDone = 0;

  auto compareReps = [&](const char *Where) -> bool {
    if (Dense.numClasses() != Sparse.numClasses())
      return fail(Error, std::string(Where) +
                             ": dense and sparse class counts diverged");
    CoalescingSolution SD = Dense.solution();
    CoalescingSolution SS = Sparse.solution();
    if (SD.ClassIds != SS.ClassIds || SD.NumClasses != SS.NumClasses)
      return fail(Error, std::string(Where) +
                             ": dense and sparse partitions diverged");
    if (!sameGraph(Dense.quotientGraph(), Sparse.quotientGraph()))
      return fail(Error, std::string(Where) +
                             ": dense and sparse quotients diverged");
    return true;
  };

  for (unsigned Step = 0; Step < Steps; ++Step) {
    std::ostringstream Where;
    Where << "step " << Step;
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));

    if (U != V && !Dense.sameClass(U, V)) {
      if (Dense.interfere(U, V) != Sparse.interfere(U, V))
        return fail(Error,
                    Where.str() + ": dense and sparse interfere diverged");
      if (Dense.degree(U) != Sparse.degree(U))
        return fail(Error,
                    Where.str() + ": dense and sparse degree diverged");
    }

    bool WantRollback = !Stack.empty() && Rand.nextBelow(4) == 0;
    if (WantRollback) {
      Dense.rollback();
      Sparse.rollback();
      ++RollbacksDone;
      const Snapshot &Snap = Stack.back();
      CoalescingSolution Now = Dense.solution();
      if (Now.ClassIds != Snap.Solution.ClassIds ||
          Now.NumClasses != Snap.Solution.NumClasses ||
          Dense.numClasses() != Snap.NumClasses)
        return fail(Error, Where.str() +
                               ": rollback did not restore the checkpoint");
      Stack.pop_back();
      if (!compareReps(Where.str().c_str()))
        return false;
      continue;
    }

    if (U == V || !Dense.canMerge(U, V))
      continue;
    if (Rand.nextBelow(2) == 0) {
      Stack.push_back({Dense.solution(), Dense.numClasses()});
      Dense.checkpoint();
      Sparse.checkpoint();
    }
    Dense.merge(U, V);
    Sparse.merge(U, V);
    if (Step % 8 == 0 && !compareReps(Where.str().c_str()))
      return false;
  }

  // Unwind everything still open; each level must restore its snapshot.
  while (!Stack.empty()) {
    Dense.rollback();
    Sparse.rollback();
    ++RollbacksDone;
    const Snapshot &Snap = Stack.back();
    CoalescingSolution Now = Dense.solution();
    if (Now.ClassIds != Snap.Solution.ClassIds ||
        Now.NumClasses != Snap.Solution.NumClasses)
      return fail(Error, "final unwind did not restore its checkpoint");
    Stack.pop_back();
  }
  if (!compareReps("final state"))
    return false;

  if (T.Rollbacks != RollbacksDone || T.MergesRolledBack > T.Merges ||
      T.Rollbacks > T.Checkpoints)
    return fail(Error, "telemetry counters inconsistent with the op script");

  // The surviving state must match a from-scratch replay of the committed
  // merges (checkWorkGraphIncremental covers random scripts; this pins the
  // specific end state).
  WorkGraph Fresh(G);
  CoalescingSolution End = Dense.solution();
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B)
      if (End.ClassIds[A] == End.ClassIds[B] && !Fresh.sameClass(A, B))
        Fresh.merge(A, B);
  CoalescingSolution Replayed = Fresh.solution();
  if (Replayed.ClassIds != End.ClassIds)
    return fail(Error, "replaying the surviving merges diverged");
  return true;
}

bool testing::briggsOnQuotient(const Graph &Quotient, unsigned U, unsigned V,
                               unsigned K) {
  unsigned High = 0;
  for (unsigned X : Quotient.neighbors(U))
    if (X != V && Quotient.degree(X) - Quotient.hasEdge(V, X) >= K)
      ++High;
  for (unsigned X : Quotient.neighbors(V))
    if (X != U && !Quotient.hasEdge(U, X) && Quotient.degree(X) >= K)
      ++High;
  return High < K;
}

bool testing::georgeOnQuotient(const Graph &Quotient, unsigned U, unsigned V,
                               unsigned K) {
  for (unsigned X : Quotient.neighbors(U))
    if (X != V && Quotient.degree(X) >= K && !Quotient.hasEdge(V, X))
      return false;
  return true;
}

bool testing::checkSparseTiledParity(const Graph &G, unsigned K,
                                     unsigned Steps, Rng &Rand,
                                     std::string *Error) {
  const unsigned N = G.numVertices();
  if (N < 2 || K == 0)
    return true;
  // Three engines run the same script: Tiled answers every sparse sweep
  // through the tiles, Walk never tiles, Dense uses the bit rows. Class
  // representatives do not depend on the representation, so one class
  // pair names the same merge in all three.
  WorkGraph Tiled(G, /*DenseThreshold=*/0);
  WorkGraph Walk(G, /*DenseThreshold=*/0);
  WorkGraph Dense(G, /*DenseThreshold=*/N);
  Tiled.setTileMinDegree(0);
  Walk.setTileMinDegree(~0u);
  WorkGraph *Engines[] = {&Tiled, &Walk, &Dense};
  const char *Names[] = {"tiled", "walk", "dense"};
  for (WorkGraph *WG : Engines)
    WG->enableDegreeCache(K);

  unsigned OpenCheckpoints = 0;
  auto compareTests = [&](unsigned Step) -> bool {
    // The reference reads nothing but the quotient graph.
    const Graph Quotient = Tiled.quotientGraph();
    const std::vector<unsigned> Id = Tiled.solution().ClassIds;
    for (unsigned Probe = 0; Probe < 8; ++Probe) {
      unsigned CU = Tiled.classOf(static_cast<unsigned>(Rand.nextBelow(N)));
      unsigned CV = Tiled.classOf(static_cast<unsigned>(Rand.nextBelow(N)));
      if (CU == CV)
        continue;
      // Limits bracketing K exercise both the early-exit and the
      // full-sweep paths of the Briggs count. Tile minimum degree 0 builds
      // every row Tiled is asked about.
      unsigned Limit = 1 + static_cast<unsigned>(Rand.nextBelow(K + 2));
      if (!Tiled.tileRowReady(CU) || !Tiled.tileRowReady(CV))
        return fail(Error, "sparse-tiled-parity: tile row not built");
      bool TiledSays = Tiled.briggsHighDegreeBelowSparseTiled(CU, CV, Limit);
      bool WalkSays = Walk.briggsHighDegreeBelowSparseWalk(CU, CV, Limit);
      bool WalkOnTiled = Tiled.briggsHighDegreeBelowSparseWalk(CU, CV, Limit);
      if (TiledSays != WalkSays || TiledSays != WalkOnTiled) {
        std::ostringstream OS;
        OS << "sparse-tiled-parity: step " << Step << ": briggs(" << CU
           << "," << CV << ",limit=" << Limit << ") tiled=" << TiledSays
           << " walk=" << WalkSays << " walk-on-tiled=" << WalkOnTiled;
        return fail(Error, OS.str());
      }
      bool TiledGeorge = Tiled.georgeWitnessesEmptySparseTiled(CU, CV);
      bool WalkGeorge = Walk.georgeWitnessesEmptySparseWalk(CU, CV);
      bool WalkGeorgeOnTiled = Tiled.georgeWitnessesEmptySparseWalk(CU, CV);
      if (TiledGeorge != WalkGeorge || TiledGeorge != WalkGeorgeOnTiled) {
        std::ostringstream OS;
        OS << "sparse-tiled-parity: step " << Step << ": george(" << CU
           << "," << CV << ") tiled=" << TiledGeorge << " walk=" << WalkGeorge
           << " walk-on-tiled=" << WalkGeorgeOnTiled;
        return fail(Error, OS.str());
      }
      bool RefBriggs = briggsOnQuotient(Quotient, Id[CU], Id[CV], K);
      bool RefGeorge = georgeOnQuotient(Quotient, Id[CU], Id[CV], K);
      for (unsigned E = 0; E < 3; ++E) {
        bool Briggs = Engines[E]->briggsSafe(CU, CV);
        bool George = Engines[E]->georgeSafe(CU, CV);
        if (Briggs != RefBriggs || George != RefGeorge) {
          std::ostringstream OS;
          OS << "sparse-tiled-parity: step " << Step << ": " << Names[E]
             << " engine on (" << CU << "," << CV << ") says briggs="
             << Briggs << " george=" << George << ", the quotient says "
             << RefBriggs << "/" << RefGeorge;
          return fail(Error, OS.str());
        }
      }
    }
    return true;
  };

  for (unsigned Step = 0; Step < Steps; ++Step) {
    if (OpenCheckpoints && Rand.nextBelow(5) == 0) {
      for (WorkGraph *WG : Engines)
        WG->rollback();
      --OpenCheckpoints;
      if (!compareTests(Step))
        return false;
      continue;
    }
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U == V || !Tiled.canMerge(U, V)) {
      if (!compareTests(Step))
        return false;
      continue;
    }
    bool Checkpoint = Rand.nextBelow(3) == 0;
    if (Checkpoint)
      ++OpenCheckpoints;
    for (WorkGraph *WG : Engines) {
      if (Checkpoint)
        WG->checkpoint();
      WG->merge(U, V);
    }
    std::vector<unsigned> Ids = Tiled.solution().ClassIds;
    if (Ids != Walk.solution().ClassIds || Ids != Dense.solution().ClassIds ||
        Tiled.classOf(U) != Walk.classOf(U) ||
        Tiled.classOf(U) != Dense.classOf(U))
      return fail(Error, "sparse-tiled-parity: partitions diverged after a "
                         "mirrored merge");
    if (!compareTests(Step))
      return false;
  }

  // Unwind whatever is still open; frozen dead-loser tiles must revive
  // exactly.
  while (OpenCheckpoints) {
    for (WorkGraph *WG : Engines)
      WG->rollback();
    --OpenCheckpoints;
    if (!compareTests(Steps))
      return false;
  }
  return true;
}

bool testing::checkMergeColorabilityParity(const Graph &G, unsigned K,
                                           unsigned Steps, Rng &Rand,
                                           std::string *Error) {
  const unsigned N = G.numVertices();
  if (N < 2 || K == 0 || !isGreedyKColorable(G, K))
    return true;
  WorkGraph Dense(G, /*DenseThreshold=*/N + 1);
  WorkGraph Sparse(G, /*DenseThreshold=*/0);
  CoalescingTelemetry TD, TS;
  Dense.attachTelemetry(&TD);
  Sparse.attachTelemetry(&TS);
  Dense.enableDegreeCache(K);
  Sparse.enableDegreeCache(K);

  std::vector<unsigned> LocalStuck, FullStuck;
  uint64_t Probes = 0;
  // Returns the probe's decision, or -1 after reporting a mismatch.
  auto probe = [&](WorkGraph &WG, const char *Mode, unsigned Step,
                   unsigned U, unsigned V) -> int {
    WG.checkpoint();
    unsigned C = WG.merge(U, V);
    bool Local = WG.mergedQuotientGreedyKColorable(C, K, &LocalStuck);
    bool Full = WG.quotientGreedyKColorable(K, &FullStuck);
    if (Local != Full || LocalStuck != FullStuck) {
      std::ostringstream OS;
      OS << "merge-colorability-parity: " << Mode << " step " << Step
         << ": merge(" << U << "," << V << ") at k=" << K
         << " local=" << Local << " (" << LocalStuck.size()
         << " stuck) full=" << Full << " (" << FullStuck.size()
         << " stuck)";
      fail(Error, OS.str());
      return -1;
    }
    if (Full)
      WG.commit();
    else
      WG.rollback();
    return Full;
  };

  for (unsigned Step = 0; Step < Steps; ++Step) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U == V || !Dense.canMerge(U, V))
      continue;
    int D = probe(Dense, "dense", Step, U, V);
    if (D < 0)
      return false;
    int S = probe(Sparse, "sparse", Step, U, V);
    if (S < 0)
      return false;
    if (D != S)
      return fail(Error, "merge-colorability-parity: dense and sparse "
                         "engines decided a probe differently");
    ++Probes;
  }
  if (TD.ColorabilityChecks != 2 * Probes ||
      TS.ColorabilityChecks != 2 * Probes)
    return fail(Error, "merge-colorability-parity: colorability checks "
                       "not counted once per call");
  return true;
}

bool testing::checkOrderInvariance(const CoalescingProblem &P, Rng &Rand,
                                   std::string *Error) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned U = 0; U < P.G.numVertices(); ++U)
    for (unsigned V : P.G.neighbors(U))
      if (U < V)
        Edges.push_back({V, U});
  auto rebuilt = [&P, &Edges] {
    CoalescingProblem Q = P;
    GraphBuilder B(P.G.numVertices());
    for (auto [U, V] : Edges)
      B.addEdge(U, V);
    Q.G = std::move(B).build();
    return Q;
  };
  std::vector<std::pair<const char *, CoalescingProblem>> Variants;
  std::reverse(Edges.begin(), Edges.end());
  Variants.emplace_back("reversed edge order", rebuilt());
  for (size_t I = Edges.size(); I > 1; --I)
    std::swap(Edges[I - 1], Edges[Rand.nextBelow(I)]);
  Variants.emplace_back("shuffled edge order", rebuilt());
  std::string ReadError;
  std::ostringstream Text, Binary;
  writeChallenge(Text, P);
  writeChallengeBinary(Binary, P);
  for (auto [Name, Bytes] : {std::pair{"text round trip", Text.str()},
                             std::pair{"RCBF round trip", Binary.str()}}) {
    std::istringstream In(Bytes);
    CoalescingProblem Q;
    if (!readChallengeAuto(In, Q, &ReadError))
      return fail(Error, std::string("order-invariance: ") + Name +
                             " failed to read: " + ReadError);
    Variants.emplace_back(Name, std::move(Q));
  }

  auto outcomeBytes = [](const CoalescingProblem &Q,
                         const StrategyInfo &Info) {
    RunRequest Request;
    Request.Problem = &Q;
    Request.Strategy = &Info;
    std::ostringstream OS;
    writeOutcomeJson(OS, runStrategy(Request).Outcome,
                     /*IncludeTiming=*/false);
    return OS.str();
  };
  for (const StrategyInfo &Info : StrategyRegistry::instance().strategies()) {
    std::string Want = outcomeBytes(P, Info);
    for (const auto &[Name, Q] : Variants)
      if (outcomeBytes(Q, Info) != Want)
        return fail(Error, "order-invariance: " + Info.Name + ": " + Name +
                               " changes the outcome");
  }
  return true;
}
