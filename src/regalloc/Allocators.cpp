//===- regalloc/Allocators.cpp - End-to-end register allocation -----------===//

#include "regalloc/Allocators.h"

#include "coalescing/BiasedColoring.h"
#include "coalescing/Conservative.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "coalescing/Spilling.h"
#include "ir/InterferenceBuilder.h"
#include "ir/OutOfSsa.h"
#include "regalloc/RegisterRewriter.h"
#include "regalloc/SpillRewriter.h"

using namespace rc;
using namespace rc::regalloc;
using namespace rc::ir;

/// Lowers phis if any are present (idempotent on phi-free code).
static void ensurePhiFree(Function &F) {
  for (BlockId B = 0; B < F.numBlocks(); ++B)
    if (!F.block(B).Phis.empty()) {
      lowerOutOfSsa(F);
      return;
    }
}

AllocationResult regalloc::allocateChaitinIrc(Function F, unsigned K,
                                              unsigned MaxIterations) {
  assert(K >= 3 && "spill-everywhere temporaries need at least 3 registers");
  ensurePhiFree(F);

  AllocationResult Result;
  int64_t NextSlot = 0;
  // Spill temporaries must never be re-spilled (that would loop forever);
  // give them an effectively infinite cost.
  std::vector<double> Costs(F.numValues(), 1.0);
  constexpr double TempCost = 1e12;
  while (Result.Iterations < MaxIterations) {
    ++Result.Iterations;
    InterferenceGraph IG =
        buildInterferenceGraph(F, InterferenceMode::Chaitin);
    CoalescingProblem P;
    P.G = std::move(IG.G);
    P.Affinities = std::move(IG.Affinities);
    P.K = K;

    IrcOptions Options;
    Options.SpillCosts = Costs;
    IrcResult Irc = iteratedRegisterCoalescing(P, Options);
    if (Irc.Spilled.empty()) {
      RegisterRewriteResult RR = rewriteToRegisters(F, Irc.Colors, K);
      Result.Success = true;
      Result.Allocated = std::move(RR.Rewritten);
      Result.MovesRemoved = RR.MovesRemoved;
      Result.MovesRemaining = RR.MovesRemaining;
      return Result;
    }
    SpillRewriteStats Stats = spillEverywhere(F, Irc.Spilled, NextSlot);
    NextSlot += Stats.SlotsUsed;
    Result.SpilledValues += Stats.SlotsUsed;
    Result.LoadsInserted += Stats.LoadsInserted;
    Result.StoresInserted += Stats.StoresInserted;
    Costs.resize(F.numValues(), TempCost); // New values are spill temps.
  }
  return Result; // Iteration budget exhausted.
}

AllocationResult regalloc::allocateTwoPhase(Function F, unsigned K,
                                            unsigned MaxIterations) {
  assert(K >= 3 && "spill-everywhere temporaries need at least 3 registers");
  ensurePhiFree(F);

  AllocationResult Result;
  int64_t NextSlot = 0;
  std::vector<double> Costs(F.numValues(), 1.0);
  constexpr double TempCost = 1e12;

  // Phase 1: spill whole values until the graph is greedy-k-colorable.
  // The round that spills nothing leaves F unchanged, so its graph is the
  // one phase 2 coalesces.
  InterferenceGraph IG;
  for (;;) {
    if (++Result.Iterations > MaxIterations)
      return Result; // Budget exhausted; Success stays false.
    IG = buildInterferenceGraph(F, InterferenceMode::Chaitin);
    SpillResult Spill = spillToGreedyK(IG.G, K, Costs);
    if (Spill.Spilled.empty())
      break;
    SpillRewriteStats Stats = spillEverywhere(F, Spill.Spilled, NextSlot);
    NextSlot += Stats.SlotsUsed;
    Result.SpilledValues += Stats.SlotsUsed;
    Result.LoadsInserted += Stats.LoadsInserted;
    Result.StoresInserted += Stats.StoresInserted;
    Costs.resize(F.numValues(), TempCost); // New values are spill temps.
  }

  // Phase 2: coalesce conservatively (merge-and-check), then color with
  // affinity bias. No spills can occur here.
  CoalescingProblem P;
  P.G = std::move(IG.G);
  P.Affinities = std::move(IG.Affinities);
  P.K = K;
  ConservativeResult Cons =
      conservativeCoalesce(P, ConservativeRule::BruteForce);

  CoalescingProblem Quotient;
  Quotient.G = buildCoalescedGraph(P.G, Cons.Solution);
  Quotient.K = K;
  for (const Affinity &A : P.Affinities) {
    unsigned CU = Cons.Solution.ClassIds[A.U];
    unsigned CV = Cons.Solution.ClassIds[A.V];
    if (CU != CV && !Quotient.G.hasEdge(CU, CV))
      Quotient.Affinities.push_back({CU, CV, A.Weight});
  }
  BiasedColoringResult Biased = biasedColoring(Quotient);

  Coloring Colors(F.numValues());
  for (unsigned V = 0; V < F.numValues(); ++V)
    Colors[V] = Biased.Colors[Cons.Solution.ClassIds[V]];

  RegisterRewriteResult RR = rewriteToRegisters(F, Colors, K);
  Result.Success = true;
  Result.Allocated = std::move(RR.Rewritten);
  Result.MovesRemoved = RR.MovesRemoved;
  Result.MovesRemaining = RR.MovesRemaining;
  return Result;
}
