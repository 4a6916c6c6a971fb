//===- bench/bench_aggressive.cpp - E4: aggressive coalescing ----------------===//
//
// Experiment E4: the Theorem 2 landscape. The greedy heuristic scales
// near-linearly on challenge instances while the exact search over the
// multiway-cut reduction grows exponentially; on small instances the exact
// optimum equals the exact minimum multiway cut (also reported).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/Aggressive.h"
#include "coalescing/ExactSearch.h"
#include "npc/MultiwayCut.h"
#include "npc/Theorem2Reduction.h"

#include <benchmark/benchmark.h>

using namespace rc;

static void BM_AggressiveGreedy(benchmark::State &State) {
  CoalescingProblem P = bench::makeChallengeProblem(
      static_cast<unsigned>(State.range(0)), 31);
  double Ratio = 0;
  for (auto _ : State) {
    AggressiveResult R = aggressiveCoalesceGreedy(P);
    Ratio = R.Stats.CoalescedWeight /
            std::max(1.0, R.Stats.CoalescedWeight +
                              R.Stats.UncoalescedWeight);
    benchmark::DoNotOptimize(R.Solution.NumClasses);
  }
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
  State.counters["coalesced_ratio"] = Ratio;
}
BENCHMARK(BM_AggressiveGreedy)->Range(64, 8192);

static void BM_AggressiveExactOnTheorem2(benchmark::State &State) {
  // Exponential shape: exact aggressive coalescing on multiway-cut
  // reductions with a growing number of edges.
  Rng Rand(32);
  unsigned N = static_cast<unsigned>(State.range(0));
  MultiwayCutInstance Instance = randomMultiwayCutInstance(N, 0.5, 3, Rand);
  Theorem2Reduction R = Theorem2Reduction::build(Instance);
  uint64_t Nodes = 0;
  unsigned Uncoalesced = 0;
  for (auto _ : State) {
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::Any});
    Nodes = Exact.NodesExplored;
    Uncoalesced = Exact.Stats.UncoalescedAffinities;
    benchmark::DoNotOptimize(Nodes);
  }
  // Equivalence certificate (Theorem 2): equals the exact multiway cut.
  MultiwayCutResult Cut = solveMultiwayCutExact(Instance);
  State.counters["search_nodes"] = static_cast<double>(Nodes);
  State.counters["uncoalesced"] = Uncoalesced;
  State.counters["multiway_cut"] = Cut.CutSize;
  State.counters["thm2_match"] = Uncoalesced == Cut.CutSize ? 1 : 0;
}
BENCHMARK(BM_AggressiveExactOnTheorem2)->DenseRange(4, 8, 1);

static void BM_GreedyVsExactGap(benchmark::State &State) {
  // How much the weight-greedy heuristic loses against the optimum on
  // small random instances (aggregated gap reported as a counter).
  Rng Rand(33);
  double GreedyTotal = 0, ExactTotal = 0;
  for (auto _ : State) {
    CoalescingProblem P;
    GraphBuilder G(10);
    for (int E = 0; E < 8; ++E) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(10));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(10));
      if (U != V)
        G.addEdge(U, V);
    }
    P.G = std::move(G).build();
    for (int A = 0; A < 10; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(10));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(10));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back(
            {U, V, 1.0 + static_cast<double>(Rand.nextBelow(5))});
    }
    GreedyTotal += aggressiveCoalesceGreedy(P).Stats.CoalescedWeight;
    ExactTotal += exactCoalesceSearch(P, {ExactFeasibility::Any})
                      .Stats.CoalescedWeight;
  }
  if (ExactTotal > 0)
    State.counters["greedy_over_exact"] = GreedyTotal / ExactTotal;
}
BENCHMARK(BM_GreedyVsExactGap)->Iterations(50);
