//===- bench/bench_conservative.cpp - E5: conservative coalescing ------------===//
//
// Experiment E5: the conservative rules of Section 4 on challenge instances.
// Reports coalesced counts per rule (Briggs <= Briggs+George <= brute force)
// and the cost of each test, plus the Theorem 3 exact search shape.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "graph/ExactColoring.h"
#include "npc/Theorem3Reduction.h"
#include "testing/LegacyConservative.h"

#include <benchmark/benchmark.h>

using namespace rc;

template <ConservativeRule Rule>
static void BM_ConservativeRule(benchmark::State &State) {
  CoalescingProblem P = bench::makeChallengeProblem(
      static_cast<unsigned>(State.range(0)), 41);
  unsigned Coalesced = 0;
  for (auto _ : State) {
    ConservativeResult R = conservativeCoalesce(P, Rule);
    Coalesced = R.Stats.CoalescedAffinities;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
}
BENCHMARK(BM_ConservativeRule<ConservativeRule::Briggs>)->Range(64, 2048);

// The retired fixpoint driver, kept as the differential-testing reference;
// benchmarked so the worklist driver's speedup stays visible (and honest).
template <ConservativeRule Rule>
static void BM_ConservativeLegacy(benchmark::State &State) {
  CoalescingProblem P = bench::makeChallengeProblem(
      static_cast<unsigned>(State.range(0)), 41);
  unsigned Coalesced = 0;
  for (auto _ : State) {
    ConservativeResult R = testing::conservativeCoalesceLegacy(P, Rule);
    Coalesced = R.Stats.CoalescedAffinities;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
}
BENCHMARK(BM_ConservativeLegacy<ConservativeRule::Briggs>)->Range(64, 2048);

BENCHMARK(BM_ConservativeRule<ConservativeRule::George>)->Range(64, 2048);
BENCHMARK(BM_ConservativeRule<ConservativeRule::BriggsOrGeorge>)
    ->Range(64, 2048);
// 8192 is past WorkGraph's dense threshold (4096), so the last row times
// the sparse engine's brute-force probes.
BENCHMARK(BM_ConservativeRule<ConservativeRule::BruteForce>)
    ->Range(64, 2048)
    ->Arg(8192);

// The Theorem 5 driver on perfbench sweep-dense's n = 256 shape (subtree,
// pressure slack 2, affinity fraction 0.5): one clique tree per committed
// quotient, so the row follows the per-commit PEO and tree work.
template <ChordalChain Chain>
static void BM_ChordalCoalesce(benchmark::State &State) {
  CoalescingProblem P = bench::makeChallengeProblem(
      static_cast<unsigned>(State.range(0)), 41, 2, 0.5);
  unsigned Coalesced = 0, ChainMerges = 0;
  for (auto _ : State) {
    ChordalStrategyResult R = chordalCoalesce(P, Chain);
    Coalesced = R.Stats.CoalescedAffinities;
    ChainMerges = R.ChainMerges;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["chain_merges"] = ChainMerges;
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
}
BENCHMARK(BM_ChordalCoalesce<ChordalChain::Any>)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChordalCoalesce<ChordalChain::FewestMerges>)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

static void BM_Theorem3ExactSearch(benchmark::State &State) {
  // Exponential: optimal conservative coalescing on the k-colorability
  // reduction, growing the source graph.
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph H = bench::makeDenseGraph(N, 42);
  Theorem3Reduction R = Theorem3Reduction::build(H, 3);
  uint64_t Nodes = 0;
  bool AllCoalesced = false;
  for (auto _ : State) {
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::ExactColor});
    Nodes = Exact.NodesExplored;
    AllCoalesced = Exact.Stats.UncoalescedAffinities == 0;
    benchmark::DoNotOptimize(Nodes);
  }
  State.counters["search_nodes"] = static_cast<double>(Nodes);
  State.counters["thm3_match"] =
      AllCoalesced == exactKColoring(H, 3).Colorable ? 1 : 0;
}
BENCHMARK(BM_Theorem3ExactSearch)->DenseRange(4, 7, 1);
