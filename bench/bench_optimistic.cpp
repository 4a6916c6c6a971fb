//===- bench/bench_optimistic.cpp - E8: optimistic coalescing ----------------===//
//
// Experiment E8: the Theorem 6 landscape. The Park-Moon-style heuristic
// scales; exact de-coalescing on the vertex-cover gadgets is exponential and
// its optimum equals the minimum vertex cover (certificate reported).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/ExactSearch.h"
#include "coalescing/Optimistic.h"
#include "npc/Theorem6Reduction.h"
#include "npc/VertexCover.h"

#include <benchmark/benchmark.h>

using namespace rc;

static void BM_OptimisticHeuristic(benchmark::State &State) {
  CoalescingProblem P = bench::makeChallengeProblem(
      static_cast<unsigned>(State.range(0)), 61);
  unsigned Dissolutions = 0;
  double Ratio = 0;
  for (auto _ : State) {
    OptimisticResult R = optimisticCoalesce(P);
    Dissolutions = R.Dissolutions;
    Ratio = R.Stats.CoalescedWeight / std::max(1.0, totalAffinityWeight(P));
    benchmark::DoNotOptimize(R.Solution.NumClasses);
  }
  State.counters["dissolutions"] = Dissolutions;
  State.counters["coalesced_ratio"] = Ratio;
}
BENCHMARK(BM_OptimisticHeuristic)->Range(64, 2048);

static void BM_ExactDeCoalescingOnTheorem6(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeBoundedDegreeGraph(N, 62);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  uint64_t Nodes = 0;
  unsigned Given = 0;
  for (auto _ : State) {
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::Greedy});
    Nodes = Exact.NodesExplored;
    Given = Exact.Stats.UncoalescedAffinities;
    benchmark::DoNotOptimize(Nodes);
  }
  VertexCoverResult Cover = solveVertexCoverExact(G);
  State.counters["search_nodes"] = static_cast<double>(Nodes);
  State.counters["given_up"] = Given;
  State.counters["min_vertex_cover"] = Cover.Size;
  State.counters["thm6_match"] = Given == Cover.Size ? 1 : 0;
}
BENCHMARK(BM_ExactDeCoalescingOnTheorem6)->DenseRange(3, 8, 1);

static void BM_OptimisticOnTheorem6Gadgets(benchmark::State &State) {
  // The heuristic on the adversarial gadgets: reports its cost against the
  // optimum (min vertex cover).
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeBoundedDegreeGraph(N, 63);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  unsigned Given = 0;
  for (auto _ : State) {
    OptimisticResult H = optimisticCoalesce(R.Problem);
    Given = H.Stats.UncoalescedAffinities;
    benchmark::DoNotOptimize(Given);
  }
  State.counters["heuristic_given_up"] = Given;
  State.counters["min_vertex_cover"] = solveVertexCoverExact(G).Size;
}
BENCHMARK(BM_OptimisticOnTheorem6Gadgets)->DenseRange(4, 12, 2);
