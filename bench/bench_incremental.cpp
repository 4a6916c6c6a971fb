//===- bench/bench_incremental.cpp - E7: Theorem 5 polynomial case -----------===//
//
// Experiment E7: incremental conservative coalescing on chordal graphs.
// The Theorem 5 algorithm scales polynomially; the exact constrained
// coloring (the only tool on arbitrary graphs, Theorem 4) is exponential.
// An agreement certificate is reported for the sizes where both run.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/ChordalIncremental.h"
#include "coalescing/ChordalStrategy.h"
#include "graph/Chordal.h"
#include "graph/ExactColoring.h"

#include <benchmark/benchmark.h>

using namespace rc;

namespace {

struct Instance {
  Graph G;
  unsigned X = 0, Y = 0, K = 0;
};

Instance makeInstance(unsigned N, uint64_t Seed) {
  Instance I;
  I.G = bench::makeChordalGraph(N, Seed);
  I.K = chordalCliqueNumber(I.G);
  // First non-adjacent pair in different cliques.
  for (unsigned U = 0; U < N; ++U)
    for (unsigned V = U + 1; V < N; ++V)
      if (!I.G.hasEdge(U, V)) {
        I.X = U;
        I.Y = V;
        return I;
      }
  return I;
}

} // namespace

static void BM_Theorem5Decision(benchmark::State &State) {
  Instance I = makeInstance(static_cast<unsigned>(State.range(0)), 51);
  bool Feasible = false;
  for (auto _ : State) {
    ChordalIncrementalResult R =
        chordalIncrementalCoalescing(I.G, I.X, I.Y, I.K);
    Feasible = R.Feasible;
    benchmark::DoNotOptimize(Feasible);
  }
  State.counters["feasible"] = Feasible ? 1 : 0;
  State.counters["omega"] = I.K;
}
BENCHMARK(BM_Theorem5Decision)->Range(32, 4096);

static void BM_ExactConstrainedColoring(benchmark::State &State) {
  Instance I = makeInstance(static_cast<unsigned>(State.range(0)), 51);
  uint64_t Nodes = 0;
  for (auto _ : State) {
    ExactColoringResult R =
        exactKColoringWithEquality(I.G, I.X, I.Y, I.K);
    Nodes = R.NodesExplored;
    benchmark::DoNotOptimize(R.Colorable);
  }
  State.counters["search_nodes"] = static_cast<double>(Nodes);
}
BENCHMARK(BM_ExactConstrainedColoring)->Range(32, 256);

static void BM_Theorem5AgreementCertificate(benchmark::State &State) {
  // Both solvers on every non-edge of a small chordal graph; counts
  // disagreements (must be 0).
  Rng Rand(52);
  unsigned Disagreements = 0, Pairs = 0;
  for (auto _ : State) {
    Graph G = randomChordalGraph(14, 8, 3, Rand);
    unsigned K = chordalCliqueNumber(G);
    if (K == 0)
      continue;
    for (unsigned U = 0; U < G.numVertices(); ++U)
      for (unsigned V = U + 1; V < G.numVertices(); ++V) {
        if (G.hasEdge(U, V))
          continue;
        ++Pairs;
        bool Fast = chordalIncrementalCoalescing(G, U, V, K).Feasible;
        bool Slow = exactKColoringWithEquality(G, U, V, K).Colorable;
        Disagreements += Fast != Slow;
      }
  }
  State.counters["pairs"] = Pairs;
  State.counters["disagreements"] = Disagreements; // Must be 0.
}
BENCHMARK(BM_Theorem5AgreementCertificate)->Iterations(20);

// range(1) picks the chain rule: 0 = ChordalChain::Any (chordal-thm5),
// 1 = ChordalChain::FewestMerges (exact-chordal-dp).
static void BM_ChordalStrategyEndToEnd(benchmark::State &State) {
  Rng Rand(53);
  unsigned N = static_cast<unsigned>(State.range(0));
  ChordalChain Chain =
      State.range(1) ? ChordalChain::FewestMerges : ChordalChain::Any;
  CoalescingProblem P;
  P.G = randomChordalGraph(N, N / 2, 4, Rand);
  P.K = chordalCliqueNumber(P.G);
  for (unsigned A = 0; A < N; ++A) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U != V && !P.G.hasEdge(U, V))
      P.Affinities.push_back({U, V, 1.0});
  }
  unsigned Coalesced = 0;
  for (auto _ : State) {
    ChordalStrategyResult R = chordalCoalesce(P, Chain);
    Coalesced = R.Stats.CoalescedAffinities;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
}
BENCHMARK(BM_ChordalStrategyEndToEnd)
    ->ArgsProduct({benchmark::CreateRange(32, 512, 8), {0, 1}});
