//===- bench/bench_scaling.cpp - E12: polynomial vs exponential --------------===//
//
// Experiment E12: the complexity classification itself, measured. The
// polynomial algorithms (greedy elimination, MCS, Theorem 5) grow smoothly
// with n; the exact solvers for the NP-complete problems (k-coloring,
// aggressive optimum, de-coalescing optimum) blow up on the same families.
//
// The BM_Scale* group runs at 10^5..10^6 vertices: GraphBuilder's freeze
// and the scalable coalescing heuristics on WorkGraph's sparse,
// arena-backed CSR adjacency. Each runs a single iteration (these are
// scaling records, not microbenchmarks); edge/affinity counters in the
// output let the recorded BENCH_scaling.json show time per edge. It does
// not stay flat: the recorded BM_ScaleConservativeBriggs (one thread on a
// 2.1 GHz vCPU) takes 435 ms for 1.06M edges and 12.0 s for 16.9M, 28x
// the time for 16x the edges. Attributing that superlinear term to a
// phase is the ROADMAP's layer-by-layer timing item.
// tools/bench_baseline.sh scaling records them.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "challenge/ChallengeBinary.h"
#include "coalescing/ChordalIncremental.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "graph/Chordal.h"
#include "graph/ExactColoring.h"
#include "graph/GreedyColorability.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

using namespace rc;

// --- Polynomial side --------------------------------------------------------

static void BM_PolyGreedyElimination(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeSparseGraph(N, 10.0, 71);
  for (auto _ : State)
    benchmark::DoNotOptimize(greedyEliminate(G, 6).Success);
}
BENCHMARK(BM_PolyGreedyElimination)->RangeMultiplier(4)->Range(64, 16384);

static void BM_PolyTheorem5(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeChordalGraph(N, 72);
  unsigned K = chordalCliqueNumber(G);
  unsigned X = 0, Y = 0;
  for (unsigned U = 0; U < N && Y == 0; ++U)
    for (unsigned V = U + 1; V < N; ++V)
      if (!G.hasEdge(U, V)) {
        X = U;
        Y = V;
        break;
      }
  for (auto _ : State)
    benchmark::DoNotOptimize(
        chordalIncrementalCoalescing(G, X, Y, K).Feasible);
}
BENCHMARK(BM_PolyTheorem5)->RangeMultiplier(4)->Range(64, 4096);

// --- Exponential side -------------------------------------------------------

static void BM_ExpChromaticNumber(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeDenseGraph(N, 73);
  uint64_t Nodes = 0;
  for (auto _ : State) {
    unsigned Chi = chromaticNumber(G);
    ExactColoringResult R = exactKColoring(G, Chi - 1);
    Nodes = R.NodesExplored;
    benchmark::DoNotOptimize(Chi);
  }
  State.counters["refutation_nodes"] = static_cast<double>(Nodes);
}
BENCHMARK(BM_ExpChromaticNumber)->DenseRange(10, 30, 5);

// --- Scale side: arena-backed CSR at 10^5..10^6 vertices --------------------

static void BM_ScaleChordalBuild(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  uint64_t Edges = 0;
  for (auto _ : State) {
    Graph G = bench::makeChordalGraph(N, 75);
    Edges = G.numEdges();
    benchmark::DoNotOptimize(Edges);
  }
  State.counters["vertices"] = static_cast<double>(N);
  State.counters["edges"] = static_cast<double>(Edges);
}
BENCHMARK(BM_ScaleChordalBuild)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_ScaleSparseBuild(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  uint64_t Edges = 0;
  for (auto _ : State) {
    Rng Rand(76);
    Graph G = randomSparseGraph(N, 8.0, Rand);
    Edges = G.numEdges();
    benchmark::DoNotOptimize(Edges);
  }
  State.counters["vertices"] = static_cast<double>(N);
  State.counters["edges"] = static_cast<double>(Edges);
}
BENCHMARK(BM_ScaleSparseBuild)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_ScaleConservativeBriggs(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  // Generation is measured by BM_ScaleChordalBuild; keep it out of the
  // timed region here.
  CoalescingProblem P = bench::makeChallengeProblem(N, 77, /*Slack=*/2);
  for (auto _ : State) {
    ConservativeResult R = conservativeCoalesce(P, ConservativeRule::Briggs);
    benchmark::DoNotOptimize(R.Solution.NumClasses);
  }
  State.counters["vertices"] = static_cast<double>(N);
  State.counters["edges"] = static_cast<double>(P.G.numEdges());
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
}
BENCHMARK(BM_ScaleConservativeBriggs)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Instance loading at scale: the same challenge instance (seed 77, the
// one BM_ScaleConservativeBriggs coalesces) serialized once to RCBF, then
// read back through the zero-copy mmap path vs the buffered fallback. The
// mapped/buffered ratio is the point of the pair; both parse into the same
// bulk CSR build.
static void runScaleLoadBinary(benchmark::State &State, MappedFile::Mode M) {
  unsigned N = static_cast<unsigned>(State.range(0));
  CoalescingProblem P = bench::makeChallengeProblem(N, 77, /*Slack=*/2);
  std::string Path = "/tmp/rc_bench_load_" + std::to_string(::getpid()) +
                     "_" + std::to_string(N) + ".rcb";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    writeChallengeBinary(Out, P);
    Out.flush();
    if (!Out) {
      State.SkipWithError("cannot write the instance file");
      return;
    }
  }
  for (auto _ : State) {
    CoalescingProblem Q;
    std::string Error;
    if (!readChallengeFile(Path, Q, &Error, M)) {
      State.SkipWithError(Error.c_str());
      break;
    }
    benchmark::DoNotOptimize(Q.G.numEdges());
  }
  std::remove(Path.c_str());
  State.counters["vertices"] = static_cast<double>(N);
  State.counters["edges"] = static_cast<double>(P.G.numEdges());
  State.counters["affinities"] = static_cast<double>(P.Affinities.size());
}

static void BM_ScaleLoadBinaryMapped(benchmark::State &State) {
  runScaleLoadBinary(State, MappedFile::Mode::Auto);
}
BENCHMARK(BM_ScaleLoadBinaryMapped)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_ScaleLoadBinaryBuffered(benchmark::State &State) {
  runScaleLoadBinary(State, MappedFile::Mode::Buffered);
}
BENCHMARK(BM_ScaleLoadBinaryBuffered)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_ScaleGreedyElimination(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Graph G = bench::makeChordalGraph(N, 78);
  for (auto _ : State)
    benchmark::DoNotOptimize(greedyEliminate(G, 8).Success);
  State.counters["vertices"] = static_cast<double>(N);
  State.counters["edges"] = static_cast<double>(G.numEdges());
}
BENCHMARK(BM_ScaleGreedyElimination)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_ExpAggressiveOptimum(benchmark::State &State) {
  Rng Rand(74);
  unsigned NumAffinities = static_cast<unsigned>(State.range(0));
  CoalescingProblem P;
  P.G = randomGraph(20, 0.35, Rand);
  while (P.Affinities.size() < NumAffinities) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(20));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(20));
    if (U != V && !P.G.hasEdge(U, V))
      P.Affinities.push_back(
          {U, V, 1.0 + static_cast<double>(Rand.nextBelow(3))});
  }
  uint64_t Nodes = 0;
  for (auto _ : State) {
    ExactSearchResult R = exactCoalesceSearch(P, {ExactFeasibility::Any});
    Nodes = R.NodesExplored;
    benchmark::DoNotOptimize(R.Stats.CoalescedAffinities);
  }
  State.counters["search_nodes"] = static_cast<double>(Nodes);
}
BENCHMARK(BM_ExpAggressiveOptimum)->DenseRange(8, 20, 4);
