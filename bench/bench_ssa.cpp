//===- bench/bench_ssa.cpp - E1: Theorem 1 pipeline --------------------------===//
//
// Experiment E1 (DESIGN.md): interference graphs of strict SSA programs.
// Regenerates the Theorem 1 facts at scale: the graphs are chordal and
// omega(G) == Maxlive, while measuring the cost of liveness + interference
// construction and of the chordality certificate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Chordal.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Verifier.h"

#include <benchmark/benchmark.h>

using namespace rc;
using namespace rc::ir;

static Function makeFunction(unsigned NumBlocks, uint64_t Seed) {
  return bench::makeSsaFunction(NumBlocks, Seed, bench::denseSsaKnobs());
}

static void BM_BuildInterferenceGraph(benchmark::State &State) {
  Function F = makeFunction(static_cast<unsigned>(State.range(0)), 42);
  unsigned Values = F.numValues();
  for (auto _ : State) {
    InterferenceGraph IG = buildInterferenceGraph(F);
    benchmark::DoNotOptimize(IG.G.numEdges());
  }
  State.counters["values"] = Values;
}
BENCHMARK(BM_BuildInterferenceGraph)->Range(8, 512);

static void BM_Theorem1Certificate(benchmark::State &State) {
  Function F = makeFunction(static_cast<unsigned>(State.range(0)), 43);
  InterferenceGraph IG = buildInterferenceGraph(F);
  unsigned Maxlive = computeMaxlive(F);
  bool Chordal = true;
  bool OmegaMatches = true;
  for (auto _ : State) {
    Chordal = isChordal(IG.G);
    OmegaMatches = chordalCliqueNumber(IG.G) == Maxlive;
    benchmark::DoNotOptimize(Chordal);
  }
  // Theorem 1, reported as counters: both must be 1 on every run.
  State.counters["chordal"] = Chordal ? 1 : 0;
  State.counters["omega_eq_maxlive"] = OmegaMatches ? 1 : 0;
  State.counters["maxlive"] = Maxlive;
  State.counters["vertices"] = IG.G.numVertices();
}
BENCHMARK(BM_Theorem1Certificate)->Range(8, 512);

static void BM_SsaGeneration(benchmark::State &State) {
  uint64_t Seed = 44;
  for (auto _ : State) {
    Function F = makeFunction(static_cast<unsigned>(State.range(0)), Seed++);
    benchmark::DoNotOptimize(F.numValues());
  }
}
BENCHMARK(BM_SsaGeneration)->Range(8, 256);
