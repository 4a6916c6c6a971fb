//===- bench/bench_splitting.cpp - the split/coalesce interplay --------------===//
//
// Section 1's motivating loop, measured end to end: maximal live-range
// splitting floods the program with moves and phis; the coalescing
// strategies then try to win them back at k = Maxlive. Reports how many of
// the splitting moves each strategy removes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "challenge/StrategyRunner.h"
#include "ir/InterferenceBuilder.h"
#include "ir/LiveRangeSplitting.h"
#include "ir/OutOfSsa.h"

#include <benchmark/benchmark.h>

using namespace rc;
using namespace rc::ir;

static CoalescingProblem makeSplitInstance(unsigned Blocks, uint64_t Seed,
                                           SplitStats *StatsOut) {
  GeneratorOptions Options;
  Options.MaxPhisPerJoin = 3;
  Function F = bench::makeSsaFunction(Blocks, Seed, Options);
  lowerOutOfSsa(F);
  SplitStats Stats = splitLiveRangesAtBlockBoundaries(F);
  if (StatsOut)
    *StatsOut = Stats;
  InterferenceGraph IG = buildInterferenceGraph(F);
  CoalescingProblem P;
  P.G = std::move(IG.G);
  P.Affinities = std::move(IG.Affinities);
  P.K = computeMaxlive(F);
  return P;
}

static void BM_SplitThenCoalesce(benchmark::State &State, const char *Spec) {
  SplitStats Split;
  CoalescingProblem P =
      makeSplitInstance(static_cast<unsigned>(State.range(0)), 121, &Split);
  double Ratio = 0;
  RunRequest Request;
  Request.Problem = &P;
  Request.Spec = Spec;
  for (auto _ : State) {
    StrategyOutcome O = runStrategy(Request).Outcome;
    Ratio = O.CoalescedWeightRatio;
    benchmark::DoNotOptimize(&Ratio);
  }
  State.counters["split_copies"] = Split.CopiesInserted;
  State.counters["split_phis"] = Split.PhisInserted;
  State.counters["moves_total"] = static_cast<double>(P.Affinities.size());
  State.counters["weight_recovered"] = Ratio;
}

#define SPLIT_BENCH(NAME, SPEC)                                              \
  static void NAME(benchmark::State &State) {                               \
    BM_SplitThenCoalesce(State, SPEC);                                      \
  }                                                                         \
  BENCHMARK(NAME)->Arg(32)->Arg(96)

SPLIT_BENCH(BM_SplitBriggs, "briggs");
SPLIT_BENCH(BM_SplitBoth, "briggs+george");
SPLIT_BENCH(BM_SplitOptimistic, "optimistic");
SPLIT_BENCH(BM_SplitIrc, "irc");
SPLIT_BENCH(BM_SplitAggressive, "aggressive");

// The quadratic-ish strategies only run the small size.
static void BM_SplitBrute(benchmark::State &State) {
  BM_SplitThenCoalesce(State, "brute-conservative");
}
BENCHMARK(BM_SplitBrute)->Arg(32);
static void BM_SplitChordalThm5(benchmark::State &State) {
  BM_SplitThenCoalesce(State, "chordal-thm5");
}
BENCHMARK(BM_SplitChordalThm5)->Arg(32);

static void BM_SplittingItself(benchmark::State &State) {
  unsigned Blocks = static_cast<unsigned>(State.range(0));
  SplitStats Stats;
  for (auto _ : State) {
    Function F = bench::makeSsaFunction(Blocks, 122);
    lowerOutOfSsa(F);
    Stats = splitLiveRangesAtBlockBoundaries(F);
    benchmark::DoNotOptimize(F.numValues());
  }
  State.counters["copies"] = Stats.CopiesInserted;
  State.counters["phis"] = Stats.PhisInserted;
}
BENCHMARK(BM_SplittingItself)->Range(16, 512);
