//===- bench/bench_irc.cpp - iterated register coalescing --------------------===//
//
// The classical Chaitin/Briggs/George-Appel baseline the paper's
// introduction describes: IRC throughput on challenge instances, the effect
// of enabling George's test (Section 4 advocates it for the spill-free
// setting), and spill behavior under shrinking k.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "graph/Chordal.h"

#include <benchmark/benchmark.h>

using namespace rc;

static void BM_IrcThroughput(benchmark::State &State) {
  CoalescingProblem P =
      bench::makeChallengeProblem(static_cast<unsigned>(State.range(0)), 91);
  unsigned Coalesced = 0, Spilled = 0;
  for (auto _ : State) {
    IrcResult R = iteratedRegisterCoalescing(P);
    Coalesced = R.Stats.CoalescedAffinities;
    Spilled = static_cast<unsigned>(R.Spilled.size());
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["spilled"] = Spilled; // 0 expected: k = omega, chordal.
}
// 8192 is the largest row; IRC builds no WorkGraph, so no size switches
// its representation, and the rows show how its lists scale.
BENCHMARK(BM_IrcThroughput)->Range(64, 8192);

static void BM_IrcGeorgeAblation(benchmark::State &State) {
  // Ablation (DESIGN.md): Briggs-only vs Briggs+George inside IRC.
  bool UseGeorge = State.range(1) != 0;
  CoalescingProblem P =
      bench::makeChallengeProblem(static_cast<unsigned>(State.range(0)), 92);
  IrcOptions Options;
  Options.UseGeorge = UseGeorge;
  unsigned Coalesced = 0;
  for (auto _ : State) {
    IrcResult R = iteratedRegisterCoalescing(P, Options);
    Coalesced = R.Stats.CoalescedAffinities;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["george"] = UseGeorge ? 1 : 0;
}
BENCHMARK(BM_IrcGeorgeAblation)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({2048, 0})
    ->Args({2048, 1});

static void BM_IrcUnderSpillPressure(benchmark::State &State) {
  // Shrink k below omega: IRC must spill; reports the spill count.
  CoalescingProblem P = bench::makeChallengeProblem(512, 93);
  unsigned Shrink = static_cast<unsigned>(State.range(0));
  P.K = P.K > Shrink ? P.K - Shrink : 1;
  unsigned Spilled = 0;
  for (auto _ : State) {
    IrcResult R = iteratedRegisterCoalescing(P);
    Spilled = static_cast<unsigned>(R.Spilled.size());
    benchmark::DoNotOptimize(Spilled);
  }
  State.counters["spilled"] = Spilled;
  State.counters["k"] = P.K;
}
BENCHMARK(BM_IrcUnderSpillPressure)->DenseRange(0, 4, 1);
