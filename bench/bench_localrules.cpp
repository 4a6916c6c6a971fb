//===- bench/bench_localrules.cpp - E9/E10: Figure 3 ------------------------===//
//
// Experiments E9/E10: the Figure 3 phenomena. On the padded permutation
// gadget the local Briggs/George rules coalesce nothing while the
// brute-force merge-and-check test coalesces everything; the counters
// reproduce that row for growing permutation sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "coalescing/Conservative.h"
#include "graph/GreedyColorability.h"

#include <benchmark/benchmark.h>

using namespace rc;

/// Figure 3 permutation gadget (see tests/ConservativeTest.cpp): sources
/// u_i adjacent to every v_j except the partner; each vertex padded with a
/// private clique raising its degree to k = 2*Size-2.
static CoalescingProblem paddedPermutation(unsigned Size) {
  CoalescingProblem P;
  GraphBuilder G(2 * Size);
  for (unsigned I = 0; I < Size; ++I)
    for (unsigned J = 0; J < Size; ++J)
      if (I != J)
        G.addEdge(I, Size + J);
  for (unsigned I = 0; I < Size; ++I)
    P.Affinities.push_back({I, Size + I, 1.0});
  P.K = 2 * Size - 2;
  unsigned PadSize = P.K - (Size - 1);
  for (unsigned V = 0; V < 2 * Size; ++V) {
    unsigned First = G.addVertices(PadSize);
    std::vector<unsigned> Clique{V};
    for (unsigned I = 0; I < PadSize; ++I)
      Clique.push_back(First + I);
    G.addClique(Clique);
  }
  P.G = std::move(G).build();
  return P;
}

template <ConservativeRule Rule>
static void BM_PermutationRule(benchmark::State &State) {
  CoalescingProblem P =
      paddedPermutation(static_cast<unsigned>(State.range(0)));
  unsigned Coalesced = 0;
  for (auto _ : State) {
    ConservativeResult R = conservativeCoalesce(P, Rule);
    Coalesced = R.Stats.CoalescedAffinities;
    benchmark::DoNotOptimize(Coalesced);
  }
  State.counters["coalesced"] = Coalesced;
  State.counters["moves"] = static_cast<double>(P.Affinities.size());
}
BENCHMARK(BM_PermutationRule<ConservativeRule::Briggs>)
    ->DenseRange(4, 16, 4);
BENCHMARK(BM_PermutationRule<ConservativeRule::BriggsOrGeorge>)
    ->DenseRange(4, 16, 4);
BENCHMARK(BM_PermutationRule<ConservativeRule::BruteForce>)
    ->DenseRange(4, 16, 4);

static void BM_PermutationWholeSetCheck(benchmark::State &State) {
  // Checking the whole permutation at once (merge all, test once) is the
  // other remedy Section 4 suggests; it is linear and accepts.
  CoalescingProblem P =
      paddedPermutation(static_cast<unsigned>(State.range(0)));
  bool Accepted = false;
  for (auto _ : State) {
    WorkGraph WG(P.G);
    for (const Affinity &A : P.Affinities)
      if (WG.canMerge(A.U, A.V))
        WG.merge(A.U, A.V);
    Accepted = WG.quotientGreedyKColorable(P.K);
    benchmark::DoNotOptimize(Accepted);
  }
  State.counters["whole_set_accepted"] = Accepted ? 1 : 0; // Must be 1.
}
BENCHMARK(BM_PermutationWholeSetCheck)->DenseRange(4, 16, 4);
