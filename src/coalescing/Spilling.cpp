//===- coalescing/Spilling.cpp - Chaitin-style spilling --------------------===//

#include "coalescing/Spilling.h"

#include <algorithm>
#include <cassert>

using namespace rc;

SpillResult rc::spillToGreedyK(const Graph &G, unsigned K,
                               const std::vector<double> &SpillCosts) {
  assert((SpillCosts.empty() || SpillCosts.size() == G.numVertices()) &&
         "spill cost vector has wrong size");
  unsigned N = G.numVertices();
  // KeptDegree counts unspilled neighbors (the victim score reads it);
  // CoreDegree counts neighbors neither spilled nor peeled (the peel reads
  // it). Both are kept exact for core vertices only: a peeled vertex never
  // re-enters the core, since the k-core only shrinks as vertices go.
  std::vector<unsigned> KeptDegree(N), CoreDegree(N);
  std::vector<bool> OutOfCore(N, false), IsSpilled(N, false);
  std::vector<unsigned> Worklist;
  for (unsigned V = 0; V < N; ++V) {
    KeptDegree[V] = CoreDegree[V] = G.degree(V);
    if (CoreDegree[V] < K) {
      OutOfCore[V] = true;
      Worklist.push_back(V);
    }
  }
  // Takes V out of the core: its core neighbors lose one degree, and those
  // falling below K join the peel.
  auto leaveCore = [&](unsigned V, bool Spill) {
    for (unsigned W : G.neighbors(V)) {
      if (OutOfCore[W])
        continue;
      if (Spill)
        --KeptDegree[W];
      if (--CoreDegree[W] < K) {
        OutOfCore[W] = true;
        Worklist.push_back(W);
      }
    }
  };
  auto peel = [&]() {
    while (!Worklist.empty()) {
      unsigned V = Worklist.back();
      Worklist.pop_back();
      leaveCore(V, /*Spill=*/false);
    }
  };

  SpillResult Result;
  peel();
  std::vector<unsigned> Core;
  for (unsigned V = 0; V < N; ++V)
    if (!OutOfCore[V])
      Core.push_back(V);
  while (!Core.empty()) {
    // Spill the core vertex minimizing cost / kept degree; ascending ids
    // and a strict '<' break ties toward the lowest id.
    unsigned Victim = ~0u;
    double VictimScore = 0;
    for (unsigned V : Core) {
      double Cost = SpillCosts.empty() ? 1.0 : SpillCosts[V];
      double Score = Cost / std::max(1u, KeptDegree[V]);
      if (Victim == ~0u || Score < VictimScore) {
        Victim = V;
        VictimScore = Score;
      }
    }
    IsSpilled[Victim] = true;
    OutOfCore[Victim] = true;
    Result.Spilled.push_back(Victim);
    leaveCore(Victim, /*Spill=*/true);
    peel();
    std::erase_if(Core, [&OutOfCore](unsigned V) { return OutOfCore[V]; });
  }

  std::sort(Result.Spilled.begin(), Result.Spilled.end());
  Result.Kept.reserve(N - Result.Spilled.size());
  for (unsigned V = 0; V < N; ++V)
    if (!IsSpilled[V])
      Result.Kept.push_back(V);
  return Result;
}
