//===- examples/reduction_explorer.cpp - the four reductions live -----------===//
//
// Walks through the paper's four NP-completeness reductions on small random
// instances, solving both sides with the exact solvers and printing the
// equivalences:
//
//   Theorem 2: multiway cut       <->  aggressive coalescing optimum
//   Theorem 3: graph 3-coloring   <->  zero-cost conservative coalescing
//   Theorem 4: 3SAT               <->  incremental coalescing (x0 with F)
//   Theorem 6: vertex cover       <->  optimal de-coalescing count
//
// Run: ./reduction_explorer [seed]
//
//===----------------------------------------------------------------------===//

#include "coalescing/ExactSearch.h"
#include "coalescing/Optimistic.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "npc/MultiwayCut.h"
#include "npc/Sat.h"
#include "npc/Theorem2Reduction.h"
#include "npc/Theorem3Reduction.h"
#include "npc/Theorem4Reduction.h"
#include "npc/Theorem6Reduction.h"
#include "npc/VertexCover.h"

#include <cstdlib>
#include <iostream>

using namespace rc;

static void banner(const char *Title) {
  std::cout << "\n==== " << Title << " ====\n";
}

static const char *mark(bool Match) { return Match ? "MATCH" : "MISMATCH"; }

int main(int Argc, char **Argv) {
  uint64_t Seed = Argc > 1 ? static_cast<uint64_t>(std::atoll(Argv[1])) : 7;
  Rng Rand(Seed);

  banner("Theorem 2: multiway cut -> aggressive coalescing");
  {
    MultiwayCutInstance Instance = randomMultiwayCutInstance(7, 0.4, 3,
                                                             Rand);
    MultiwayCutResult Cut = solveMultiwayCutExact(Instance);
    Theorem2Reduction R = Theorem2Reduction::build(Instance);
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::Any});
    std::cout << "source graph: " << Instance.G.numVertices()
              << " vertices, " << Instance.G.numEdges()
              << " edges, 3 terminals\n";
    std::cout << "minimum multiway cut          = " << Cut.CutSize << "\n";
    std::cout << "minimum uncoalesced moves     = "
              << Exact.Stats.UncoalescedAffinities << "   ["
              << mark(Exact.Stats.UncoalescedAffinities == Cut.CutSize)
              << "]\n";
  }

  banner("Theorem 3: 3-colorability -> conservative coalescing");
  {
    Graph H = randomGraph(6, 0.5, Rand);
    bool Colorable = exactKColoring(H, 3).Colorable;
    Theorem3Reduction R = Theorem3Reduction::build(H, 3);
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::ExactColor});
    bool AllCoalesced =
        Exact.Optimal && Exact.Stats.UncoalescedAffinities == 0;
    std::cout << "source graph: " << H.numVertices() << " vertices, "
              << H.numEdges() << " edges\n";
    std::cout << "3-colorable                   = "
              << (Colorable ? "yes" : "no") << "\n";
    std::cout << "all moves coalescable (k=3)   = "
              << (AllCoalesced ? "yes" : "no") << "   ["
              << mark(AllCoalesced == Colorable) << "]\n";
  }

  banner("Theorem 4: 3SAT -> incremental conservative coalescing");
  {
    CnfFormula Three = randomKSat(4, 9, 3, Rand);
    bool Sat = solveDpll(Three).Satisfiable;
    Theorem4Reduction R = Theorem4Reduction::build(Three);
    ExactColoringResult Constrained = exactKColoringWithEquality(
        R.Gadget.G, R.AffinityX, R.AffinityY, 3);
    std::cout << "formula: " << Three.NumVars << " variables, "
              << Three.Clauses.size() << " clauses\n";
    std::cout << "gadget: " << R.Gadget.G.numVertices()
              << " vertices (always 3-colorable: "
              << (exactKColoring(R.Gadget.G, 3).Colorable ? "yes" : "NO")
              << ")\n";
    std::cout << "3SAT satisfiable              = " << (Sat ? "yes" : "no")
              << "\n";
    std::cout << "affinity (x0, F) coalescable  = "
              << (Constrained.Colorable ? "yes" : "no") << "   ["
              << mark(Constrained.Colorable == Sat) << "]\n";
  }

  banner("Theorem 6: vertex cover -> optimistic de-coalescing");
  {
    Graph G = randomBoundedDegreeGraph(5, 3, 0.6, Rand);
    VertexCoverResult Cover = solveVertexCoverExact(G);
    Theorem6Reduction R = Theorem6Reduction::build(G);
    ExactSearchResult Exact =
        exactCoalesceSearch(R.Problem, {ExactFeasibility::Greedy});
    OptimisticResult Heuristic = optimisticCoalesce(R.Problem);
    std::cout << "source graph: " << G.numVertices() << " vertices, "
              << G.numEdges() << " edges (max degree 3)\n";
    std::cout << "gadget: " << R.Problem.G.numVertices()
              << " vertices, k = 4\n";
    std::cout << "minimum vertex cover          = " << Cover.Size << "\n";
    std::cout << "minimum de-coalesced moves    = "
              << Exact.Stats.UncoalescedAffinities << "   ["
              << mark(Exact.Stats.UncoalescedAffinities == Cover.Size)
              << "]\n";
    std::cout << "Park-Moon heuristic gives up  = "
              << Heuristic.Stats.UncoalescedAffinities << "\n";
  }

  std::cout << "\nAll four reductions exercised; rerun with another seed to "
               "explore more instances.\n";
  return 0;
}
