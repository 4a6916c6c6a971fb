//===- examples/quickstart.cpp - five-minute tour ---------------------------===//
//
// Builds a small interference graph with move affinities by hand, runs the
// classical iterated-register-coalescing allocator and the brute-force
// conservative driver, and prints the assignments plus a Graphviz dump.
//
// Run: ./quickstart
//
//===----------------------------------------------------------------------===//

#include "coalescing/Conservative.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "graph/GraphWriter.h"
#include "graph/GreedyColorability.h"

#include <iostream>

using namespace rc;

int main() {
  // A tiny program's interference graph:
  //   a and b are live together; t is a copy of a used after b dies;
  //   c is a loop counter interfering with everything.
  CoalescingProblem P;
  P.Names = {"a", "b", "c", "t", "u"};
  const unsigned A = 0, B = 1, C = 2, T = 3, U = 4;
  GraphBuilder G(5);
  G.addEdge(A, B);
  G.addEdge(A, C);
  G.addEdge(B, C);
  G.addEdge(C, T);
  G.addEdge(C, U);
  G.addEdge(B, T);
  P.G = std::move(G).build();
  P.K = 3;
  // Moves: t = a (hot, weight 10), u = t (weight 1).
  P.Affinities = {{A, T, 10.0}, {T, U, 1.0}};

  std::cout << "interference graph (" << P.G.numVertices() << " vertices, "
            << P.G.numEdges() << " edges), k = " << P.K << "\n";
  std::cout << "greedy-" << P.K
            << "-colorable: " << (isGreedyKColorable(P.G, P.K) ? "yes" : "no")
            << "\n\n";

  std::cout << "DOT (solid = interference, dashed = move affinity):\n";
  writeDot(std::cout, P.G, P.Affinities, P.Names);

  // 1. Iterated register coalescing (George-Appel).
  IrcResult Irc = iteratedRegisterCoalescing(P);
  std::cout << "\niterated register coalescing:\n";
  for (unsigned V = 0; V < P.G.numVertices(); ++V)
    std::cout << "  " << P.Names[V] << " -> r" << Irc.Colors[V] << "\n";
  std::cout << "  moves coalesced: " << Irc.Stats.CoalescedAffinities << "/"
            << P.Affinities.size() << " (weight "
            << Irc.Stats.CoalescedWeight << ")\n";

  // 2. Brute-force conservative driver (merge-and-check, Section 4).
  ConservativeResult Brute =
      conservativeCoalesce(P, ConservativeRule::BruteForce);
  Coloring Colors =
      colorGreedyKColorable(buildCoalescedGraph(P.G, Brute.Solution), P.K);
  std::cout << "\nbrute-force conservative coalescing:\n";
  for (unsigned V = 0; V < P.G.numVertices(); ++V)
    std::cout << "  " << P.Names[V] << " -> r"
              << Colors[Brute.Solution.ClassIds[V]] << "\n";
  std::cout << "  moves coalesced: " << Brute.Stats.CoalescedAffinities
            << "/" << P.Affinities.size() << " (weight "
            << Brute.Stats.CoalescedWeight << ")\n";
  return 0;
}
