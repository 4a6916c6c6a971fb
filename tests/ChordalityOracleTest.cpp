//===- tests/ChordalityOracleTest.cpp - differential chordality --------------===//
//
// Differential test of the MCS/PEO chordality recognizer against a direct
// definition-based oracle: a graph is chordal iff it has no chordless cycle
// of length >= 4. The oracle enumerates cycles explicitly, so it only runs
// on tiny graphs -- but over many random ones.
//
//===----------------------------------------------------------------------===//

#include "graph/Chordal.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

/// Returns true if G has a chordless (induced) cycle of length >= 4, by DFS
/// over induced paths. Invariant: Path is an induced path whose first vertex
/// is the minimum of any cycle it can become (canonical form). Exponential;
/// keep N tiny.
bool hasChordlessLongCycle(const Graph &G) {
  unsigned N = G.numVertices();
  std::vector<unsigned> Path;
  std::vector<bool> OnPath(N, false);

  struct Searcher {
    const Graph &G;
    std::vector<unsigned> &Path;
    std::vector<bool> &OnPath;

    /// Returns true if W touches no path vertex except \p Allowed.
    bool onlyTouches(unsigned W, unsigned Allowed1, unsigned Allowed2) const {
      for (unsigned P : Path)
        if (P != Allowed1 && P != Allowed2 && G.hasEdge(W, P))
          return false;
      return true;
    }

    bool search() {
      unsigned Start = Path.front();
      unsigned Last = Path.back();
      for (unsigned W : G.neighbors(Last)) {
        if (OnPath[W] || W < Start)
          continue;
        // Close: W adjacent to Start and Last only -> induced cycle of
        // length |Path| + 1 >= 4.
        if (Path.size() >= 3 && G.hasEdge(W, Start) &&
            onlyTouches(W, Start, Last))
          return true;
        // Extend: W adjacent to Last only (keeps the path induced).
        if (!onlyTouches(W, Last, Last))
          continue;
        Path.push_back(W);
        OnPath[W] = true;
        if (search())
          return true;
        OnPath[W] = false;
        Path.pop_back();
      }
      return false;
    }
  };

  for (unsigned Start = 0; Start < N; ++Start) {
    Path = {Start};
    std::fill(OnPath.begin(), OnPath.end(), false);
    OnPath[Start] = true;
    Searcher S{G, Path, OnPath};
    if (S.search())
      return true;
  }
  return false;
}

} // namespace

TEST(ChordalityOracleTest, OracleAgreesOnKnownGraphs) {
  EXPECT_FALSE(hasChordlessLongCycle(Graph::complete(5)));
  EXPECT_FALSE(hasChordlessLongCycle(Graph::path(6)));
  EXPECT_TRUE(hasChordlessLongCycle(Graph::cycle(4)));
  EXPECT_TRUE(hasChordlessLongCycle(Graph::cycle(7)));
  GraphBuilder CycleWithChord(Graph::cycle(4));
  CycleWithChord.addEdge(0, 2);
  EXPECT_FALSE(hasChordlessLongCycle(std::move(CycleWithChord).build()));
}

struct ChordalityDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChordalityDifferential, McsMatchesDefinition) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 40; ++Trial) {
    Graph G = randomGraph(8, 0.2 + 0.05 * (Trial % 8), Rand);
    EXPECT_EQ(isChordal(G), !hasChordlessLongCycle(G))
        << "trial " << Trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordalityDifferential,
                         ::testing::Values(221u, 222u, 223u, 224u, 225u,
                                           226u));
