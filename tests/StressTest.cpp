//===- tests/StressTest.cpp - differential stress tests ----------------------===//
//
// Randomized differential tests of the incremental data structures against
// naive recompute-from-scratch oracles.
//
//===----------------------------------------------------------------------===//

#include "coalescing/IteratedRegisterCoalescing.h"
#include "graph/Generators.h"
#include "ir/Liveness.h"
#include "ir/ProgramGenerator.h"
#include "support/UnionFind.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

#include <set>

using namespace rc;

// --- WorkGraph vs. rebuilt quotient ----------------------------------------
//
// The rebuild-from-scratch oracle itself lives in testing/Oracles.cpp
// (checkWorkGraphIncremental) so rc_fuzz and this suite share one
// implementation; here we just pin a few seeds as regression anchors.

struct WorkGraphStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkGraphStress, MatchesQuotientOracle) {
  Rng Rand(GetParam());
  Graph G = randomGraph(25, 0.2, Rand);
  std::string Error;
  EXPECT_TRUE(rc::testing::checkWorkGraphIncremental(G, 60, Rand, &Error))
      << Error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkGraphStress,
                         ::testing::Values(241u, 242u, 243u, 244u));

// --- UnionFind vs. naive labeling -------------------------------------------

TEST(UnionFindStress, MatchesNaiveLabels) {
  Rng Rand(245);
  const unsigned N = 60;
  UnionFind UF(N);
  std::vector<unsigned> Label(N);
  for (unsigned I = 0; I < N; ++I)
    Label[I] = I;

  for (int Step = 0; Step < 300; ++Step) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    ASSERT_EQ(UF.connected(U, V), Label[U] == Label[V]);
    if (Rand.flip(0.5)) {
      UF.merge(U, V);
      unsigned From = Label[V], To = Label[U];
      for (unsigned I = 0; I < N; ++I)
        if (Label[I] == From)
          Label[I] = To;
    }
  }
  std::set<unsigned> Distinct(Label.begin(), Label.end());
  EXPECT_EQ(UF.numClasses(), Distinct.size());
}

// --- Liveness satisfies its dataflow equations -------------------------------

TEST(LivenessStress, FixpointSatisfiesEquations) {
  Rng Rand(246);
  for (int Trial = 0; Trial < 10; ++Trial) {
    ir::GeneratorOptions Options;
    Options.NumBlocks = 10;
    ir::Function F = ir::generateRandomSsaFunction(Options, Rand);
    ir::Liveness L = ir::Liveness::compute(F);

    for (ir::BlockId B = 0; B < F.numBlocks(); ++B) {
      // LiveOut(B) == union over successors of (LiveIn(S) - phidefs(S))
      //               + phi uses along the B->S edge.
      BitSet Expected(F.numValues());
      for (ir::BlockId S : F.block(B).Succs) {
        BitSet FromSucc = L.liveIn(S);
        for (const ir::Instruction &Phi : F.block(S).Phis)
          FromSucc.reset(Phi.Dst);
        for (const ir::Instruction &Phi : F.block(S).Phis)
          for (const ir::PhiArg &Arg : Phi.PhiArgs)
            if (Arg.Pred == B)
              FromSucc.set(Arg.Value);
        Expected.unionWith(FromSucc);
      }
      EXPECT_TRUE(L.liveOut(B) == Expected) << "block " << B;

      // LiveIn(B) == transfer of the body applied to LiveOut(B).
      BitSet In = L.liveOut(B);
      const auto &Body = F.block(B).Body;
      for (auto It = Body.rbegin(); It != Body.rend(); ++It) {
        if (It->Dst != ir::NoValue)
          In.reset(It->Dst);
        for (ir::ValueId Src : It->Srcs)
          In.set(Src);
      }
      EXPECT_TRUE(L.liveIn(B) == In) << "block " << B;
    }
  }
}

// --- IRC spill costs ---------------------------------------------------------

TEST(IrcSpillCostTest, ExpensiveVertexAvoided) {
  // K5 at k = 4: exactly one vertex must spill; a huge cost on vertex 0
  // must push the choice elsewhere.
  CoalescingProblem P;
  P.G = Graph::complete(5);
  P.K = 4;
  IrcOptions Options;
  Options.SpillCosts = {1e9, 1.0, 1.0, 1.0, 1.0};
  IrcResult R = iteratedRegisterCoalescing(P, Options);
  ASSERT_EQ(R.Spilled.size(), 1u);
  EXPECT_NE(R.Spilled[0], 0u);
}

TEST(IrcSpillCostTest, UniformCostsPickHighDegree) {
  // A clique K5 plus a pendant chain raising one vertex's degree: with
  // uniform costs the max-degree vertex is the canonical victim.
  CoalescingProblem P;
  GraphBuilder GB(Graph::complete(5));
  for (int I = 0; I < 4; ++I) {
    unsigned V = GB.addVertices(1);
    GB.addEdge(0, V);
  }
  P.G = std::move(GB).build();
  P.K = 4;
  IrcResult R = iteratedRegisterCoalescing(P);
  ASSERT_FALSE(R.Spilled.empty());
  EXPECT_EQ(R.Spilled[0], 0u); // Degree 8 beats the clique's 4s.
}
