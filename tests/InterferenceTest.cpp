//===- tests/InterferenceTest.cpp - Theorem 1 and interference builder -----===//

#include "graph/Chordal.h"
#include "ir/InterferenceBuilder.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rc;
using namespace rc::ir;

TEST(InterferenceTest, StraightLineClique) {
  // a, b, c all live until the final add chain: a and b interfere, the
  // temporary chain reuses them.
  Function F;
  ValueId A = F.emitConst(0, 1, "a");
  ValueId B = F.emitConst(0, 2, "b");
  ValueId C = F.emitBinary(0, Opcode::Add, A, B, "c");
  ValueId D = F.emitBinary(0, Opcode::Add, C, B, "d");
  F.emitRet(0, {D});
  F.computePredecessors();

  InterferenceGraph IG = buildInterferenceGraph(F);
  EXPECT_TRUE(IG.G.hasEdge(A, B));
  EXPECT_TRUE(IG.G.hasEdge(C, B)); // b survives past c's definition.
  EXPECT_FALSE(IG.G.hasEdge(A, C)); // a dies at c's definition.
  EXPECT_FALSE(IG.G.hasEdge(C, D));
  EXPECT_EQ(computeMaxlive(F), 2u);
}

TEST(InterferenceTest, CopyModesDiffer) {
  // b = copy a; both then used: under Chaitin's refinement the copy itself
  // does not make a and b interfere, but a later use of a does.
  Function F;
  ValueId A = F.emitConst(0, 1, "a");
  ValueId B = F.emitCopy(0, A, "b");
  ValueId C = F.emitBinary(0, Opcode::Add, A, B, "c");
  F.emitRet(0, {C});
  F.computePredecessors();

  InterferenceGraph Intersect =
      buildInterferenceGraph(F, InterferenceMode::Intersection);
  EXPECT_TRUE(Intersect.G.hasEdge(A, B));

  // With only the copy and independent uses, Chaitin mode drops the edge.
  Function F2;
  ValueId A2 = F2.emitConst(0, 1, "a");
  ValueId B2 = F2.emitCopy(0, A2, "b");
  F2.emitRet(0, {B2});
  F2.computePredecessors();
  InterferenceGraph Chaitin =
      buildInterferenceGraph(F2, InterferenceMode::Chaitin);
  EXPECT_FALSE(Chaitin.G.hasEdge(A2, B2));
  InterferenceGraph Intersect2 =
      buildInterferenceGraph(F2, InterferenceMode::Intersection);
  EXPECT_FALSE(Intersect2.G.hasEdge(A2, B2)); // a dies exactly at the copy.
}

TEST(InterferenceTest, CopyYieldsAffinity) {
  Function F;
  ValueId A = F.emitConst(0, 1, "a");
  ValueId B = F.emitCopy(0, A, "b");
  F.emitRet(0, {B});
  F.computePredecessors();
  InterferenceGraph IG = buildInterferenceGraph(F);
  ASSERT_EQ(IG.Affinities.size(), 1u);
  EXPECT_EQ(IG.Affinities[0].U, std::min(A, B));
  EXPECT_EQ(IG.Affinities[0].V, std::max(A, B));
}

TEST(InterferenceTest, PhiYieldsAffinities) {
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId Cond = F.emitConst(0, 1, "cond");
  F.emitBranch(0, Cond, B1, B2);
  ValueId A = F.emitConst(B1, 10, "a");
  F.emitJump(B1, B3);
  ValueId B = F.emitConst(B2, 20, "b");
  F.emitJump(B2, B3);
  F.computePredecessors();
  ValueId P = F.emitPhi(B3, {{B1, A}, {B2, B}}, "p");
  F.emitRet(B3, {P});
  F.computePredecessors();

  InterferenceGraph IG = buildInterferenceGraph(F);
  // Affinities (p,a) and (p,b); neither pair interferes.
  EXPECT_EQ(IG.Affinities.size(), 2u);
  EXPECT_FALSE(IG.G.hasEdge(P, A));
  EXPECT_FALSE(IG.G.hasEdge(P, B));
}

TEST(InterferenceTest, ConstrainedMovesAreDropped) {
  // b = copy a, then BOTH used later => they interfere; affinity dropped.
  Function F;
  ValueId A = F.emitConst(0, 1, "a");
  ValueId B = F.emitCopy(0, A, "b");
  ValueId C = F.emitBinary(0, Opcode::Add, A, B, "c");
  F.emitRet(0, {C});
  F.computePredecessors();
  InterferenceGraph IG = buildInterferenceGraph(F);
  EXPECT_TRUE(IG.G.hasEdge(A, B));
  EXPECT_TRUE(IG.Affinities.empty());
}

// --- Theorem 1: SSA interference graphs are chordal, omega == Maxlive ------

struct Theorem1Sweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(Theorem1Sweep, ChordalAndOmegaEqualsMaxlive) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 10; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 4 + static_cast<unsigned>(Rand.nextBelow(20));
    Options.MaxInstructionsPerBlock =
        2 + static_cast<unsigned>(Rand.nextBelow(8));
    Function F = generateRandomSsaFunction(Options, Rand);
    ASSERT_TRUE(verifyStrictSsa(F));

    InterferenceGraph IG = buildInterferenceGraph(F);
    ASSERT_TRUE(isChordal(IG.G)) << "Theorem 1 chordality violated";
    EXPECT_EQ(chordalCliqueNumber(IG.G), computeMaxlive(F))
        << "Theorem 1 omega == Maxlive violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Sweep,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u, 107u, 108u, 109u, 110u));

TEST(InterferenceTest, AffinitiesNeverInterfere) {
  Rng Rand(120);
  for (int Trial = 0; Trial < 10; ++Trial) {
    GeneratorOptions Options;
    Options.CopyProbability = 0.4;
    Function F = generateRandomSsaFunction(Options, Rand);
    InterferenceGraph IG = buildInterferenceGraph(F);
    for (const Affinity &A : IG.Affinities)
      EXPECT_FALSE(IG.G.hasEdge(A.U, A.V));
  }
}

TEST(InterferenceTest, ChaitinIsSubgraphOfIntersection) {
  Rng Rand(121);
  for (int Trial = 0; Trial < 10; ++Trial) {
    GeneratorOptions Options;
    Options.CopyProbability = 0.5;
    Function F = generateRandomSsaFunction(Options, Rand);
    InterferenceGraph A = buildInterferenceGraph(F,
                                                 InterferenceMode::Chaitin);
    InterferenceGraph B =
        buildInterferenceGraph(F, InterferenceMode::Intersection);
    for (unsigned U = 0; U < A.G.numVertices(); ++U)
      for (unsigned V : A.G.neighbors(U))
        if (V > U) {
          EXPECT_TRUE(B.G.hasEdge(U, V));
        }
  }
}
