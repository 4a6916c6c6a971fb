//===- tests/SupportTest.cpp - support/ unit tests -------------------------===//

#include "support/BitSet.h"
#include "support/Random.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>

using namespace rc;

// --- UnionFind -----------------------------------------------------------

TEST(UnionFindTest, StartsAsSingletons) {
  UnionFind UF(5);
  EXPECT_EQ(UF.numClasses(), 5u);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(UF.find(I), I);
}

TEST(UnionFindTest, MergeJoinsClasses) {
  UnionFind UF(4);
  EXPECT_TRUE(UF.merge(0, 1));
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(0, 2));
  EXPECT_EQ(UF.numClasses(), 3u);
}

TEST(UnionFindTest, MergeIsIdempotent) {
  UnionFind UF(3);
  EXPECT_TRUE(UF.merge(0, 1));
  EXPECT_FALSE(UF.merge(1, 0));
  EXPECT_EQ(UF.numClasses(), 2u);
}

TEST(UnionFindTest, TransitiveMerges) {
  UnionFind UF(6);
  UF.merge(0, 1);
  UF.merge(2, 3);
  UF.merge(1, 2);
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_FALSE(UF.connected(0, 4));
  EXPECT_EQ(UF.numClasses(), 3u);
}

TEST(UnionFindTest, DenseClassIdsAreDense) {
  UnionFind UF(5);
  UF.merge(0, 4);
  UF.merge(1, 3);
  std::vector<unsigned> Ids = UF.denseClassIds();
  ASSERT_EQ(Ids.size(), 5u);
  EXPECT_EQ(Ids[0], Ids[4]);
  EXPECT_EQ(Ids[1], Ids[3]);
  EXPECT_NE(Ids[0], Ids[1]);
  EXPECT_NE(Ids[0], Ids[2]);
  for (unsigned Id : Ids)
    EXPECT_LT(Id, UF.numClasses());
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind UF(3);
  UF.merge(0, 1);
  UF.reset(4);
  EXPECT_EQ(UF.numClasses(), 4u);
  EXPECT_FALSE(UF.connected(0, 1));
}

// --- BitSet ---------------------------------------------------------------

TEST(BitSetTest, SetTestReset) {
  BitSet S(100);
  EXPECT_TRUE(S.set(63));
  EXPECT_TRUE(S.set(64));
  EXPECT_FALSE(S.set(64)); // Already set.
  EXPECT_TRUE(S.test(63));
  EXPECT_TRUE(S.test(64));
  S.reset(63);
  EXPECT_FALSE(S.test(63));
  EXPECT_EQ(S.count(), 1u);
}

TEST(BitSetTest, UnionWithReportsChange) {
  BitSet A(10), B(10);
  A.set(1);
  B.set(2);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B));
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(2));
}

TEST(BitSetTest, ToVectorIsSortedAndComplete) {
  BitSet S(200);
  std::set<unsigned> Expected{0, 5, 63, 64, 65, 128, 199};
  for (unsigned I : Expected)
    S.set(I);
  std::vector<unsigned> V = S.toVector();
  EXPECT_EQ(std::set<unsigned>(V.begin(), V.end()), Expected);
  EXPECT_TRUE(std::is_sorted(V.begin(), V.end()));
}

TEST(BitSetTest, ForEachVisitsSetBitsInIncreasingOrder) {
  BitSet S(200);
  std::vector<unsigned> Seen;
  S.forEach([&Seen](unsigned I) { Seen.push_back(I); });
  EXPECT_TRUE(Seen.empty());
  std::vector<unsigned> Expected{0, 5, 63, 64, 65, 127, 128, 199};
  for (unsigned I : Expected)
    S.set(I);
  S.forEach([&Seen](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, Expected);
  EXPECT_EQ(S.toVector(), Expected);
}

TEST(BitSetTest, EqualityComparesContents) {
  BitSet A(8), B(8);
  A.set(3);
  EXPECT_FALSE(A == B);
  B.set(3);
  EXPECT_TRUE(A == B);
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng R(11);
  std::vector<unsigned> P = R.permutation(50);
  std::set<unsigned> Seen(P.begin(), P.end());
  EXPECT_EQ(Seen.size(), 50u);
  EXPECT_EQ(*Seen.begin(), 0u);
  EXPECT_EQ(*Seen.rbegin(), 49u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}
