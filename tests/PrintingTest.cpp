//===- tests/PrintingTest.cpp - textual output paths --------------------------===//

#include "graph/GraphWriter.h"
#include "ir/Function.h"
#include "ir/OutOfSsa.h"
#include "regalloc/SpillRewriter.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rc;
using namespace rc::ir;

TEST(GraphWriterTest, DotContainsEdgesAndAffinities) {
  GraphBuilder GB(3);
  GB.addEdge(0, 1);
  std::vector<Affinity> Affinities = {{1, 2, 3.5}};
  std::vector<std::string> Names = {"a", "b", "c"};
  std::ostringstream OS;
  Graph G = std::move(GB).build();
  writeDot(OS, G, Affinities, Names);
  std::string Dot = OS.str();
  EXPECT_NE(Dot.find("graph interference"), std::string::npos);
  EXPECT_NE(Dot.find("\"a\" -- \"b\";"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("3.5"), std::string::npos);
}

TEST(GraphWriterTest, DefaultNamesAreVPrefixed) {
  GraphBuilder GB(2);
  GB.addEdge(0, 1);
  std::ostringstream OS;
  Graph G = std::move(GB).build();
  writeDot(OS, G);
  EXPECT_NE(OS.str().find("\"v0\" -- \"v1\";"), std::string::npos);
}

TEST(FunctionPrintTest, AllOpcodesPrint) {
  Function F;
  BlockId B1 = F.createBlock();
  ValueId A = F.emitConst(0, 7, "a");
  ValueId B = F.emitCopy(0, A, "b");
  ValueId C = F.emitBinary(0, Opcode::Add, A, B, "c");
  ValueId D = F.emitBinary(0, Opcode::Sub, C, A, "d");
  ValueId E = F.emitBinary(0, Opcode::Mul, C, D, "e");
  F.emitStore(0, E, 3);
  ValueId L = F.emitLoad(0, 3, "l");
  F.emitBranch(0, L, B1, B1);
  F.emitRet(B1, {L});
  F.computePredecessors();

  std::ostringstream OS;
  F.print(OS);
  std::string Text = OS.str();
  for (const char *Token :
       {"const 7", "copy", "add", "sub", "mul", "store", "[slot 3]",
        "load", "br", "ret", "bb0", "bb1"})
    EXPECT_NE(Text.find(Token), std::string::npos) << Token;
}

TEST(FunctionPrintTest, PhiPrintsIncomingEdges) {
  Function F;
  BlockId B1 = F.createBlock();
  ValueId A = F.emitConst(0, 1, "a");
  F.emitJump(0, B1);
  F.computePredecessors();
  F.emitPhi(B1, {{0, A}}, "p");
  F.emitRet(B1, {});
  F.computePredecessors();
  std::ostringstream OS;
  F.print(OS);
  EXPECT_NE(OS.str().find("p = phi [bb0: a]"), std::string::npos);
}

TEST(FunctionPrintTest, FrequencyAnnotation) {
  Function F;
  F.block(0).Frequency = 8.0;
  F.emitRet(0, {});
  std::ostringstream OS;
  F.print(OS);
  EXPECT_NE(OS.str().find("freq=8"), std::string::npos);
}
