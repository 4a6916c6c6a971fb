//===- ir/Function.cpp - Mini strict-SSA IR -------------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace rc;
using namespace rc::ir;

BlockId Function::createBlock() {
  Blocks.emplace_back();
  return static_cast<BlockId>(Blocks.size() - 1);
}

ValueId Function::createValue(std::string Name) {
  ValueNames.push_back(std::move(Name));
  return NumValues++;
}

std::string Function::valueName(ValueId V) const {
  assert(V < NumValues && "value out of range");
  if (!ValueNames[V].empty())
    return ValueNames[V];
  return std::string("v").append(std::to_string(V));
}

void Function::appendInstruction(BlockId B, Instruction I) {
  BasicBlock &BB = block(B);
  assert((BB.Body.empty() || !isTerminator(BB.Body.back().Op)) &&
         "appending past the terminator");
  BB.Body.push_back(std::move(I));
}

ValueId Function::emitConst(BlockId B, int64_t Imm, std::string Name) {
  ValueId Dst = createValue(std::move(Name));
  Instruction I;
  I.Op = Opcode::Const;
  I.Dst = Dst;
  I.Imm = Imm;
  appendInstruction(B, std::move(I));
  return Dst;
}

ValueId Function::emitCopy(BlockId B, ValueId Src, std::string Name) {
  ValueId Dst = createValue(std::move(Name));
  emitCopyInto(B, Dst, Src);
  return Dst;
}

void Function::emitCopyInto(BlockId B, ValueId Dst, ValueId Src) {
  assert(Dst < NumValues && Src < NumValues && "value out of range");
  Instruction I;
  I.Op = Opcode::Copy;
  I.Dst = Dst;
  I.Srcs = {Src};
  appendInstruction(B, std::move(I));
}

ValueId Function::emitBinary(BlockId B, Opcode Op, ValueId Lhs, ValueId Rhs,
                             std::string Name) {
  assert((Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::Mul) &&
         "not a binary opcode");
  ValueId Dst = createValue(std::move(Name));
  Instruction I;
  I.Op = Op;
  I.Dst = Dst;
  I.Srcs = {Lhs, Rhs};
  appendInstruction(B, std::move(I));
  return Dst;
}

ValueId Function::emitPhi(BlockId B, std::vector<PhiArg> Args,
                          std::string Name) {
  ValueId Dst = createValue(std::move(Name));
  Instruction I;
  I.Op = Opcode::Phi;
  I.Dst = Dst;
  I.PhiArgs = std::move(Args);
  block(B).Phis.push_back(std::move(I));
  return Dst;
}

ValueId Function::emitLoad(BlockId B, int64_t Slot, std::string Name) {
  ValueId Dst = createValue(std::move(Name));
  Instruction I;
  I.Op = Opcode::Load;
  I.Dst = Dst;
  I.Imm = Slot;
  appendInstruction(B, std::move(I));
  return Dst;
}

void Function::emitStore(BlockId B, ValueId Src, int64_t Slot) {
  assert(Src < NumValues && "value out of range");
  Instruction I;
  I.Op = Opcode::Store;
  I.Srcs = {Src};
  I.Imm = Slot;
  appendInstruction(B, std::move(I));
}

void Function::emitJump(BlockId B, BlockId Target) {
  Instruction I;
  I.Op = Opcode::Jump;
  appendInstruction(B, std::move(I));
  block(B).Succs = {Target};
}

void Function::emitBranch(BlockId B, ValueId Cond, BlockId TrueTarget,
                          BlockId FalseTarget) {
  Instruction I;
  I.Op = Opcode::Branch;
  I.Srcs = {Cond};
  appendInstruction(B, std::move(I));
  block(B).Succs = {TrueTarget, FalseTarget};
}

void Function::emitRet(BlockId B, std::vector<ValueId> Values) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.Srcs = std::move(Values);
  appendInstruction(B, std::move(I));
  block(B).Succs.clear();
}

void Function::computePredecessors() {
  for (BasicBlock &BB : Blocks)
    BB.Preds.clear();
  for (BlockId B = 0; B < numBlocks(); ++B)
    for (BlockId S : Blocks[B].Succs)
      Blocks[S].Preds.push_back(B);
}

std::vector<BlockId> Function::reversePostOrder() const {
  std::vector<BlockId> PostOrder;
  std::vector<uint8_t> State(numBlocks(), 0); // 0 new, 1 open, 2 done.
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextIdx] = Stack.back();
    const auto &Succs = Blocks[B].Succs;
    if (NextIdx == Succs.size()) {
      State[B] = 2;
      PostOrder.push_back(B);
      Stack.pop_back();
      continue;
    }
    BlockId S = Succs[NextIdx++];
    if (State[S] == 0) {
      State[S] = 1;
      Stack.emplace_back(S, 0);
    }
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

static const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Copy:
    return "copy";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Phi:
    return "phi";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Jump:
    return "jump";
  case Opcode::Branch:
    return "br";
  case Opcode::Ret:
    return "ret";
  }
  return "?";
}

void Function::print(std::ostream &OS) const {
  for (BlockId B = 0; B < numBlocks(); ++B) {
    const BasicBlock &BB = Blocks[B];
    OS << "bb" << B << ":";
    if (BB.Frequency != 1.0)
      OS << "  ; freq=" << BB.Frequency;
    OS << "\n";
    for (const Instruction &I : BB.Phis) {
      OS << "  " << valueName(I.Dst) << " = phi";
      for (const PhiArg &Arg : I.PhiArgs)
        OS << " [bb" << Arg.Pred << ": " << valueName(Arg.Value) << "]";
      OS << "\n";
    }
    for (const Instruction &I : BB.Body) {
      OS << "  ";
      if (I.Dst != NoValue)
        OS << valueName(I.Dst) << " = ";
      OS << opcodeName(I.Op);
      if (I.Op == Opcode::Const)
        OS << " " << I.Imm;
      if (I.Op == Opcode::Load || I.Op == Opcode::Store)
        OS << " [slot " << I.Imm << "]";
      for (ValueId Src : I.Srcs)
        OS << " " << valueName(Src);
      if (I.Op == Opcode::Jump)
        OS << " bb" << BB.Succs[0];
      if (I.Op == Opcode::Branch)
        OS << " ? bb" << BB.Succs[0] << " : bb" << BB.Succs[1];
      OS << "\n";
    }
  }
}
