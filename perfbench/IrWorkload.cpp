//===- perfbench/IrWorkload.cpp - ir-pipeline -----------------------------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler path: random strict-SSA functions (the generated inputs)
/// go through verification, liveness and Maxlive, the interference graph,
/// and both allocators at three register counts; the interpreter runs the
/// original and every allocated function, and their return values must
/// agree. This is the only workload through the `ir` and `regalloc`
/// layers.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Liveness.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"
#include "regalloc/Allocators.h"
#include "support/Digest.h"
#include "support/Random.h"

#include <sstream>

using namespace perfbench;
using namespace rc;
using namespace rc::ir;
using namespace rc::regalloc;

namespace {

/// Register counts every function is allocated at: below, near and above
/// the typical Maxlive of the generated functions.
const unsigned RegisterCounts[] = {4, 8, 16};

/// The knob set of the SSA-pipeline and allocator micro-benchmarks: denser
/// blocks, more phis, explicit copies.
GeneratorOptions denseSsaKnobs(unsigned NumBlocks) {
  GeneratorOptions O;
  O.NumBlocks = NumBlocks;
  O.MaxInstructionsPerBlock = 8;
  O.MaxPhisPerJoin = 4;
  O.CopyProbability = 0.3;
  return O;
}

class IrPipeline final : public Workload {
public:
  explicit IrPipeline(const RunConfig &C)
      : Config(C), NumFunctions(scaledCount(2000, C.Seconds, 1000)) {}

  std::string describe() const override {
    return std::to_string(NumFunctions) +
           " SSA functions (8-32 blocks) -> verify -> liveness -> "
           "interference -> two-phase and Chaitin/IRC at k=4,8,16 -> "
           "interpreter check";
  }

  unsigned setupRepetitions() const override { return 15; }

  void setup() override {
    Functions.clear();
    Functions.reserve(NumFunctions);
    const unsigned Blocks[] = {8, 16, 24, 32};
    for (unsigned I = 0; I < NumFunctions; ++I) {
      Rng Rand(deriveSeed(Config.Seed, I));
      ScopedSpan Span("ir.generate", I);
      Functions.push_back(generateRandomSsaFunction(
          denseSsaKnobs(Blocks[I % std::size(Blocks)]), Rand));
    }
  }

  std::string inputDigest() const override {
    Digest128 D;
    for (const Function &F : Functions) {
      std::ostringstream OS;
      F.print(OS);
      D.updateString(OS.str());
    }
    return D.hex();
  }

  PassResult pass() override {
    PassResult P;
    Iterations = Loads = Stores = Allocations = 0;
    int64_t Start = nowNs();
    for (size_t I = 0; I < Functions.size(); ++I) {
      int64_t T0 = nowNs();
      bool Ok = runOne(Functions[I], I, P);
      double Ms = (nowNs() - T0) / 1e6;
      ++P.Attempted;
      if (Ok)
        P.LatencyMs.push_back(Ms);
    }
    P.WallS = secondsSince(Start);
    return P;
  }

  /// Every output is checked inside the pass, against the interpreter run
  /// of the original function.
  void check(PassResult &) override {}

  void layers(LayerReport &R) override {
    double N = Allocations ? double(Allocations) : 1.0;
    R.Values["regalloc.iterations"] = Iterations / N;
    R.Values["regalloc.loads_inserted"] = Loads / N;
    R.Values["regalloc.stores_inserted"] = Stores / N;
  }

private:
  /// Runs the pipeline on \p F; false (with one failure counted) when any
  /// stage or check fails.
  bool runOne(const Function &F, uint64_t Id, PassResult &P) {
    std::string Error;
    bool Verified;
    {
      ScopedSpan Span("ir.verify", Id);
      Verified = verifyStrictSsa(F, &Error);
    }
    if (!Verified) {
      P.fail("function " + std::to_string(Id) + ": not strict SSA: " + Error);
      return false;
    }
    {
      ScopedSpan Span("ir.liveness", Id);
      Liveness L = Liveness::compute(F);
      computeMaxlive(F, L);
    }
    {
      ScopedSpan Span("ir.interference", Id);
      buildInterferenceGraph(F);
    }
    ExecutionResult Original;
    {
      ScopedSpan Span("ir.interpret", Id);
      Original = interpret(F);
    }
    if (!Original.Ok) {
      P.fail("function " + std::to_string(Id) +
             ": original does not run: " + Original.Error);
      return false;
    }
    for (unsigned K : RegisterCounts) {
      AllocationResult A;
      {
        ScopedSpan Span("regalloc.two_phase", Id);
        A = allocateTwoPhase(F, K);
      }
      if (!checkAllocation(A, Original, Id, K, "two-phase", P))
        return false;
      {
        ScopedSpan Span("regalloc.chaitin_irc", Id);
        A = allocateChaitinIrc(F, K);
      }
      if (!checkAllocation(A, Original, Id, K, "chaitin-irc", P))
        return false;
    }
    return true;
  }

  bool checkAllocation(const AllocationResult &A,
                       const ExecutionResult &Original, uint64_t Id,
                       unsigned K, const char *Allocator, PassResult &P) {
    std::string Where = "function " + std::to_string(Id) + " " + Allocator +
                        " k=" + std::to_string(K);
    if (!A.Success) {
      P.fail(Where + ": allocation failed");
      return false;
    }
    ExecutionResult Run;
    {
      ScopedSpan Span("ir.interpret", Id);
      Run = interpret(A.Allocated);
    }
    if (!Run.Ok || Run.ReturnValues != Original.ReturnValues) {
      P.fail(Where + ": allocated code returns different values");
      return false;
    }
    unsigned Moves = A.MovesRemoved + A.MovesRemaining;
    P.addQuality(Moves ? double(A.MovesRemoved) / Moves : 1.0,
                 A.MovesRemaining);
    P.SpilledSum += A.SpilledValues;
    ++P.SpilledCount;
    Iterations += A.Iterations;
    Loads += A.LoadsInserted;
    Stores += A.StoresInserted;
    ++Allocations;
    return true;
  }

  RunConfig Config;
  unsigned NumFunctions;
  std::vector<Function> Functions;
  uint64_t Iterations = 0, Loads = 0, Stores = 0, Allocations = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeIrPipeline(const RunConfig &C) {
  return std::make_unique<IrPipeline>(C);
}
