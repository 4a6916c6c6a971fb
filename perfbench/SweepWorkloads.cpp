//===- perfbench/SweepWorkloads.cpp - sweep-dense and sweep-sparse --------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two sweeps run the same heuristic set on generated subtree instances
/// on either side of the 4096-vertex switch between the dense (BitRows)
/// and sparse (CSR + TiledBitRows) representations of Graph and WorkGraph.
/// sweep-dense keeps every instance at or below the threshold and runs the
/// matrix through runBatch with two workers; sweep-sparse writes .rcb files
/// with CorpusGen and streams them one instance at a time through the mmap
/// loader and a one-worker batch, the way `rc_sweep --stream` does. A
/// change to one representation must move one sweep and not the other.
///
/// Both sweeps use the pressure-slack-2, affinity-0.5 subtree shape. At the
/// generator's default affinity (0.8) optimistic's cost per sparse instance
/// ranges from 40 ms to 2.5 s, so a fixed-work run short enough for the
/// benchmark's budget cannot be steady across seeds; at 0.5 the dense/sparse
/// gap is still 4-6x for aggressive, briggs+george and optimistic.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "challenge/ChallengeBinary.h"
#include "coalescing/WorkGraph.h"
#include "runner/BatchRunner.h"
#include "runner/CorpusGen.h"
#include "runner/SweepManifest.h"
#include "support/Digest.h"
#include "support/Random.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace rc;

namespace {

/// The heuristic set both sweeps run on every instance.
const std::vector<std::string> Heuristics = {
    "aggressive", "briggs+george", "brute-conservative",
    "optimistic", "irc",           "biased-select"};

/// Run only on sweep-dense's small instances: the Theorem 5 strategies and
/// the exact branch-and-bound.
const std::vector<std::string> ExactSolvers = {"chordal-thm5",
                                               "exact-chordal-dp", "exact-bb"};

/// Metric-name form of a strategy spec ("briggs+george" -> "briggs-george").
std::string strategyKey(std::string Spec) {
  for (char &C : Spec)
    if (C == '+')
      C = '-';
  return Spec;
}

SweepEntry subtreeEntry(uint64_t Seed, unsigned N) {
  SweepEntry E;
  E.K = SweepEntry::Kind::Subtree;
  E.Seed = Seed;
  E.N = N;
  E.Slack = 2;
  E.Affinity = 0.5;
  return E;
}

std::string digestBytes(const std::string &Bytes) {
  Digest128 D;
  D.update(Bytes.data(), Bytes.size());
  return D.hex();
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

/// State and checks shared by both sweeps.
class SweepBase : public Workload {
protected:
  /// Per-job checks of one batch: the run completed, and every solution
  /// but aggressive's (which ignores k) has a greedy-k-colorable quotient.
  /// Accumulates the quality numbers and, for the traced run, the
  /// per-strategy solve times and engine counters.
  void checkBatch(const BatchReport &R, PassResult &P) {
    for (const BatchJobResult &J : R.Jobs) {
      ++P.Attempted;
      JobOk.push_back(false);
      if (!J.Result.ok() || !J.Result.hasOutcome()) {
        P.fail(J.Instance + " / " + J.Spec + ": status " +
               runStatusName(J.Result.Status) + " " + J.Result.Message);
        continue;
      }
      const StrategyOutcome &O = J.Result.Outcome;
      if (J.Spec != "aggressive" && !O.QuotientGreedyKColorable) {
        P.fail(J.Instance + " / " + J.Spec +
               ": quotient not greedy-k-colorable");
        continue;
      }
      JobOk.back() = true;
      P.addQuality(O.CoalescedWeightRatio, O.Stats.UncoalescedAffinities);
      SolveMs["coalescing." + strategyKey(J.Spec) + ".solve"].push_back(
          O.Microseconds / 1000.0);
      JobMicros += O.Microseconds;
      Telemetry.add(O.Telemetry);
    }
    BatchMicros += R.WallMicros * R.WorkersUsed;
  }

  /// Compares the pass's timing-free JSONL with the reference's, line by
  /// line (one line per job, then rollups and the trailer), and the two
  /// digests as a whole.
  void compareJsonl(const std::string &Reference, PassResult &P) {
    std::vector<std::string> Want = splitLines(Reference);
    std::vector<std::string> Got = splitLines(Output);
    for (size_t I = 0; I < JobOk.size(); ++I) {
      if (!JobOk[I])
        continue;
      if (I >= Want.size() || I >= Got.size() || Want[I] != Got[I]) {
        JobOk[I] = false;
        P.fail("job " + std::to_string(I) +
               ": JSONL differs from the reference");
      }
    }
    std::string ReferenceDigest = digestBytes(Reference);
    std::string OutputDigest = digestBytes(Output);
    if (ReferenceDigest != OutputDigest) {
      P.RunChecksPassed = false;
      P.Failures.push_back("JSONL digest " + OutputDigest +
                           " != reference " + ReferenceDigest);
    }
  }

  void resetPassState() {
    Output.clear();
    JobOk.clear();
    SolveMs.clear();
    Telemetry = CoalescingTelemetry();
    JobMicros = 0;
    BatchMicros = 0;
  }

  void engineLayers(LayerReport &R) const {
    for (const auto &[Name, Samples] : SolveMs)
      R.TimingsMs[Name] = Samples;
    const CoalescingTelemetry &T = Telemetry;
    R.Values["coalescing.merge_attempts"] = T.MergeAttempts;
    R.Values["coalescing.merges"] = T.Merges;
    R.Values["coalescing.merges_rolled_back"] = T.MergesRolledBack;
    R.Values["coalescing.briggs_tests"] = T.BriggsTests;
    R.Values["coalescing.george_tests"] = T.GeorgeTests;
    R.Values["coalescing.brute_force_tests"] = T.BruteForceTests;
    R.Values["coalescing.colorability_checks"] = T.ColorabilityChecks;
    R.Values["coalescing.colorability_ms"] = T.ColorabilityMicros / 1000.0;
    R.Values["coalescing.worklist_reactivations"] = T.WorklistReactivations;
    R.Values["coalescing.cached_test_skips"] = T.CachedTestSkips;
    uint64_t Passed = T.BriggsPassed + T.GeorgePassed + T.BruteForcePassed;
    R.Values["coalescing.test_pass_ratio"] =
        T.conservativeTests() ? double(Passed) / T.conservativeTests() : 0;
    R.Values["coalescing.merge_commit_ratio"] =
        T.MergeAttempts
            ? double(T.Merges - T.MergesRolledBack) / T.MergeAttempts
            : 0;
    R.Values["runner.worker_busy_share"] =
        BatchMicros ? double(JobMicros) / BatchMicros : 0;
  }

  /// Times WorkGraph construction plus enableDegreeCache(K), the engine
  /// set-up every strategy pays before its first safety test.
  static void probeWorkGraph(const CoalescingProblem &P) {
    ScopedSpan Span("coalescing.workgraph_build");
    WorkGraph WG(P.G);
    WG.enableDegreeCache(P.K);
  }

  /// The last pass's timing-free JSONL.
  std::string Output;
  std::vector<bool> JobOk;
  std::map<std::string, std::vector<double>> SolveMs;
  CoalescingTelemetry Telemetry;
  int64_t JobMicros = 0;
  int64_t BatchMicros = 0;
};

//===----------------------------------------------------------------------===//
// sweep-dense
//===----------------------------------------------------------------------===//

class SweepDense final : public SweepBase {
public:
  explicit SweepDense(const RunConfig &C) {
    // Largest first, so the two workers finish together.
    const std::pair<unsigned, unsigned> Sizes[] = {
        {4096, 24}, {3072, 24}, {2048, 48}, {1024, 96}, {256, 16}};
    uint64_t Stream = 0;
    for (auto [N, PerTen] : Sizes)
      for (unsigned I = 0, E = scaledCount(PerTen, C.Seconds); I < E; ++I)
        Entries.push_back(subtreeEntry(deriveSeed(C.Seed, Stream++), N));
  }

  std::string describe() const override {
    return std::to_string(Entries.size()) +
           " subtree instances n<=4096 x 6 heuristics (+3 exact solvers on "
           "n=256), runBatch with 2 workers";
  }

  void setup() override {
    Problems.clear();
    Problems.resize(Entries.size());
    for (size_t I = 0; I < Entries.size(); ++I) {
      ScopedSpan Span("runner.materialize");
      std::string Error;
      if (!materializeSweepEntry(Entries[I], Problems[I], &Error))
        throw std::runtime_error("materialize failed: " + Error);
    }
    Jobs.clear();
    for (const LabeledProblem &LP : Problems) {
      for (const std::string &Spec : Heuristics)
        Jobs.push_back(BatchJob{&LP.Problem, LP.Label, Spec});
      if (LP.Problem.G.numVertices() <= 256)
        for (const std::string &Spec : ExactSolvers)
          Jobs.push_back(BatchJob{&LP.Problem, LP.Label, Spec});
    }
  }

  std::string inputDigest() const override {
    Digest128 D;
    for (const LabeledProblem &LP : Problems) {
      std::ostringstream Bytes;
      writeChallengeBinary(Bytes, LP.Problem);
      D.updateString(Bytes.str());
    }
    return D.hex();
  }

  PassResult pass() override {
    resetPassState();
    PassResult P;
    int64_t Start = nowNs();
    BatchReport R;
    {
      ScopedSpan Span("runner.batch");
      BatchOptions Options;
      Options.Workers = 2;
      R = runBatch(Jobs, Options);
    }
    std::ostringstream Sink;
    {
      ScopedSpan Span("runner.jsonl");
      writeBatchJsonl(Sink, R, /*IncludeTiming=*/false);
    }
    P.WallS = secondsSince(Start);
    Output = Sink.str();
    checkBatch(R, P);
    return P;
  }

  void check(PassResult &P) override {
    if (Reference.empty()) {
      // Same jobs, twice the workers: the report must not depend on the
      // worker count or the completion order.
      BatchOptions Options;
      Options.Workers = 4;
      std::ostringstream Sink;
      writeBatchJsonl(Sink, runBatch(Jobs, Options), false);
      Reference = Sink.str();
    }
    compareJsonl(Reference, P);
  }

  void layers(LayerReport &R) override {
    engineLayers(R);
    for (const LabeledProblem &LP : Problems)
      probeWorkGraph(LP.Problem);
  }

private:
  std::vector<SweepEntry> Entries;
  std::vector<LabeledProblem> Problems;
  std::vector<BatchJob> Jobs;
  std::string Reference;
};

//===----------------------------------------------------------------------===//
// sweep-sparse
//===----------------------------------------------------------------------===//

class SweepSparse final : public SweepBase {
public:
  explicit SweepSparse(const RunConfig &C)
      : CorpusDir(C.WorkDir + "/corpus") {
    const unsigned Sizes[] = {4097, 4400, 4700, 5000};
    unsigned PerSize = scaledCount(8, C.Seconds);
    uint64_t Stream = 0;
    for (unsigned I = 0; I < PerSize; ++I)
      for (unsigned N : Sizes)
        Entries.push_back(subtreeEntry(deriveSeed(C.Seed, Stream++), N));
  }

  std::string describe() const override {
    return std::to_string(Entries.size()) +
           " .rcb files n=4097..5000 x 6 heuristics, streamed one instance "
           "at a time, 1 worker";
  }

  void setup() override {
    std::filesystem::remove_all(CorpusDir);
    // One entry per generateCorpus call, so every instance gets its own
    // generate span; each lands in Staging and is renamed into the corpus.
    std::string Staging = CorpusDir + "/staging";
    std::filesystem::create_directories(Staging);
    Paths.clear();
    for (size_t I = 0; I < Entries.size(); ++I) {
      CorpusGenOptions Options;
      Options.OutDir = Staging;
      std::string Error;
      {
        ScopedSpan Span("challenge.generate");
        if (!generateCorpus({Entries[I]}, Options, nullptr, &Error))
          throw std::runtime_error("corpus generation failed: " + Error);
      }
      char Name[32];
      std::snprintf(Name, sizeof(Name), "inst-%05zu.rcb", I);
      Paths.push_back(CorpusDir + "/" + Name);
      std::filesystem::rename(corpusInstancePath(Options, 0), Paths.back());
    }
  }

  std::string inputDigest() const override {
    Digest128 D;
    for (const std::string &Path : Paths) {
      std::ifstream In(Path, std::ios::binary);
      std::string Bytes((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
      D.updateString(Bytes);
    }
    return D.hex();
  }

  PassResult pass() override {
    resetPassState();
    LoadBytes = 0;
    LoadMs.clear();
    PassResult P;
    int64_t Start = nowNs();
    std::ostringstream Sink;
    std::vector<StrategyRollup> Rollups;
    BatchTotals Totals;
    for (const std::string &Path : Paths) {
      CoalescingProblem Problem;
      std::string Error;
      bool Loaded;
      {
        int64_t LoadStart = nowNs();
        ScopedSpan Span("challenge.load");
        Loaded = readChallengeFile(Path, Problem, &Error);
        LoadMs.push_back(secondsSince(LoadStart) * 1000.0);
      }
      if (!Loaded) {
        for (size_t I = 0; I < Heuristics.size(); ++I) {
          ++P.Attempted;
          JobOk.push_back(false);
          P.fail(Path + ": load failed: " + Error);
        }
        continue;
      }
      LoadBytes += std::filesystem::file_size(Path);
      std::vector<BatchJob> Jobs;
      for (const std::string &Spec : Heuristics)
        Jobs.push_back(BatchJob{&Problem, Path, Spec});
      BatchReport R;
      {
        ScopedSpan Span("runner.batch");
        R = runBatch(Jobs);
      }
      {
        ScopedSpan Span("runner.jsonl");
        writeBatchJobsJsonl(Sink, R, false, Totals.Jobs);
      }
      mergeRollups(Rollups, R.Rollups);
      Totals.Jobs += R.Jobs.size();
      Totals.Failed += R.failedJobs();
      Totals.TimedOut += R.timedOutJobs();
      checkBatch(R, P);
    }
    writeBatchRollupsJsonl(Sink, Rollups, false);
    writeBatchTrailerJsonl(Sink, Totals, false);
    P.WallS = secondsSince(Start);
    Output = Sink.str();
    return P;
  }

  void check(PassResult &P) override {
    if (Reference.empty()) {
      // One monolithic batch over buffered (non-mmap) loads with four
      // workers: streaming, mmap and the worker count must not show in
      // the bytes.
      std::vector<CoalescingProblem> Problems(Paths.size());
      std::vector<BatchJob> Jobs;
      for (size_t I = 0; I < Paths.size(); ++I) {
        std::string Error;
        if (!readChallengeFile(Paths[I], Problems[I], &Error,
                               MappedFile::Mode::Buffered)) {
          P.RunChecksPassed = false;
          P.Failures.push_back("reference load failed: " + Error);
          return;
        }
        for (const std::string &Spec : Heuristics)
          Jobs.push_back(BatchJob{&Problems[I], Paths[I], Spec});
      }
      BatchOptions Options;
      Options.Workers = 4;
      std::ostringstream Sink;
      writeBatchJsonl(Sink, runBatch(Jobs, Options), false);
      Reference = Sink.str();
    }
    compareJsonl(Reference, P);
  }

  void layers(LayerReport &R) override {
    engineLayers(R);
    double Ms = 0;
    for (double V : LoadMs)
      Ms += V;
    R.Values["challenge.load_mb_per_s"] =
        Ms > 0 ? (LoadBytes / 1e6) / (Ms / 1000.0) : 0;
    for (const std::string &Path : Paths) {
      CoalescingProblem Problem;
      if (readChallengeFile(Path, Problem))
        probeWorkGraph(Problem);
    }
  }

private:
  std::string CorpusDir;
  std::vector<SweepEntry> Entries;
  std::vector<std::string> Paths;
  std::string Reference;
  uint64_t LoadBytes = 0;
  std::vector<double> LoadMs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeSweepDense(const RunConfig &C) {
  return std::make_unique<SweepDense>(C);
}

std::unique_ptr<Workload> perfbench::makeSweepSparse(const RunConfig &C) {
  return std::make_unique<SweepSparse>(C);
}
