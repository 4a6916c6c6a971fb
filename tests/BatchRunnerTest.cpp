//===- tests/BatchRunnerTest.cpp - batch engine & cancellation ------------===//
//
// The batch runner's contract: (a) reports are byte-identical whatever the
// worker count (determinism), (b) deadlines turn slow exact strategies into
// flagged partial outcomes without corrupting the merge engine, and (c) bad
// specs come back as recoverable RunRequest statuses instead of asserts.
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeInstance.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "runner/BatchRunner.h"
#include "runner/SweepManifest.h"
#include "support/CancelToken.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace rc;
using namespace rc::testing;

#ifndef RC_TEST_DATA_DIR
#error "RC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace {

std::vector<LabeledProblem> loadGoldenSuite() {
  SweepManifest Manifest;
  std::string Error;
  std::string Path =
      std::string(RC_TEST_DATA_DIR) + "/manifests/golden24.manifest";
  EXPECT_TRUE(loadSweepManifest(Path, Manifest, &Error)) << Error;
  EXPECT_EQ(Manifest.Entries.size(), 24u);
  std::vector<LabeledProblem> Problems;
  EXPECT_TRUE(materializeSweep(Manifest, Problems, &Error)) << Error;
  return Problems;
}

CoalescingProblem makeInstance(unsigned N, uint64_t Seed, unsigned Slack) {
  Rng Rand(Seed);
  ChallengeOptions Options;
  Options.NumValues = N;
  Options.TreeSize = N / 2;
  Options.PressureSlack = Slack;
  return generateChallengeInstance(Options, Rand);
}

} // namespace

// (a) The acceptance criterion: the full golden suite through 1 worker and
// through 8 workers serializes byte-identically once timing is suppressed.
TEST(BatchRunnerTest, JsonlIdenticalAcrossWorkerCounts) {
  std::vector<LabeledProblem> Problems = loadGoldenSuite();
  ASSERT_EQ(Problems.size(), 24u);
  std::vector<std::string> Specs = {"briggs", "briggs+george", "optimistic",
                                    "irc"};
  std::vector<BatchJob> Jobs = crossJobs(Problems, Specs);
  ASSERT_EQ(Jobs.size(), 96u);

  BatchOptions Serial;
  Serial.Workers = 1;
  BatchReport SerialReport = runBatch(Jobs, Serial);
  BatchOptions Pool;
  Pool.Workers = 8;
  BatchReport PoolReport = runBatch(Jobs, Pool);

  EXPECT_EQ(SerialReport.WorkersUsed, 1u);
  EXPECT_EQ(PoolReport.WorkersUsed, 8u);
  EXPECT_TRUE(SerialReport.allOk());
  EXPECT_TRUE(PoolReport.allOk());

  std::ostringstream A, B;
  writeBatchJsonl(A, SerialReport, /*IncludeTiming=*/false);
  writeBatchJsonl(B, PoolReport, /*IncludeTiming=*/false);
  EXPECT_EQ(A.str(), B.str());

  ASSERT_EQ(SerialReport.Rollups.size(), Specs.size());
  for (size_t I = 0; I < Specs.size(); ++I) {
    const StrategyRollup &Rollup = SerialReport.Rollups[I];
    EXPECT_EQ(Rollup.Spec, Specs[I]);
    EXPECT_EQ(Rollup.Runs, 24u);
    EXPECT_EQ(Rollup.Completed, 24u);
    EXPECT_EQ(Rollup.TimedOut, 0u);
    EXPECT_EQ(Rollup.Failed, 0u);
    EXPECT_GT(Rollup.meanRatio(), 0.0);
  }
}

// (b) A tiny deadline on the brute-force conservative strategy: the job
// comes back TimedOut with a flagged partial outcome, and the engine is
// not corrupted -- the rollback oracle still passes on the same graph.
// The instance must take well over the 1 ms deadline to solve: 2048
// values run for tens of milliseconds, while the local brute-force probes
// can finish 512 inside the deadline.
TEST(BatchRunnerTest, DeadlineYieldsFlaggedPartialOutcome) {
  CoalescingProblem P = makeInstance(2048, 6, /*Slack=*/2);
  RunRequest Request;
  Request.Problem = &P;
  Request.Spec = "brute-conservative";
  Request.TimeoutMillis = 1;
  RunResult Result = runStrategy(Request);
  ASSERT_EQ(Result.Status, RunStatus::TimedOut);
  EXPECT_TRUE(Result.hasOutcome());
  EXPECT_FALSE(Result.ok());
  EXPECT_TRUE(Result.Outcome.TimedOut);
  EXPECT_TRUE(Result.Outcome.Partial);
  EXPECT_NE(Result.Message.find("deadline"), std::string::npos);
  // Conservative merges preserve greedy-k-colorability at every prefix, so
  // even the partial quotient must still be colorable.
  EXPECT_TRUE(Result.Outcome.QuotientGreedyKColorable);

  std::string Error;
  Rng Rand(99);
  EXPECT_TRUE(checkWorkGraphRollback(P.G, 40, Rand, &Error)) << Error;
}

// The exact baselines through the batch runner: a per-job deadline turns
// exact-bb and both Theorem 5 strategies into flagged partial outcomes
// (never errors), and the partial quotients stay greedy-k-colorable -- the
// dashboard counts them into rollups like any other run.
TEST(BatchRunnerTest, ExactStrategiesHonorBatchDeadlines) {
  std::vector<LabeledProblem> Problems;
  LabeledProblem LP;
  LP.Label = "seed=6 n=512";
  LP.Problem = makeInstance(512, 6, /*Slack=*/2);
  Problems.push_back(std::move(LP));

  BatchOptions Options;
  Options.Workers = 2;
  Options.TimeoutMillis = 1;
  BatchReport Report =
      runBatch(crossJobs(Problems,
                         {"exact-bb", "exact-chordal-dp", "chordal-thm5"}),
               Options);
  ASSERT_EQ(Report.Jobs.size(), 3u);
  EXPECT_EQ(Report.timedOutJobs(), 3u);
  EXPECT_EQ(Report.failedJobs(), 0u);
  for (const BatchJobResult &Job : Report.Jobs) {
    ASSERT_EQ(Job.Result.Status, RunStatus::TimedOut) << Job.Spec;
    EXPECT_TRUE(Job.Result.hasOutcome());
    EXPECT_TRUE(Job.Result.Outcome.TimedOut);
    EXPECT_TRUE(Job.Result.Outcome.Partial);
    EXPECT_TRUE(Job.Result.Outcome.QuotientGreedyKColorable) << Job.Spec;
  }
  ASSERT_EQ(Report.Rollups.size(), 3u);
  for (const StrategyRollup &Rollup : Report.Rollups) {
    EXPECT_EQ(Rollup.Runs, 1u);
    EXPECT_EQ(Rollup.TimedOut, 1u);
    EXPECT_EQ(Rollup.Completed, 0u);
  }
}

TEST(BatchRunnerTest, CancelledTokenStopsDriversSoundly) {
  CoalescingProblem P = makeInstance(96, 3, /*Slack=*/0);
  CancelToken Cancelled;
  Cancelled.cancel();

  ConservativeResult Conservative = conservativeCoalesce(
      P, ConservativeRule::BruteForce, nullptr, &Cancelled);
  EXPECT_TRUE(Conservative.TimedOut);
  std::string Error;
  EXPECT_TRUE(checkSolutionSound(P, Conservative.Solution,
                                 /*RequireGreedy=*/true, &Error))
      << Error;

  ExactSearchResult Exact = exactCoalesceSearch(
      P, {ExactFeasibility::Greedy}, /*Telemetry=*/nullptr, &Cancelled);
  EXPECT_TRUE(Exact.TimedOut);
  EXPECT_FALSE(Exact.Optimal);
  EXPECT_TRUE(checkSolutionSound(P, Exact.Solution, /*RequireGreedy=*/true,
                                 &Error))
      << Error;
}

TEST(BatchRunnerTest, BatchWideCancelExpiresEveryJob) {
  std::vector<LabeledProblem> Problems;
  for (uint64_t Seed : {1, 2}) {
    LabeledProblem LP;
    LP.Label = "seed=" + std::to_string(Seed);
    LP.Problem = makeInstance(64, Seed, 0);
    Problems.push_back(std::move(LP));
  }
  CancelToken Cancelled;
  Cancelled.cancel();
  BatchOptions Options;
  Options.Workers = 2;
  Options.Cancel = &Cancelled;
  BatchReport Report = runBatch(crossJobs(Problems, {"briggs"}), Options);
  ASSERT_EQ(Report.Jobs.size(), 2u);
  EXPECT_EQ(Report.timedOutJobs(), 2u);
  EXPECT_EQ(Report.failedJobs(), 0u);
  for (const BatchJobResult &Job : Report.Jobs) {
    EXPECT_EQ(Job.Result.Status, RunStatus::TimedOut);
    // The driver stops before its first merge, deterministically.
    EXPECT_EQ(Job.Result.Outcome.Stats.CoalescedAffinities, 0u);
  }
}

// (c) Error statuses: unknown and malformed specs are recoverable results
// that identify the problem, not asserts.
TEST(BatchRunnerTest, RunRequestErrorStatuses) {
  CoalescingProblem P = makeInstance(32, 1, 0);
  RunRequest Request;
  Request.Problem = &P;

  Request.Spec = "nope";
  RunResult Unknown = runStrategy(Request);
  EXPECT_EQ(Unknown.Status, RunStatus::UnknownStrategy);
  EXPECT_FALSE(Unknown.hasOutcome());
  EXPECT_NE(Unknown.Message.find("registered:"), std::string::npos);
  EXPECT_NE(Unknown.Message.find("briggs"), std::string::npos);

  Request.Spec = "briggs:george";
  EXPECT_EQ(runStrategy(Request).Status, RunStatus::BadOption);

  Request.Spec = "briggs:foo=1";
  RunResult UnknownKey = runStrategy(Request);
  EXPECT_EQ(UnknownKey.Status, RunStatus::BadOption);
  EXPECT_NE(UnknownKey.Message.find("does not take option"),
            std::string::npos);

  Request.Spec = "optimistic:dissolve=weird";
  RunResult BadEnum = runStrategy(Request);
  EXPECT_EQ(BadEnum.Status, RunStatus::BadOption);
  EXPECT_NE(BadEnum.Message.find("must be one of"), std::string::npos);

  Request.Spec = "irc:george=2";
  EXPECT_EQ(runStrategy(Request).Status, RunStatus::BadOption);

  // The same validation without running anything.
  std::string Message;
  EXPECT_EQ(checkStrategySpec("nope", &Message), RunStatus::UnknownStrategy);
  EXPECT_EQ(checkStrategySpec("irc:george=1"), RunStatus::Ok);
  EXPECT_EQ(checkStrategySpec("optimistic:restore=0,dissolve=biggest"),
            RunStatus::Ok);
}

TEST(BatchRunnerTest, BadSpecsDoNotPoisonTheBatch) {
  std::vector<LabeledProblem> Problems;
  LabeledProblem LP;
  LP.Label = "seed=1";
  LP.Problem = makeInstance(32, 1, 0);
  Problems.push_back(std::move(LP));
  BatchReport Report =
      runBatch(crossJobs(Problems, {"briggs", "nope", "george"}));
  ASSERT_EQ(Report.Jobs.size(), 3u);
  EXPECT_EQ(Report.failedJobs(), 1u);
  EXPECT_TRUE(Report.Jobs[0].Result.ok());
  EXPECT_EQ(Report.Jobs[1].Result.Status, RunStatus::UnknownStrategy);
  EXPECT_TRUE(Report.Jobs[2].Result.ok());

  std::ostringstream OS;
  writeBatchJsonl(OS, Report, /*IncludeTiming=*/false);
  std::string Jsonl = OS.str();
  EXPECT_NE(Jsonl.find("\"status\":\"unknown-strategy\""),
            std::string::npos);
  EXPECT_NE(Jsonl.find("\"batch\":{\"jobs\":3,\"failed\":1,\"timed_out\":0}"),
            std::string::npos);
  // Timing-suppressed output must not leak scheduling-dependent fields.
  EXPECT_EQ(Jsonl.find("\"workers\":"), std::string::npos);
}

TEST(BatchRunnerTest, CrossJobsOrdersInstanceMajor) {
  std::vector<LabeledProblem> Problems;
  for (uint64_t Seed : {1, 2}) {
    LabeledProblem LP;
    LP.Label = "seed=" + std::to_string(Seed);
    LP.Problem = makeInstance(32, Seed, 0);
    Problems.push_back(std::move(LP));
  }
  std::vector<BatchJob> Jobs =
      crossJobs(Problems, {"aggressive", "briggs"});
  ASSERT_EQ(Jobs.size(), 4u);
  EXPECT_EQ(Jobs[0].Instance, "seed=1");
  EXPECT_EQ(Jobs[0].Spec, "aggressive");
  EXPECT_EQ(Jobs[1].Instance, "seed=1");
  EXPECT_EQ(Jobs[1].Spec, "briggs");
  EXPECT_EQ(Jobs[2].Instance, "seed=2");
  EXPECT_EQ(Jobs[3].Spec, "briggs");
}

TEST(BatchRunnerTest, ManifestParsing) {
  std::istringstream In("# comment\n"
                        "\n"
                        "subtree seed=3 n=96 slack=0\n"
                        "  program seed=7 blocks=12 slack=2\n"
                        "file some/instance.txt\n");
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(parseSweepManifest(In, Manifest, &Error)) << Error;
  ASSERT_EQ(Manifest.Entries.size(), 3u);
  EXPECT_EQ(Manifest.Entries[0].label(), "subtree seed=3 n=96 slack=0");
  EXPECT_EQ(Manifest.Entries[1].label(), "program seed=7 blocks=12 slack=2");
  EXPECT_EQ(Manifest.Entries[2].label(), "file some/instance.txt");

  auto parseLine = [](const std::string &Line, std::string *Err) {
    std::istringstream LineIn(Line);
    SweepManifest M;
    return parseSweepManifest(LineIn, M, Err);
  };
  EXPECT_FALSE(parseLine("quotient seed=1 n=32", &Error));
  EXPECT_NE(Error.find("unknown entry kind"), std::string::npos);
  EXPECT_FALSE(parseLine("subtree seed=1", &Error));
  EXPECT_NE(Error.find("n=<count>"), std::string::npos);
  EXPECT_FALSE(parseLine("subtree seed=1 n=32 beta=2", &Error));
  EXPECT_NE(Error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parseLine("file   ", &Error));
  EXPECT_FALSE(parseLine("subtree seed=1 n=32x", &Error));
  // Counts are unsigned decimal digits: strtoul alone wraps "-1" and skips
  // a leading '+' or blank. n and slack share the instance readers' caps.
  for (const char *Line :
       {"subtree seed=1 n=-1", "subtree seed=-1 n=32", "subtree seed=1 n=+32",
        "subtree seed=1 n=32 slack=-2", "program seed=1 blocks=-12",
        "subtree seed=1 n=4294967296", "subtree seed=1 n=16777217",
        "subtree seed=1 n=32 slack=65537",
        "subtree seed=99999999999999999999 n=32"}) {
    EXPECT_FALSE(parseLine(Line, &Error)) << Line;
    EXPECT_NE(Error.find("malformed value"), std::string::npos) << Line;
  }
}

TEST(BatchRunnerTest, CancelTokenDeadlinesAndChaining) {
  CancelToken Immediate{std::chrono::milliseconds(0)};
  EXPECT_FALSE(Immediate.expired()); // lazily noticed
  EXPECT_TRUE(Immediate.pollNow());
  EXPECT_TRUE(Immediate.expired());

  CancelToken Parent;
  CancelToken Child;
  Child.setParent(&Parent);
  EXPECT_FALSE(Child.pollNow());
  Parent.cancel();
  EXPECT_TRUE(Child.pollNow());
  EXPECT_TRUE(Child.expired());

  // poll() notices a past deadline on its stride boundary (the first call).
  CancelToken Strided{std::chrono::milliseconds(-5)};
  EXPECT_TRUE(Strided.poll());
}
