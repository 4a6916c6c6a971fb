//===- tests/StrategyGoldenTest.cpp - differential refactoring guard ------===//
//
// Replays every line of tests/golden/strategy_stats.golden: regenerates the
// recorded challenge instance from its seed, runs the named strategy through
// the registry with default options, and demands bit-identical affinity
// statistics. The golden file was recorded against the pre-refactor
// implementation, so any behavioral drift in the merge engine, the
// union-by-rank tie-breaks, or a strategy driver fails here first.
//
// Regenerating the file (after an INTENDED behavior change only): iterate
// seeds 1..24 with N = {32,64,96,128,256,512}[(seed-1)%6] and slack
// (seed%2 ? 0 : 2), generate with Rng(seed) / TreeSize=N/2, and print one
// line per strategy with %.17g for the weights.
//
// strategy_stats.golden stops at n = 512, below the 4096-vertex dense/sparse
// switch. The sparse side is pinned by tests/golden/sparse_sweep.jsonl, the
// --no-timing JSONL of
//   rc_sweep --manifest tests/manifests/sparse_golden.manifest --no-timing
//     --jobs 2 --strategies SPECS
// with SPECS the sweep-sparse heuristics
// aggressive,briggs+george,brute-conservative,optimistic,irc,biased-select.
// SparseSweepJsonlMatchesRecording replays it through the batch runner and
// byte-compares.
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeInstance.h"
#include "challenge/StrategyRegistry.h"
#include "coalescing/WorkGraph.h"
#include "runner/BatchRunner.h"
#include "runner/GapReport.h"
#include "runner/SweepManifest.h"
#include "support/Random.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace rc;

#ifndef RC_TEST_DATA_DIR
#error "RC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace {

struct GoldenLine {
  unsigned Seed = 0;
  unsigned N = 0;
  unsigned Slack = 0;
  std::string Strategy;
  CoalescingStats Stats;
};

std::vector<GoldenLine> readGoldenFile(std::string *Error) {
  std::string Path =
      std::string(RC_TEST_DATA_DIR) + "/golden/strategy_stats.golden";
  std::ifstream In(Path);
  if (!In) {
    *Error = "cannot open " + Path;
    return {};
  }
  std::vector<GoldenLine> Lines;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    GoldenLine G;
    char Strategy[64] = {0};
    if (std::sscanf(Line.c_str(),
                    "seed=%u n=%u slack=%u strategy=%63s ca=%u ua=%u "
                    "cw=%lg uw=%lg",
                    &G.Seed, &G.N, &G.Slack, Strategy,
                    &G.Stats.CoalescedAffinities,
                    &G.Stats.UncoalescedAffinities, &G.Stats.CoalescedWeight,
                    &G.Stats.UncoalescedWeight) != 8) {
      *Error = "malformed golden line: " + Line;
      return {};
    }
    G.Strategy = Strategy;
    Lines.push_back(std::move(G));
  }
  return Lines;
}

} // namespace

TEST(StrategyGoldenTest, StatsMatchPreRefactorRecording) {
  std::string Error;
  std::vector<GoldenLine> Lines = readGoldenFile(&Error);
  ASSERT_FALSE(Lines.empty()) << Error;
  // 24 seeds x 9 strategies; a registry rename or a dropped strategy shows
  // up as a count mismatch before any stat comparison.
  ASSERT_EQ(Lines.size(), 216u);

  std::map<unsigned, CoalescingProblem> Instances;
  unsigned Checked = 0;
  for (const GoldenLine &G : Lines) {
    auto It = Instances.find(G.Seed);
    if (It == Instances.end()) {
      Rng Rand(G.Seed);
      ChallengeOptions Options;
      Options.NumValues = G.N;
      Options.TreeSize = G.N / 2;
      Options.PressureSlack = G.Slack;
      It = Instances
               .emplace(G.Seed, generateChallengeInstance(Options, Rand))
               .first;
    }
    const CoalescingProblem &P = It->second;
    ASSERT_EQ(P.G.numVertices(), G.N) << "seed " << G.Seed;

    const StrategyInfo *Info =
        StrategyRegistry::instance().lookup(G.Strategy);
    ASSERT_NE(Info, nullptr)
        << "golden strategy '" << G.Strategy << "' is not registered";
    CoalescingTelemetry T;
    StrategyContext Ctx(T);
    CoalescingSolution S = Info->Run(P, StrategyOptions(), Ctx);
    CoalescingStats Stats = evaluateSolution(P, S);

    std::string Where = "seed " + std::to_string(G.Seed) + " n " +
                        std::to_string(G.N) + " strategy " + G.Strategy;
    EXPECT_EQ(Stats.CoalescedAffinities, G.Stats.CoalescedAffinities)
        << Where;
    EXPECT_EQ(Stats.UncoalescedAffinities, G.Stats.UncoalescedAffinities)
        << Where;
    // %.17g round-trips doubles exactly, so exact comparison is correct.
    EXPECT_EQ(Stats.CoalescedWeight, G.Stats.CoalescedWeight) << Where;
    EXPECT_EQ(Stats.UncoalescedWeight, G.Stats.UncoalescedWeight) << Where;
    ++Checked;
  }
  EXPECT_EQ(Checked, Lines.size());
}

// The order-invariance oracle over the 24 golden instances, one test per
// seed so ctest can spread them: reversed and shuffled edge insertion and
// the text and RCBF round trips leave every registered strategy's outcome
// bytes unchanged.
class StrategyGoldenOrderTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StrategyGoldenOrderTest, OutcomesIgnoreEdgeInsertionOrder) {
  static const std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ASSERT_EQ(Corpus.size(), 24u);
  const LabeledProblem &LP = Corpus[GetParam()];
  Rng Rand(GetParam() + 1);
  std::string Error;
  EXPECT_TRUE(rc::testing::checkOrderInvariance(LP.Problem, Rand, &Error))
      << LP.Label << ": " << Error;
}

INSTANTIATE_TEST_SUITE_P(GoldenSeeds, StrategyGoldenOrderTest,
                         ::testing::Range(0u, 24u));

TEST(StrategyGoldenTest, SparseSweepJsonlMatchesRecording) {
  std::string Dir(RC_TEST_DATA_DIR);
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(loadSweepManifest(Dir + "/manifests/sparse_golden.manifest",
                                Manifest, &Error))
      << Error;
  std::vector<LabeledProblem> Problems;
  ASSERT_TRUE(materializeSweep(Manifest, Problems, &Error)) << Error;
  for (const LabeledProblem &LP : Problems)
    ASSERT_FALSE(WorkGraph(LP.Problem.G).usesDenseAdjacency())
        << LP.Label << " would run on the dense engine";

  BatchOptions Options;
  Options.Workers = 2;
  BatchReport Report = runBatch(
      crossJobs(Problems, {"aggressive", "briggs+george", "brute-conservative",
                           "optimistic", "irc", "biased-select"}),
      Options);
  std::ostringstream Got;
  writeBatchJsonl(Got, Report, /*IncludeTiming=*/false);

  std::ifstream In(Dir + "/golden/sparse_sweep.jsonl", std::ios::binary);
  ASSERT_TRUE(In) << "cannot open golden/sparse_sweep.jsonl";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got.str(), Want.str());
}
