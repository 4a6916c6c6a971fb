//===- tests/FormatRoundTripTest.cpp - text/binary format tests -----------===//
//
// Round-trip and rejection coverage for the binary challenge format
// (challenge/ChallengeBinary.h), the content-sniffing loader, the digest
// cache key's canonicality, and the streaming sweep's byte-identity with
// the monolithic batch report.
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeFormat.h"
#include "runner/BatchRunner.h"
#include "runner/SweepManifest.h"
#include "service/ResultCache.h"
#include "support/MappedFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <unistd.h>

using namespace rc;

namespace {

/// Canonical byte rendering used for instance-identity comparisons.
std::string canonicalBytes(const CoalescingProblem &P) {
  std::ostringstream OS;
  writeChallengeBinary(OS, P);
  return OS.str();
}

/// Serializes to binary and parses it back, expecting success.
CoalescingProblem binaryRoundTrip(const CoalescingProblem &P) {
  std::istringstream In(canonicalBytes(P));
  CoalescingProblem Q;
  std::string Error;
  EXPECT_TRUE(readChallengeBinary(In, Q, &Error)) << Error;
  return Q;
}

CoalescingProblem parseText(const std::string &Text) {
  std::istringstream In(Text);
  CoalescingProblem P;
  std::string Error;
  EXPECT_TRUE(readChallenge(In, P, &Error)) << Error;
  return P;
}

/// Writes \p P's canonical binary rendering to a per-process temp file and
/// returns its path; callers remove it.
std::string writeTempBinary(const CoalescingProblem &P, const char *Tag) {
  std::string Path = ::testing::TempDir() + "rc_format_" + Tag + "_" +
                     std::to_string(::getpid()) + ".rcb";
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  writeChallengeBinary(Out, P);
  Out.flush();
  EXPECT_TRUE(static_cast<bool>(Out)) << Path;
  return Path;
}

} // namespace

TEST(FormatRoundTripTest, EmptyInstance) {
  CoalescingProblem P;
  P.K = 2;
  P.G = GraphBuilder(0).build();
  CoalescingProblem Q = binaryRoundTrip(P);
  EXPECT_EQ(Q.K, 2u);
  EXPECT_EQ(Q.G.numVertices(), 0u);
  EXPECT_EQ(Q.G.numEdges(), 0u);
  EXPECT_TRUE(Q.Affinities.empty());
}

TEST(FormatRoundTripTest, EdgesAndAffinitiesSurvive) {
  CoalescingProblem P;
  P.K = 3;
  GraphBuilder GB(6);
  GB.addEdge(0, 1);
  GB.addEdge(4, 2);
  GB.addEdge(5, 0);
  P.Affinities.push_back({2, 3, 1.5});
  P.Affinities.push_back({5, 1, 7.0});
  P.G = std::move(GB).build();
  CoalescingProblem Q = binaryRoundTrip(P);
  EXPECT_EQ(Q.K, 3u);
  EXPECT_EQ(Q.G.numEdges(), 3u);
  EXPECT_TRUE(Q.G.hasEdge(0, 1));
  EXPECT_TRUE(Q.G.hasEdge(2, 4));
  EXPECT_TRUE(Q.G.hasEdge(0, 5));
  ASSERT_EQ(Q.Affinities.size(), 2u);
  EXPECT_EQ(Q.Affinities[0].U, 2u);
  EXPECT_EQ(Q.Affinities[0].V, 3u);
  EXPECT_EQ(Q.Affinities[0].Weight, 1.5);
  EXPECT_EQ(Q.Affinities[1].Weight, 7.0);
}

TEST(FormatRoundTripTest, ExtremeWeightsAreBitExact) {
  // Weights travel as raw IEEE-754 bits, so values the text format would
  // round (max double, subnormals, long fractions) survive unchanged.
  CoalescingProblem P;
  P.K = 2;
  P.G = GraphBuilder(3).build();
  P.Affinities.push_back({0, 1, std::numeric_limits<double>::max()});
  P.Affinities.push_back({1, 2, std::numeric_limits<double>::denorm_min()});
  P.Affinities.push_back({0, 2, 0.1 + 0.2});
  CoalescingProblem Q = binaryRoundTrip(P);
  ASSERT_EQ(Q.Affinities.size(), 3u);
  EXPECT_EQ(Q.Affinities[0].Weight, std::numeric_limits<double>::max());
  EXPECT_EQ(Q.Affinities[1].Weight,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Q.Affinities[2].Weight, 0.1 + 0.2);
}

TEST(FormatRoundTripTest, CanonicalAcrossInsertionOrders) {
  // The same edge set inserted in different orders serializes to the same
  // bytes: the writer sorts.
  CoalescingProblem A, B;
  A.K = B.K = 4;
  GraphBuilder AB(5);
  AB.addEdge(3, 4);
  AB.addEdge(0, 2);
  AB.addEdge(1, 2);
  GraphBuilder BB(5);
  BB.addEdge(2, 1);
  BB.addEdge(4, 3);
  BB.addEdge(2, 0);
  A.G = std::move(AB).build();
  B.G = std::move(BB).build();
  EXPECT_EQ(canonicalBytes(A), canonicalBytes(B));
}

TEST(FormatRoundTripTest, CommentHeavyTextAutoDetects) {
  const std::string Text = "# header comment\n"
                           "\n"
                           "# another comment\n"
                           "k 2\n"
                           "# mid-stream comment\n"
                           "n 3\n"
                           "e 0 1\n"
                           "# trailing comment\n"
                           "a 1 2 4.25\n";
  std::istringstream In(Text);
  CoalescingProblem P;
  std::string Error;
  ASSERT_TRUE(readChallengeAuto(In, P, &Error)) << Error;
  EXPECT_EQ(P.K, 2u);
  EXPECT_TRUE(P.G.hasEdge(0, 1));
  ASSERT_EQ(P.Affinities.size(), 1u);
  EXPECT_EQ(P.Affinities[0].Weight, 4.25);
}

TEST(FormatRoundTripTest, BinaryAutoDetects) {
  CoalescingProblem P = parseText("k 2\nn 4\ne 0 3\ne 1 2\na 0 1 2\n");
  std::istringstream In(canonicalBytes(P));
  CoalescingProblem Q;
  std::string Error;
  ASSERT_TRUE(readChallengeAuto(In, Q, &Error)) << Error;
  EXPECT_EQ(canonicalBytes(Q), canonicalBytes(P));
}

TEST(FormatRoundTripTest, TextBinaryTextIsStable) {
  CoalescingProblem P = parseText("k 3\nn 5\ne 2 4\ne 0 1\na 0 4 1.25\n");
  CoalescingProblem Q = binaryRoundTrip(P);
  std::ostringstream T1, T2;
  writeChallenge(T1, Q);
  writeChallenge(T2, binaryRoundTrip(Q));
  EXPECT_EQ(T1.str(), T2.str());
}

TEST(FormatRoundTripTest, MappedReaderMatchesBufferedOnGolden24) {
  // The zero-copy mmap path, the explicit buffered fallback, and the
  // istream reader must reconstruct byte-identical instances for the whole
  // golden-24 corpus (the same 24 seeds strategy_stats.golden records).
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(loadSweepManifest(std::string(RC_TEST_DATA_DIR) +
                                    "/manifests/golden24.manifest",
                                Manifest, &Error))
      << Error;
  ASSERT_EQ(Manifest.Entries.size(), 24u);
  for (const SweepEntry &Entry : Manifest.Entries) {
    LabeledProblem LP;
    ASSERT_TRUE(materializeSweepEntry(Entry, LP, &Error)) << Error;
    const std::string Want = canonicalBytes(LP.Problem);
    std::string Path = writeTempBinary(LP.Problem, "golden24");
    CoalescingProblem Mapped, Buffered;
    ASSERT_TRUE(readChallengeFile(Path, Mapped, &Error)) << Error;
    ASSERT_TRUE(readChallengeFile(Path, Buffered, &Error,
                                  MappedFile::Mode::Buffered))
        << Error;
    EXPECT_EQ(canonicalBytes(Mapped), Want) << Entry.label();
    EXPECT_EQ(canonicalBytes(Buffered), Want) << Entry.label();
    std::remove(Path.c_str());
  }
}

TEST(FormatRoundTripTest, MappedMatchesBuffered65k) {
  // The streaming-scale instance (tests/manifests/scale65k.manifest): the
  // mapped view must actually engage mmap on this platform, and all three
  // readers — zero-copy buffer parse, forced-buffered fallback, istream —
  // must agree byte for byte.
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(loadSweepManifest(std::string(RC_TEST_DATA_DIR) +
                                    "/manifests/scale65k.manifest",
                                Manifest, &Error))
      << Error;
  ASSERT_EQ(Manifest.Entries.size(), 1u);
  LabeledProblem LP;
  ASSERT_TRUE(materializeSweepEntry(Manifest.Entries[0], LP, &Error))
      << Error;
  ASSERT_EQ(LP.Problem.G.numVertices(), 65536u);
  const std::string Want = canonicalBytes(LP.Problem);
  std::string Path = writeTempBinary(LP.Problem, "scale65k");

  MappedFile File;
  ASSERT_TRUE(File.open(Path, &Error)) << Error;
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(File.isMapped());
#endif
  CoalescingProblem FromMapped;
  ASSERT_TRUE(readChallengeMapped(File, FromMapped, &Error)) << Error;
  EXPECT_EQ(canonicalBytes(FromMapped), Want);

  CoalescingProblem FromBuffered;
  ASSERT_TRUE(readChallengeFile(Path, FromBuffered, &Error,
                                MappedFile::Mode::Buffered))
      << Error;
  EXPECT_EQ(canonicalBytes(FromBuffered), Want);

  std::ifstream In(Path, std::ios::binary);
  CoalescingProblem FromStream;
  ASSERT_TRUE(readChallengeBinary(In, FromStream, &Error)) << Error;
  EXPECT_EQ(canonicalBytes(FromStream), Want);
  std::remove(Path.c_str());
}

TEST(FormatRoundTripTest, MappedTextMatchesStreamText) {
  // A text instance read in place from the mapped view, from the buffered
  // fallback and through readChallenge(std::istream&) is the same
  // instance, byte for byte.
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(loadSweepManifest(std::string(RC_TEST_DATA_DIR) +
                                    "/manifests/golden24.manifest",
                                Manifest, &Error))
      << Error;
  ASSERT_FALSE(Manifest.Entries.empty());
  LabeledProblem LP;
  ASSERT_TRUE(materializeSweepEntry(Manifest.Entries.back(), LP, &Error))
      << Error;
  std::string Path = ::testing::TempDir() + "rc_format_text_" +
                     std::to_string(::getpid()) + ".txt";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    writeChallenge(Out, LP.Problem);
    Out << "# a trailing comment without a newline";
    ASSERT_TRUE(static_cast<bool>(Out)) << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  CoalescingProblem FromStream, Mapped, Buffered;
  ASSERT_TRUE(readChallenge(In, FromStream, &Error)) << Error;
  ASSERT_TRUE(readChallengeFile(Path, Mapped, &Error)) << Error;
  ASSERT_TRUE(readChallengeFile(Path, Buffered, &Error,
                                MappedFile::Mode::Buffered))
      << Error;
  const std::string Want = canonicalBytes(FromStream);
  EXPECT_EQ(canonicalBytes(Mapped), Want);
  EXPECT_EQ(canonicalBytes(Buffered), Want);
  EXPECT_EQ(FromStream.G.numEdges(), LP.Problem.G.numEdges());
  std::remove(Path.c_str());
}

TEST(FormatRoundTripTest, RejectsCorruptInputs) {
  CoalescingProblem P = parseText("k 2\nn 4\ne 0 3\ne 1 2\na 0 1 2\n");
  const std::string Good = canonicalBytes(P);

  // Every corruption must be refused by both binary readers: the istream
  // parser and the zero-copy buffer parser behind the mmap path.
  auto rejects = [](std::string Bytes, const char *What) {
    {
      std::istringstream In(Bytes);
      CoalescingProblem Q;
      std::string Error;
      EXPECT_FALSE(readChallengeBinary(In, Q, &Error)) << What;
      EXPECT_FALSE(Error.empty()) << What;
    }
    {
      CoalescingProblem Q;
      std::string Error;
      EXPECT_FALSE(readChallengeBinaryBuffer(
          reinterpret_cast<const unsigned char *>(Bytes.data()),
          Bytes.size(), Q, &Error))
          << What;
      EXPECT_FALSE(Error.empty()) << What;
    }
  };

  rejects("", "empty stream");
  rejects("RCB", "short magic");
  rejects("XXXX" + Good.substr(4), "bad magic");
  {
    std::string Bad = Good;
    Bad[4] = 99; // version
    rejects(Bad, "unsupported version");
  }
  {
    std::string Bad = Good;
    for (int I = 0; I < 4; ++I)
      Bad[8 + I] = 0; // k
    rejects(Bad, "zero register count");
  }
  // Counts past the shared caps: 4294967295 is what `-1` used to become.
  auto withU32 = [&Good](size_t Offset, uint32_t Value) {
    std::string Bad = Good;
    for (int I = 0; I < 4; ++I)
      Bad[Offset + I] = static_cast<char>((Value >> (8 * I)) & 0xFF);
    return Bad;
  };
  rejects(withU32(8, 4294967295u), "register count 2^32 - 1");
  rejects(withU32(8, MaxChallengeRegisters + 1), "register count over cap");
  rejects(withU32(12, 4294967295u), "vertex count 2^32 - 1");
  rejects(withU32(12, MaxChallengeVertices + 1), "vertex count over cap");
  rejects(Good.substr(0, 20), "truncated header");
  rejects(Good.substr(0, 36), "truncated edge list");
  rejects(Good.substr(0, Good.size() - 3), "truncated affinity list");
  rejects(Good + "x", "trailing garbage");
  {
    std::string Bad = Good;
    Bad[32] = 9; // first edge endpoint -> out of range (n = 4)
    rejects(Bad, "endpoint out of range");
  }
  {
    // Swap the two edges: (1,2) before (0,3) violates sorted order.
    std::string Bad = Good;
    for (int I = 0; I < 8; ++I)
      std::swap(Bad[32 + I], Bad[40 + I]);
    rejects(Bad, "unsorted edges");
  }
  {
    std::string Bad = Good;
    Bad[16] = 100; // edge count > n*(n-1)/2
    rejects(Bad, "impossible edge count");
  }
  {
    // Declared counts whose byte footprint overflows size_t arithmetic
    // must be rejected up front, before any allocation is sized from them.
    std::string Bad = Good;
    for (int I = 0; I < 8; ++I)
      Bad[16 + I] = static_cast<char>(0xFF); // edge count ~ 2^64
    rejects(Bad, "edge count overflows size arithmetic");
  }
  {
    std::string Bad = Good;
    for (int I = 0; I < 8; ++I)
      Bad[24 + I] = static_cast<char>(0xFF); // affinity count ~ 2^64
    rejects(Bad, "affinity count overflows size arithmetic");
  }
}

TEST(FormatRoundTripTest, DigestKeyIsFixedSizeAndCanonical) {
  CoalescingProblem A, B;
  A.K = B.K = 3;
  GraphBuilder AB(4);
  AB.addEdge(0, 1);
  AB.addEdge(2, 3);
  GraphBuilder BB(4);
  BB.addEdge(3, 2);
  BB.addEdge(1, 0);
  A.G = std::move(AB).build();
  B.G = std::move(BB).build();
  A.Affinities.push_back({0, 2, 5.0});
  B.Affinities.push_back({0, 2, 5.0});

  std::string KeyA = canonicalRequestKey(A, "briggs");
  EXPECT_EQ(KeyA.size(), 32u);
  EXPECT_EQ(KeyA.find_first_not_of("0123456789abcdef"), std::string::npos);
  // Same instance, different adjacency insertion order: same key.
  EXPECT_EQ(KeyA, canonicalRequestKey(B, "briggs"));
  // Any semantic change moves the key.
  EXPECT_NE(KeyA, canonicalRequestKey(A, "irc"));
  B.Affinities[0].Weight = 6.0;
  EXPECT_NE(KeyA, canonicalRequestKey(B, "briggs"));
  B.Affinities[0].Weight = 5.0;
  B.K = 4;
  EXPECT_NE(KeyA, canonicalRequestKey(B, "briggs"));
}

TEST(FormatRoundTripTest, DigestKeyedCacheReplaysBytes) {
  // Cold store / warm hit through the digest key returns the payload
  // verbatim — the byte-replay contract the service golden guard relies
  // on, now with constant-size keys.
  CoalescingProblem P = parseText("k 2\nn 3\ne 0 1\na 0 2 2\n");
  ResultCache Cache(4);
  std::string Key = canonicalRequestKey(P, "briggs");
  std::string Payload = "{\"response\":\"bytes\"}";
  std::string Got;
  EXPECT_FALSE(Cache.lookup(Key, Got));
  Cache.insert(Key, Payload);
  ASSERT_TRUE(Cache.lookup(Key, Got));
  EXPECT_EQ(Got, Payload);
  // A rebuilt problem (fresh adjacency) maps to the same entry.
  CoalescingProblem P2 = parseText("k 2\nn 3\ne 0 1\na 0 2 2\n");
  ASSERT_TRUE(Cache.lookup(canonicalRequestKey(P2, "briggs"), Got));
  EXPECT_EQ(Got, Payload);
}

TEST(FormatRoundTripTest, StreamedReportMatchesMonolithic) {
  // Two instances, two specs: one monolithic batch vs per-instance batches
  // emitted through the split writers with merged rollups. The timing-free
  // serializations must be byte-identical — the contract behind
  // rc_sweep --stream.
  std::vector<LabeledProblem> Problems(2);
  Problems[0].Label = "first";
  Problems[0].Problem = parseText("k 2\nn 4\ne 0 1\ne 2 3\na 0 2 3\n");
  Problems[1].Label = "second";
  Problems[1].Problem = parseText("k 2\nn 3\ne 0 2\na 0 1 2\na 1 2 1\n");
  std::vector<std::string> Specs = {"briggs", "george"};

  std::ostringstream Mono;
  writeBatchJsonl(Mono, runBatch(crossJobs(Problems, Specs)), false);

  std::ostringstream Streamed;
  std::vector<StrategyRollup> Rollups;
  BatchTotals Totals;
  for (const LabeledProblem &LP : Problems) {
    std::vector<LabeledProblem> One(1);
    One[0].Label = LP.Label;
    One[0].Problem = LP.Problem;
    BatchReport Report = runBatch(crossJobs(One, Specs));
    writeBatchJobsJsonl(Streamed, Report, false, Totals.Jobs);
    mergeRollups(Rollups, Report.Rollups);
    Totals.Jobs += Report.Jobs.size();
    Totals.Failed += Report.failedJobs();
    Totals.TimedOut += Report.timedOutJobs();
  }
  writeBatchRollupsJsonl(Streamed, Rollups, false);
  writeBatchTrailerJsonl(Streamed, Totals, false);

  EXPECT_EQ(Mono.str(), Streamed.str());
}
