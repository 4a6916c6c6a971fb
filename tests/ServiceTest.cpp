//===- tests/ServiceTest.cpp - coalescing service & wire protocol ---------===//
//
// The service contract: (a) responses for golden-corpus instances are
// byte-identical to single-shot runStrategy results, cache cold and warm,
// (b) the frame protocol is strict parse-or-reject but survives oversized
// payloads, (c) admission control answers busy instead of queueing without
// bound, and (d) deadline-expired and shutdown-cancelled requests come
// back as flagged partials, never as hangs or asserts.
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeFormat.h"
#include "runner/GapReport.h"
#include "runner/WorkerPool.h"
#include "service/ResultCache.h"
#include "service/Service.h"
#include "service/ServiceLoop.h"
#include "service/WireProtocol.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace rc;

namespace {

/// The response payload a single-shot runStrategy produces for \p P under
/// \p Spec — the byte-identity baseline the service is held to.
std::string singleShotPayload(const CoalescingProblem &P,
                              const std::string &Spec) {
  RunRequest Request;
  Request.Problem = &P;
  Request.Spec = Spec;
  RunResult Result = runStrategy(Request);
  WireResponse R;
  R.Status = replyStatusFromRun(Result.Status);
  R.Message = Result.Message;
  if (Result.hasOutcome())
    R.Outcome = &Result.Outcome;
  return buildResponsePayload(R, /*IncludeTiming=*/false);
}

WireRequest makeWireRequest(const CoalescingProblem &P,
                            const std::string &Spec,
                            int64_t DeadlineMillis = 0) {
  WireRequest R;
  R.Spec = Spec;
  R.DeadlineMillis = DeadlineMillis;
  R.Problem = P;
  return R;
}

/// A Runner hook that parks until its token expires, then reports a
/// flagged partial — deterministic stand-in for a slow strategy.
RunResult blockUntilCancelled(const RunRequest &Request) {
  while (!Request.Cancel->pollNow())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  RunResult Result;
  Result.Status = RunStatus::TimedOut;
  Result.Outcome.Name = Request.Spec;
  Result.Outcome.TimedOut = true;
  Result.Outcome.Partial = true;
  return Result;
}

/// Reads every frame out of \p Bytes; fails the test on malformed input.
std::vector<Frame> decodeFrames(const std::string &Bytes) {
  std::istringstream IS(Bytes);
  std::vector<Frame> Frames;
  for (;;) {
    Frame F;
    std::string Error;
    FrameReadStatus S = readFrame(IS, F, kDefaultMaxPayloadBytes, &Error);
    if (S == FrameReadStatus::Eof)
      break;
    EXPECT_EQ(S, FrameReadStatus::Ok) << Error;
    if (S != FrameReadStatus::Ok)
      break;
    Frames.push_back(std::move(F));
  }
  return Frames;
}

std::string statusOf(const Frame &F) {
  std::string Status;
  EXPECT_TRUE(extractResponseStatus(F.Payload, Status)) << F.Payload;
  return Status;
}

} // namespace

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

TEST(WorkerPoolTest, RunsEveryTask) {
  WorkerPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.drain();
  EXPECT_EQ(Count.load(), 100);
}

TEST(WorkerPoolTest, DrainWaitsForTasksSubmittedFromTasks) {
  WorkerPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&] {
    Count.fetch_add(1);
    Pool.submit([&] { Count.fetch_add(1); });
  });
  Pool.drain();
  EXPECT_EQ(Count.load(), 2);
}

TEST(WorkerPoolTest, DrainOnIdlePoolReturns) {
  WorkerPool Pool(1);
  Pool.drain();
  EXPECT_EQ(Pool.workers(), 1u);
}

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

TEST(WireProtocolTest, FramesRoundTrip) {
  std::ostringstream OS;
  writeFrame(OS, FrameType::Request, "hello");
  writeFrame(OS, FrameType::Shutdown, "");
  std::istringstream IS(OS.str());

  Frame F;
  ASSERT_EQ(readFrame(IS, F), FrameReadStatus::Ok);
  EXPECT_EQ(F.Type, FrameType::Request);
  EXPECT_EQ(F.Payload, "hello");
  ASSERT_EQ(readFrame(IS, F), FrameReadStatus::Ok);
  EXPECT_EQ(F.Type, FrameType::Shutdown);
  EXPECT_EQ(F.Payload, "");
  EXPECT_EQ(readFrame(IS, F), FrameReadStatus::Eof);
}

TEST(WireProtocolTest, EmptyStreamIsCleanEof) {
  std::istringstream IS("");
  Frame F;
  EXPECT_EQ(readFrame(IS, F), FrameReadStatus::Eof);
}

TEST(WireProtocolTest, BadMagicIsMalformed) {
  std::istringstream IS(std::string("XXSP\x01\x01\x00\x00\x00\x00", 10));
  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, kDefaultMaxPayloadBytes, &Error),
            FrameReadStatus::Malformed);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(WireProtocolTest, UnsupportedVersionIsMalformed) {
  std::istringstream IS(std::string("RCSP\x7f\x01\x00\x00\x00\x00", 10));
  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, kDefaultMaxPayloadBytes, &Error),
            FrameReadStatus::Malformed);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(WireProtocolTest, UnknownFrameTypeIsMalformed) {
  std::istringstream IS(std::string("RCSP\x01\x09\x00\x00\x00\x00", 10));
  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, kDefaultMaxPayloadBytes, &Error),
            FrameReadStatus::Malformed);
  EXPECT_NE(Error.find("type"), std::string::npos) << Error;
}

TEST(WireProtocolTest, TruncatedHeaderIsMalformed) {
  std::istringstream IS("RCSP\x01");
  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, kDefaultMaxPayloadBytes, &Error),
            FrameReadStatus::Malformed);
  EXPECT_NE(Error.find("header"), std::string::npos) << Error;
}

TEST(WireProtocolTest, TruncatedPayloadIsMalformed) {
  std::ostringstream OS;
  writeFrame(OS, FrameType::Request, "full payload");
  std::string Bytes = OS.str();
  Bytes.resize(Bytes.size() - 4); // Chop the payload tail.
  std::istringstream IS(Bytes);
  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, kDefaultMaxPayloadBytes, &Error),
            FrameReadStatus::Malformed);
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(WireProtocolTest, OversizedPayloadIsSkippedAndRecoverable) {
  std::ostringstream OS;
  writeFrame(OS, FrameType::Request, std::string(100, 'x'));
  writeFrame(OS, FrameType::Request, "small");
  std::istringstream IS(OS.str());

  Frame F;
  std::string Error;
  EXPECT_EQ(readFrame(IS, F, /*MaxPayloadBytes=*/16, &Error),
            FrameReadStatus::TooLarge);
  EXPECT_NE(Error.find("exceeds"), std::string::npos) << Error;
  // The oversized payload was consumed; the next frame parses normally.
  ASSERT_EQ(readFrame(IS, F, /*MaxPayloadBytes=*/16, &Error),
            FrameReadStatus::Ok);
  EXPECT_EQ(F.Payload, "small");
}

//===----------------------------------------------------------------------===//
// Request payload grammar
//===----------------------------------------------------------------------===//

TEST(WireProtocolTest, RequestPayloadRoundTrips) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ASSERT_FALSE(Corpus.empty());
  const CoalescingProblem &P = Corpus.front().Problem;

  std::string Payload = buildRequestPayload(P, "briggs:seo=1", 250);
  WireRequest Request;
  std::string Error;
  ASSERT_TRUE(parseRequestPayload(Payload, Request, &Error)) << Error;
  EXPECT_EQ(Request.Spec, "briggs:seo=1");
  EXPECT_EQ(Request.DeadlineMillis, 250);
  // The parsed instance is the same graph: canonical keys agree.
  EXPECT_EQ(canonicalRequestKey(Request.Problem, "x"),
            canonicalRequestKey(P, "x"));
}

TEST(WireProtocolTest, RequestGrammarIsStrict) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  std::ostringstream Instance;
  writeChallenge(Instance, Corpus.front().Problem);

  struct Case {
    const char *Label;
    std::string Payload;
    const char *ErrorNeedle;
  };
  const Case Cases[] = {
      {"missing version line", "spec briggs\ninstance\n" + Instance.str(),
       "must start with"},
      {"wrong version", "rcq 99\nspec briggs\ninstance\n" + Instance.str(),
       "must start with"},
      {"missing spec", "rcq 1\ninstance\n" + Instance.str(), "spec"},
      {"empty spec", "rcq 1\nspec \ninstance\n" + Instance.str(), "spec"},
      {"duplicate spec",
       "rcq 1\nspec briggs\nspec irc\ninstance\n" + Instance.str(),
       "duplicate"},
      {"bad deadline",
       "rcq 1\nspec briggs\ndeadline-ms nope\ninstance\n" + Instance.str(),
       "deadline-ms"},
      {"negative deadline",
       "rcq 1\nspec briggs\ndeadline-ms -5\ninstance\n" + Instance.str(),
       "deadline-ms"},
      // strtoll used to read this as LLONG_MAX, whose deadline overflowed
      // at admission and expired at once.
      {"overflowing deadline",
       "rcq 1\nspec briggs\ndeadline-ms 99999999999999999999\ninstance\n" +
           Instance.str(),
       "invalid 'deadline-ms'"},
      {"deadline past the cap",
       "rcq 1\nspec briggs\ndeadline-ms 2147483648\ninstance\n" +
           Instance.str(),
       "exceeds the limit 2147483647"},
      {"signed deadline",
       "rcq 1\nspec briggs\ndeadline-ms +5\ninstance\n" + Instance.str(),
       "invalid 'deadline-ms'"},
      {"unknown line",
       "rcq 1\nspec briggs\npriority 7\ninstance\n" + Instance.str(),
       "unknown request line"},
      {"missing instance", "rcq 1\nspec briggs\n", "instance"},
      {"malformed instance", "rcq 1\nspec briggs\ninstance\nnot a graph\n",
       "malformed instance"},
      {"zero registers", "rcq 1\nspec briggs\ninstance\nk 0\nn 2\n",
       "register count must be positive"},
      // `>> unsigned` used to read "-1" as 4294967295; a biased-select
      // solve would then size a k-entry table per vertex.
      {"negative registers",
       "rcq 1\nspec biased-select\ninstance\nk -1\nn 2\n",
       "malformed register count '-1'"},
      {"huge registers",
       "rcq 1\nspec biased-select\ninstance\nk 4294967295\nn 2\n",
       "register count 4294967295 exceeds the limit"},
      {"negative vertices", "rcq 1\nspec briggs\ninstance\nk 2\nn -1\n",
       "malformed vertex count '-1'"},
      // Endpoints and weights are whole tokens; each of these used to load
      // as a different instance (e 0 1, e 1 2, weight 0).
      {"wrapped endpoint",
       "rcq 1\nspec briggs\ninstance\nk 2\nn 2\ne -4294967295 0\n",
       "line 3: malformed interference edge"},
      {"fractional endpoint",
       "rcq 1\nspec briggs\ninstance\nk 2\nn 3\ne 1 2.5\n",
       "line 3: malformed interference edge"},
      {"hex weight", "rcq 1\nspec briggs\ninstance\nk 2\nn 2\na 0 1 0x1p3\n",
       "line 3: malformed affinity"},
      {"infinite weight",
       "rcq 1\nspec briggs\ninstance\nk 2\nn 2\na 0 1 inf\n",
       "line 3: malformed affinity"},
      {"nan weight", "rcq 1\nspec briggs\ninstance\nk 2\nn 2\na 0 1 nan\n",
       "line 3: malformed affinity"},
      // A second 'n' used to shrink the graph under the affinity (0, 4).
      {"duplicate vertex count",
       "rcq 1\nspec briggs\ninstance\nk 2\nn 5\na 0 4 1\nn 2\n",
       "line 4: duplicate 'n' line"},
  };
  for (const Case &C : Cases) {
    WireRequest Request;
    std::string Error;
    EXPECT_FALSE(parseRequestPayload(C.Payload, Request, &Error)) << C.Label;
    EXPECT_NE(Error.find(C.ErrorNeedle), std::string::npos)
        << C.Label << ": " << Error;
  }

  // The cap itself is a valid deadline.
  WireRequest AtCap;
  std::string Error;
  ASSERT_TRUE(parseRequestPayload(
      "rcq 1\nspec briggs\ndeadline-ms 2147483647\ninstance\n" +
          Instance.str(),
      AtCap, &Error))
      << Error;
  EXPECT_EQ(AtCap.DeadlineMillis, kMaxDeadlineMillis);
}

TEST(WireProtocolTest, TruncatedAndFlippedPayloadsParseOrFail) {
  // Every prefix of a real request, and every prefix with its last byte
  // flipped, must parse or return a diagnostic; none may crash (the asan
  // build runs this through the buffer parser's pointer arithmetic).
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  const std::string Payload =
      buildRequestPayload(Corpus.front().Problem, "briggs", 250);
  ASSERT_LT(Payload.size(), 8192u);
  unsigned Parsed = 0;
  for (size_t Len = 0; Len <= Payload.size(); ++Len) {
    std::string Prefix = Payload.substr(0, Len);
    std::string Flipped = Prefix;
    if (Len > 0)
      Flipped[Len - 1] = static_cast<char>(Flipped[Len - 1] ^ (1 << (Len % 8)));
    for (const std::string &Bytes : {Prefix, Flipped}) {
      WireRequest Request;
      std::string Error;
      if (parseRequestPayload(Bytes, Request, &Error))
        ++Parsed;
      else
        EXPECT_FALSE(Error.empty()) << Len;
    }
  }
  // The whole payload parses, so at least one prefix does.
  EXPECT_GT(Parsed, 0u);
}

TEST(WireProtocolTest, ResponsePayloadCarriesBadOptionDiagnostics) {
  WireResponse R;
  R.Status = ReplyStatus::BadOption;
  R.Message = "strategy 'briggs' does not take option 'bogus'";
  R.BadKey = "bogus";
  R.BadValue = "1";
  std::string Payload = buildResponsePayload(R, /*IncludeTiming=*/false);
  EXPECT_NE(Payload.find("\"status\":\"bad-option\""), std::string::npos);
  EXPECT_NE(Payload.find("\"bad_key\":\"bogus\""), std::string::npos);
  EXPECT_NE(Payload.find("\"bad_value\":\"1\""), std::string::npos);

  std::string Status;
  ASSERT_TRUE(extractResponseStatus(Payload, Status));
  EXPECT_EQ(Status, "bad-option");
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, KeyDiscriminatesInstanceSpecAndPressure) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  CoalescingProblem A = Corpus[0].Problem;
  CoalescingProblem B = Corpus[1].Problem;

  EXPECT_EQ(canonicalRequestKey(A, "briggs"), canonicalRequestKey(A, "briggs"));
  EXPECT_NE(canonicalRequestKey(A, "briggs"), canonicalRequestKey(A, "irc"));
  EXPECT_NE(canonicalRequestKey(A, "briggs"), canonicalRequestKey(B, "briggs"));

  CoalescingProblem MoreRegisters = A;
  MoreRegisters.K += 1;
  EXPECT_NE(canonicalRequestKey(A, "briggs"),
            canonicalRequestKey(MoreRegisters, "briggs"));
}

TEST(ResultCacheTest, LruEvictsBeyondCapacity) {
  ResultCache Cache(2);
  Cache.insert("a", "1");
  Cache.insert("b", "2");
  std::string Out;
  EXPECT_TRUE(Cache.lookup("a", Out)); // Refresh "a": "b" becomes LRU.
  Cache.insert("c", "3");
  EXPECT_TRUE(Cache.lookup("a", Out));
  EXPECT_FALSE(Cache.lookup("b", Out));
  EXPECT_TRUE(Cache.lookup("c", Out));

  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache Cache(0);
  Cache.insert("a", "1");
  std::string Out;
  EXPECT_FALSE(Cache.lookup("a", Out));
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

// The acceptance criterion: on the 24-seed golden corpus, the service's
// response (cache cold AND warm) is byte-identical to a single-shot
// runStrategy serialization of the same request.
TEST(ServiceTest, GoldenCorpusColdAndWarmByteIdentity) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ASSERT_EQ(Corpus.size(), 24u);
  const std::string Spec = "briggs+george";

  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueLimit = 64;
  Config.CacheCapacity = 64;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);

  for (const LabeledProblem &LP : Corpus) {
    std::string Expected = singleShotPayload(LP.Problem, Spec);

    ServiceReply Cold = Service.submit(makeWireRequest(LP.Problem, Spec)).get();
    EXPECT_EQ(Cold.Status, ReplyStatus::Ok) << LP.Label;
    EXPECT_FALSE(Cold.CacheHit) << LP.Label;
    EXPECT_EQ(Cold.Payload, Expected) << LP.Label;

    ServiceReply Warm = Service.submit(makeWireRequest(LP.Problem, Spec)).get();
    EXPECT_EQ(Warm.Status, ReplyStatus::Ok) << LP.Label;
    EXPECT_TRUE(Warm.CacheHit) << LP.Label;
    EXPECT_EQ(Warm.Payload, Expected) << LP.Label;
  }

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Requests, 48u);
  EXPECT_EQ(S.Completed, 24u);
  EXPECT_EQ(S.CacheHits, 24u);
  EXPECT_EQ(S.CacheMisses, 24u);
}

// A warm hit on the same instance with its edges inserted in another order
// returns the bytes of that instance's own cold runStrategy solve: the cache
// key ignores insertion order, and so must every answer. The specs are the
// six cheap ones the service-socket benchmark mixes.
TEST(ServiceTest, PermutedInstanceWarmHitMatchesItsOwnColdSolve) {
  const std::vector<std::string> Specs = {"aggressive", "briggs+george",
                                          "george",     "optimistic",
                                          "irc",        "biased-select"};
  ServiceConfig Config;
  Config.Workers = 2;
  Config.QueueLimit = 64;
  Config.CacheCapacity = 256;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);

  Rng Rand(19);
  for (const LabeledProblem &LP : goldenChallengeCorpus()) {
    const Graph &G = LP.Problem.G;
    std::vector<std::pair<unsigned, unsigned>> Edges;
    for (unsigned U = 0; U < G.numVertices(); ++U)
      for (unsigned V : G.neighbors(U))
        if (U < V)
          Edges.push_back({V, U});
    for (size_t I = Edges.size(); I > 1; --I)
      std::swap(Edges[I - 1], Edges[Rand.nextBelow(I)]);
    GraphBuilder B(G.numVertices());
    for (auto [U, V] : Edges)
      B.addEdge(U, V);
    CoalescingProblem Permuted = LP.Problem;
    Permuted.G = std::move(B).build();

    for (const std::string &Spec : Specs) {
      ServiceReply Cold =
          Service.submit(makeWireRequest(LP.Problem, Spec)).get();
      EXPECT_FALSE(Cold.CacheHit) << LP.Label << " " << Spec;
      ServiceReply Warm =
          Service.submit(makeWireRequest(Permuted, Spec)).get();
      EXPECT_EQ(Warm.Status, ReplyStatus::Ok) << LP.Label << " " << Spec;
      EXPECT_TRUE(Warm.CacheHit) << LP.Label << " " << Spec;
      EXPECT_EQ(Warm.Payload, singleShotPayload(Permuted, Spec))
          << LP.Label << " " << Spec;
    }
  }
}

TEST(ServiceTest, BadSpecsAnsweredImmediatelyWithOffendingOption) {
  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();

  ServiceReply Unknown =
      Service.submit(makeWireRequest(Corpus[0].Problem, "nope")).get();
  EXPECT_EQ(Unknown.Status, ReplyStatus::UnknownStrategy);
  EXPECT_NE(Unknown.Payload.find("\"status\":\"unknown-strategy\""),
            std::string::npos);

  ServiceReply Bad =
      Service.submit(makeWireRequest(Corpus[0].Problem, "briggs:bogus=1"))
          .get();
  EXPECT_EQ(Bad.Status, ReplyStatus::BadOption);
  EXPECT_NE(Bad.Payload.find("\"bad_key\":\"bogus\""), std::string::npos)
      << Bad.Payload;
  EXPECT_NE(Bad.Payload.find("\"bad_value\":\"1\""), std::string::npos)
      << Bad.Payload;

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Errors, 2u);
  EXPECT_EQ(S.Completed, 0u);
}

TEST(ServiceTest, DeadlineExpiredRequestsReturnFlaggedPartials) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  // The largest corpus instance: n=512, far beyond what brute-force
  // conservative finishes in a millisecond.
  const CoalescingProblem &Big = Corpus[23].Problem;
  ASSERT_GE(Big.G.numVertices(), 512u);

  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);

  ServiceReply Reply =
      Service.submit(makeWireRequest(Big, "brute-conservative", 1)).get();
  EXPECT_EQ(Reply.Status, ReplyStatus::TimedOut);
  EXPECT_NE(Reply.Payload.find("\"status\":\"timed-out\""),
            std::string::npos);
  EXPECT_NE(Reply.Payload.find("\"timed_out\":true"), std::string::npos);
  EXPECT_NE(Reply.Payload.find("\"partial\":true"), std::string::npos);

  // Partials are deadline-dependent, so they must never come from the
  // cache.
  ServiceReply Again =
      Service.submit(makeWireRequest(Big, "brute-conservative", 1)).get();
  EXPECT_FALSE(Again.CacheHit);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.TimedOut, 2u);
  EXPECT_EQ(S.CacheHits, 0u);
}

TEST(ServiceTest, AdmissionControlAnswersBusy) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ServiceConfig Config;
  Config.Workers = 1;
  Config.QueueLimit = 1;
  Config.CacheCapacity = 0;
  Config.IncludeTiming = false;
  Config.Runner = blockUntilCancelled;
  CoalescingService Service(Config);

  std::future<ServiceReply> Parked =
      Service.submit(makeWireRequest(Corpus[0].Problem, "briggs"));

  // The first request holds the only queue slot until shutdown cancels it.
  ServiceReply Busy =
      Service.submit(makeWireRequest(Corpus[1].Problem, "briggs")).get();
  EXPECT_EQ(Busy.Status, ReplyStatus::Busy);
  EXPECT_NE(Busy.Payload.find("\"status\":\"busy\""), std::string::npos);

  Service.shutdown(/*CancelInFlight=*/true);
  ServiceReply First = Parked.get();
  EXPECT_EQ(First.Status, ReplyStatus::TimedOut);
  EXPECT_NE(First.Payload.find("\"partial\":true"), std::string::npos);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Rejected, 1u);
  EXPECT_EQ(S.TimedOut, 1u);
  EXPECT_EQ(S.DrainedInFlight, 1u);
}

TEST(ServiceTest, ShutdownRejectsNewRequestsAndIsIdempotent) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);
  Service.shutdown(false);
  Service.shutdown(true); // Idempotent.

  ServiceReply Reply =
      Service.submit(makeWireRequest(Corpus[0].Problem, "briggs")).get();
  EXPECT_EQ(Reply.Status, ReplyStatus::ShuttingDown);
  EXPECT_NE(Reply.Payload.find("\"status\":\"shutting-down\""),
            std::string::npos);
  EXPECT_EQ(Service.stats().Rejected, 1u);
}

TEST(ServiceTest, ShutdownAckCarriesFinalStats) {
  ServiceStats S;
  S.Requests = 7;
  S.Completed = 5;
  S.CacheHits = 3;
  std::string Payload = buildShutdownAckPayload(S);
  EXPECT_NE(Payload.find("\"status\":\"shutting-down\""), std::string::npos);
  EXPECT_NE(Payload.find("\"requests\":7"), std::string::npos);
  EXPECT_NE(Payload.find("\"completed\":5"), std::string::npos);
  EXPECT_NE(Payload.find("\"cache_hits\":3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Transport loop
//===----------------------------------------------------------------------===//

TEST(ServiceLoopTest, RoundTripsRequestsAndAcknowledgesShutdown) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  std::ostringstream In;
  writeFrame(In, FrameType::Request,
             buildRequestPayload(Corpus[0].Problem, "briggs"));
  writeFrame(In, FrameType::Request,
             buildRequestPayload(Corpus[0].Problem, "briggs"));
  writeFrame(In, FrameType::Shutdown, "drain");

  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  EXPECT_TRUE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error))
      << Error;

  std::vector<Frame> Frames = decodeFrames(OS.str());
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(statusOf(Frames[0]), "ok");
  EXPECT_EQ(statusOf(Frames[1]), "ok");
  // The duplicate was served from the cache: byte-identical responses.
  EXPECT_EQ(Frames[0].Payload, Frames[1].Payload);
  EXPECT_EQ(statusOf(Frames[2]), "shutting-down");
  EXPECT_NE(Frames[2].Payload.find("\"cache_hits\":1"), std::string::npos)
      << Frames[2].Payload;
}

TEST(ServiceLoopTest, GarbageInputPoisonsTheStream) {
  ServiceConfig Config;
  CoalescingService Service(Config);
  std::istringstream IS("this is not a frame");
  std::ostringstream OS;
  std::string Error;
  EXPECT_FALSE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
  EXPECT_TRUE(decodeFrames(OS.str()).empty());
}

TEST(ServiceLoopTest, MalformedRequestPayloadAnsweredBadRequest) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  std::ostringstream In;
  writeFrame(In, FrameType::Request, "rcq 1\nspec briggs\n"); // No instance.
  // Zero registers: rejected by the parser, never reaches a strategy.
  writeFrame(In, FrameType::Request,
             "rcq 1\nspec briggs\ninstance\nk 0\nn 2\na 0 1 1\n");
  // Negative or huge counts: rejected by the parser, never size an
  // allocation.
  for (const char *Counts :
       {"k -1\nn 2\n", "k 2\nn -1\n", "k 4294967295\nn 2\n"})
    writeFrame(In, FrameType::Request,
               std::string("rcq 1\nspec biased-select\ninstance\n") +
                   Counts);
  writeFrame(In, FrameType::Request,
             buildRequestPayload(Corpus[0].Problem, "briggs"));

  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  // EOF without a Shutdown frame is still a clean ending.
  EXPECT_TRUE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error))
      << Error;

  std::vector<Frame> Frames = decodeFrames(OS.str());
  ASSERT_EQ(Frames.size(), 6u);
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(statusOf(Frames[I]), "bad-request") << "frame " << I;
  EXPECT_EQ(statusOf(Frames[5]), "ok");
  EXPECT_EQ(Service.stats().BadRequests, 5u);
}

TEST(ServiceLoopTest, OversizedFramesAnsweredBadRequestAndSkipped) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  // Small instances still serialize to well over 64 bytes.
  std::string BigPayload = buildRequestPayload(Corpus[5].Problem, "briggs");
  ASSERT_GT(BigPayload.size(), 64u);

  std::ostringstream In;
  writeFrame(In, FrameType::Request, BigPayload);
  writeFrame(In, FrameType::Shutdown, "drain");

  ServiceConfig Config;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);
  ServiceLoopOptions Options;
  Options.MaxPayloadBytes = 64;
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  EXPECT_TRUE(runServiceLoop(IS, OS, Service, Options, &Error)) << Error;

  std::vector<Frame> Frames = decodeFrames(OS.str());
  ASSERT_EQ(Frames.size(), 2u);
  EXPECT_EQ(statusOf(Frames[0]), "bad-request");
  EXPECT_NE(Frames[0].Payload.find("exceeds"), std::string::npos)
      << Frames[0].Payload;
  EXPECT_EQ(statusOf(Frames[1]), "shutting-down");
}

TEST(ServiceLoopTest, TruncatedStreamStillFlushesEarlierResponses) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  std::ostringstream In;
  writeFrame(In, FrameType::Request,
             buildRequestPayload(Corpus[0].Problem, "briggs"));
  In << "RC"; // A torn frame header.

  ServiceConfig Config;
  Config.IncludeTiming = false;
  // Park the request until the poisoned stream cancels it, so the test is
  // deterministic: the flushed response is always the flagged partial.
  Config.Runner = blockUntilCancelled;
  CoalescingService Service(Config);
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  EXPECT_FALSE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error));
  EXPECT_FALSE(Error.empty());

  // The request that arrived intact was still answered — as a partial,
  // since poisoning the stream cancels in-flight work — before the loop
  // reported the error.
  std::vector<Frame> Frames = decodeFrames(OS.str());
  ASSERT_EQ(Frames.size(), 1u);
  EXPECT_EQ(statusOf(Frames[0]), "timed-out");
  EXPECT_NE(Frames[0].Payload.find("\"partial\":true"), std::string::npos);
}

TEST(ServiceLoopTest, ShutdownNowCancelsInFlightWork) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  std::ostringstream In;
  writeFrame(In, FrameType::Request,
             buildRequestPayload(Corpus[0].Problem, "briggs"));
  writeFrame(In, FrameType::Shutdown, "now");

  ServiceConfig Config;
  Config.IncludeTiming = false;
  Config.Runner = blockUntilCancelled; // Parks until the shutdown cancel.
  CoalescingService Service(Config);
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  EXPECT_TRUE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error))
      << Error;

  std::vector<Frame> Frames = decodeFrames(OS.str());
  ASSERT_EQ(Frames.size(), 2u);
  EXPECT_EQ(statusOf(Frames[0]), "timed-out");
  EXPECT_NE(Frames[0].Payload.find("\"partial\":true"), std::string::npos);
  EXPECT_EQ(statusOf(Frames[1]), "shutting-down");
}
