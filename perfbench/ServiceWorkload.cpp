//===- perfbench/ServiceWorkload.cpp - service-socket ---------------------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CoalescingService with two workers behind a Listener on a unix socket,
/// driven by two synchronous rc::Client connections in a closed loop: an
/// allocator calling the service waits for each reply before it sends the
/// next request. Requests carry small instances (n <= 512) and cheap specs,
/// so framing, request parsing, digest keys, the result cache and the
/// transport dominate rather than solving. Every fourth request on a
/// connection repeats an earlier request of the same connection byte for
/// byte; the earlier one has been answered by then, so it is a cache hit.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeInstance.h"
#include "service/Client.h"
#include "service/Listener.h"
#include "service/ResultCache.h"
#include "service/Service.h"
#include "service/WireProtocol.h"
#include "support/Digest.h"
#include "support/Random.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace rc;

namespace {

constexpr unsigned Connections = 2;

/// Cheap specs only: at n <= 512 the median solve takes a fraction of a
/// millisecond, so the service layers, not solving, dominate a request.
const std::vector<std::string> Specs = {"aggressive", "briggs+george",
                                        "george",     "optimistic",
                                        "irc",        "biased-select"};

struct Request {
  unsigned Problem = 0;
  unsigned Spec = 0;
  /// Index of this request's first occurrence in the connection's list.
  unsigned First = 0;
};

/// What one connection sends: its instances and its request list.
struct ConnectionInput {
  std::vector<CoalescingProblem> Problems;
  std::vector<Request> Requests;
};

ServiceConfig serviceConfig() {
  ServiceConfig SC;
  SC.Workers = 2;
  SC.QueueLimit = 8; // >= Connections: no request is ever answered busy.
  SC.CacheCapacity = 1u << 16; // Holds every distinct request: no evictions.
  SC.IncludeTiming = false;
  return SC;
}

double medianOf(std::vector<double> V) {
  return summarize(std::move(V)).Median;
}

class ServiceSocket final : public Workload {
public:
  explicit ServiceSocket(const RunConfig &C)
      : Config(C), RequestsPerConnection(scaledCount(3000, C.Seconds, 500)) {
    SocketPath = C.WorkDir + "/rc-" + std::to_string(::getpid()) + ".sock";
  }

  std::string describe() const override {
    return std::to_string(Connections * RequestsPerConnection) +
           " requests (n<=512, 6 specs, 1 in 4 a repeat) over " +
           std::to_string(Connections) +
           " closed-loop unix-socket connections, 2 service workers";
  }

  unsigned setupRepetitions() const override { return 9; }

  void setup() override {
    Inputs.assign(Connections, ConnectionInput());
    uint64_t Stream = 0;
    for (unsigned Conn = 0; Conn < Connections; ++Conn) {
      ConnectionInput &In = Inputs[Conn];
      Rng Order(deriveSeed(Config.Seed, 1000000 + Conn));
      unsigned Distinct = RequestsPerConnection - RequestsPerConnection / 4;
      unsigned NumProblems =
          (Distinct + static_cast<unsigned>(Specs.size()) - 1) /
          static_cast<unsigned>(Specs.size());
      // The instance shapes cycle through a fixed list (subtree n = 192..512,
      // program mode at 16 and 24 blocks, pressure slack 0 and 2), so every
      // seed sends the same mix; the seed draws the instances.
      for (unsigned I = 0; I < NumProblems; ++I) {
        Rng Rand(deriveSeed(Config.Seed, Stream++));
        unsigned Kind = I % 6;
        unsigned Slack = (I / 6) % 2 * 2;
        ScopedSpan Span("challenge.generate");
        if (Kind >= 4) {
          ProgramChallengeOptions O;
          O.NumBlocks = Kind == 4 ? 16 : 24;
          O.PressureSlack = Slack;
          In.Problems.push_back(generateProgramChallengeInstance(O, Rand));
        } else {
          const unsigned Sizes[] = {192, 256, 384, 512};
          ChallengeOptions O;
          O.NumValues = Sizes[Kind];
          O.TreeSize = O.NumValues / 2;
          O.PressureSlack = Slack;
          In.Problems.push_back(generateChallengeInstance(O, Rand));
        }
      }
      // Distinct (instance, spec) pairs in a seeded order; every fourth
      // request repeats an earlier one of this connection.
      std::vector<Request> Pairs;
      for (unsigned P = 0; P < NumProblems; ++P)
        for (unsigned S = 0; S < Specs.size(); ++S)
          Pairs.push_back(Request{P, S, 0});
      Order.shuffle(Pairs);
      Pairs.resize(Distinct);
      size_t Next = 0;
      for (unsigned I = 0; I < RequestsPerConnection; ++I) {
        Request R;
        if (I % 4 == 3) {
          R = In.Requests[static_cast<unsigned>(Order.nextBelow(I))];
        } else {
          R = Pairs[Next++];
          R.First = I;
        }
        In.Requests.push_back(R);
      }
    }
  }

  std::string inputDigest() const override {
    Digest128 D;
    for (const ConnectionInput &In : Inputs) {
      for (const CoalescingProblem &P : In.Problems) {
        std::ostringstream Bytes;
        writeChallengeBinary(Bytes, P);
        D.updateString(Bytes.str());
      }
      for (const Request &R : In.Requests) {
        D.updateU32(R.Problem);
        D.updateU32(R.Spec);
        D.updateU32(R.First);
      }
    }
    return D.hex();
  }

  PassResult pass() override {
    PassResult P;
    CoalescingService Service(serviceConfig());
    ListenerConfig LC;
    LC.Ep.Kind = EndpointKind::Unix;
    LC.Ep.Path = SocketPath;
    LC.MaxConnections = 8;
    std::remove(SocketPath.c_str());
    Listener L(Service, LC);
    std::string Error;
    if (!L.open(&Error))
      throw std::runtime_error("listener: " + Error);
    bool AcceptOk = true;
    std::thread Accept([&] { AcceptOk = L.run(); });

    Replies.assign(Connections, {});
    SocketMs.assign(Connections, {});
    std::vector<std::string> ConnectError(Connections);
    int64_t Start = nowNs();
    std::vector<std::thread> Clients;
    for (unsigned Conn = 0; Conn < Connections; ++Conn)
      Clients.emplace_back([&, Conn] {
        const ConnectionInput &In = Inputs[Conn];
        std::vector<Expected<ClientReply>> &Out = Replies[Conn];
        Expected<Client> C = Client::connect(L.boundEndpoint());
        if (!C) {
          ConnectError[Conn] = C.error().Message;
          return;
        }
        for (size_t I = 0; I < In.Requests.size(); ++I) {
          const Request &R = In.Requests[I];
          int64_t T0 = nowNs();
          {
            ScopedSpan Span("service.socket", Conn * 1000000 + I);
            Out.push_back(C->submit(In.Problems[R.Problem], Specs[R.Spec]));
          }
          SocketMs[Conn].push_back((nowNs() - T0) / 1e6);
        }
      });
    for (std::thread &T : Clients)
      T.join();
    P.WallS = secondsSince(Start);
    L.requestStop();
    Accept.join();
    std::remove(SocketPath.c_str());
    LastStats = Service.stats();

    for (unsigned Conn = 0; Conn < Connections; ++Conn) {
      const ConnectionInput &In = Inputs[Conn];
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        ++P.Attempted;
        if (I >= Replies[Conn].size()) {
          P.fail("connection " + std::to_string(Conn) +
                 ": no reply: " + ConnectError[Conn]);
          continue;
        }
        const Expected<ClientReply> &R = Replies[Conn][I];
        if (!R) {
          P.fail("request " + std::to_string(I) + ": " +
                 clientErrorKindName(R.error().Kind) + " " +
                 R.error().Message);
          continue;
        }
        P.LatencyMs.push_back(SocketMs[Conn][I]);
      }
    }
    if (!AcceptOk)
      P.fail("listener stopped with an accept error");
    return P;
  }

  void check(PassResult &P) override {
    if (References.empty())
      computeReference();
    for (unsigned Conn = 0; Conn < Connections; ++Conn) {
      const ConnectionInput &In = Inputs[Conn];
      for (size_t I = 0; I < In.Requests.size() && I < Replies[Conn].size();
           ++I) {
        const Expected<ClientReply> &R = Replies[Conn][I];
        if (!R)
          continue; // Already failed in pass().
        const Request &Req = In.Requests[I];
        const Reference &Want = References[Conn][Req.First];
        if (R->Status != ReplyStatus::Ok || R->Payload != Want.Payload) {
          P.fail("request " + std::to_string(I) + " (" + Specs[Req.Spec] +
                 "): reply differs from the cold in-process solve");
          continue;
        }
        P.addQuality(Want.WeightRatio, Want.MovesRemaining);
      }
    }
  }

  void layers(LayerReport &R) override {
    uint64_t RequestBytes = 0, ResponseBytes = 0, Requests = 0;
    std::vector<std::vector<double>> SolveMs(Connections),
        InprocMs(Connections);
    for (unsigned Conn = 0; Conn < Connections; ++Conn) {
      const ConnectionInput &In = Inputs[Conn];
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        const CoalescingProblem &Problem = In.Problems[In.Requests[I].Problem];
        const std::string &Spec = Specs[In.Requests[I].Spec];
        std::string Payload;
        {
          ScopedSpan Span("service.encode", Conn * 1000000 + I);
          Payload = buildRequestPayload(Problem, Spec);
        }
        WireRequest Parsed;
        {
          ScopedSpan Span("service.parse", Conn * 1000000 + I);
          parseRequestPayload(Payload, Parsed);
        }
        {
          ScopedSpan Span("service.cache_key", Conn * 1000000 + I);
          canonicalRequestKey(Problem, Spec);
        }
        RequestBytes += Payload.size();
        if (I < Replies[Conn].size() && Replies[Conn][I])
          ResponseBytes += Replies[Conn][I]->Payload.size();
        ++Requests;
      }
    }

    // The same request lists, from the same two closed-loop threads, timed
    // at two more depths: the bare solve, and the in-process service
    // (admission, cache, queue, serialization) without the socket.
    runPerConnection([&](unsigned Conn) {
      const ConnectionInput &In = Inputs[Conn];
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        RunRequest Req;
        Req.Problem = &In.Problems[In.Requests[I].Problem];
        Req.Spec = Specs[In.Requests[I].Spec];
        int64_t T0 = nowNs();
        {
          ScopedSpan Span("service.solve", Conn * 1000000 + I);
          runStrategy(Req);
        }
        SolveMs[Conn].push_back((nowNs() - T0) / 1e6);
      }
    });
    CoalescingService Service(serviceConfig());
    runPerConnection([&](unsigned Conn) {
      const ConnectionInput &In = Inputs[Conn];
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        WireRequest W;
        W.Spec = Specs[In.Requests[I].Spec];
        W.Problem = In.Problems[In.Requests[I].Problem];
        int64_t T0 = nowNs();
        {
          ScopedSpan Span("service.inproc", Conn * 1000000 + I);
          Service.submit(std::move(W)).get();
        }
        InprocMs[Conn].push_back((nowNs() - T0) / 1e6);
      }
    });

    // The bare solve is always cold, so the solve-to-service difference is
    // taken over cold requests only; a cache hit is a hit on both sides of
    // the service-to-socket difference, so that one covers every request.
    std::vector<double> QueueCacheSerialize, Transport;
    for (unsigned Conn = 0; Conn < Connections; ++Conn)
      for (size_t I = 0; I < SocketMs[Conn].size(); ++I) {
        if (Inputs[Conn].Requests[I].First == I)
          QueueCacheSerialize.push_back(InprocMs[Conn][I] - SolveMs[Conn][I]);
        Transport.push_back(SocketMs[Conn][I] - InprocMs[Conn][I]);
      }
    R.Values["service.queue_cache_serialize_ms"] =
        medianOf(QueueCacheSerialize);
    R.Values["service.transport_ms"] = medianOf(Transport);
    R.Values["service.cache_hit_ratio"] =
        LastStats.Requests ? double(LastStats.CacheHits) / LastStats.Requests
                           : 0;
    R.Values["service.busy_share"] =
        LastStats.Requests ? double(LastStats.Rejected) / LastStats.Requests
                           : 0;
    R.Values["service.order_sensitive_share"] =
        Distinct ? double(OrderSensitive) / Distinct : 0;
    R.Values["service.request_bytes"] =
        Requests ? double(RequestBytes) / Requests : 0;
    R.Values["service.response_bytes"] =
        Requests ? double(ResponseBytes) / Requests : 0;
  }

private:
  struct Reference {
    std::string Payload;
    double WeightRatio = 0;
    double MovesRemaining = 0;
  };

  /// The cold single-shot answer for every distinct request, on the
  /// instance exactly as the request carries it (the wire text, parsed):
  /// the bytes the service must return whether it solves the request or
  /// serves it from cache. The instance as generated in memory can answer
  /// differently, because adjacency order depends on edge insertion order
  /// (the order-invariance open item); those requests are counted, not
  /// failed, and reported as service.order_sensitive_share.
  void computeReference() {
    References.assign(Connections, {});
    OrderSensitive = 0;
    Distinct = 0;
    for (unsigned Conn = 0; Conn < Connections; ++Conn) {
      const ConnectionInput &In = Inputs[Conn];
      References[Conn].resize(In.Requests.size());
      for (size_t I = 0; I < In.Requests.size(); ++I) {
        const Request &Req = In.Requests[I];
        if (Req.First != I)
          continue;
        const CoalescingProblem &Generated = In.Problems[Req.Problem];
        WireRequest Sent;
        if (!parseRequestPayload(
                buildRequestPayload(Generated, Specs[Req.Spec]), Sent))
          throw std::runtime_error("request payload does not parse");
        RunResult Result;
        Reference &Ref = References[Conn][I];
        Ref.Payload = coldPayload(Sent.Problem, Specs[Req.Spec], Result);
        Ref.WeightRatio = Result.Outcome.CoalescedWeightRatio;
        Ref.MovesRemaining = Result.Outcome.Stats.UncoalescedAffinities;
        RunResult Unsent;
        ++Distinct;
        if (coldPayload(Generated, Specs[Req.Spec], Unsent) != Ref.Payload)
          ++OrderSensitive;
      }
    }
  }

  /// runStrategy plus the response serialization, timing off.
  static std::string coldPayload(const CoalescingProblem &P,
                                 const std::string &Spec, RunResult &Result) {
    RunRequest Run;
    Run.Problem = &P;
    Run.Spec = Spec;
    Result = runStrategy(Run);
    WireResponse W;
    W.Status = replyStatusFromRun(Result.Status);
    W.Message = Result.Message;
    if (Result.hasOutcome())
      W.Outcome = &Result.Outcome;
    return buildResponsePayload(W, /*IncludeTiming=*/false);
  }

  template <typename Fn> static void runPerConnection(Fn Body) {
    std::vector<std::thread> Threads;
    for (unsigned Conn = 0; Conn < Connections; ++Conn)
      Threads.emplace_back(Body, Conn);
    for (std::thread &T : Threads)
      T.join();
  }

  RunConfig Config;
  unsigned RequestsPerConnection;
  std::string SocketPath;
  std::vector<ConnectionInput> Inputs;
  std::vector<std::vector<Reference>> References;
  std::vector<std::vector<Expected<ClientReply>>> Replies;
  std::vector<std::vector<double>> SocketMs;
  ServiceStats LastStats;
  unsigned OrderSensitive = 0;
  unsigned Distinct = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServiceSocket(const RunConfig &C) {
  return std::make_unique<ServiceSocket>(C);
}
