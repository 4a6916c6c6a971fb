//===- tests/SocketServiceTest.cpp - Socket transport + client tests ------===//
//
// End-to-end coverage of the networked service: Listener + SocketTransport
// + rc::Client against a real Unix/TCP socket, asserting the property the
// redesign promises — the socket path is byte-identical to the stdio pipe
// path — plus the connection-scoped policies (poison isolation, the
// accept-time busy cap, stop-and-drain).
//
//===----------------------------------------------------------------------===//

#include "runner/GapReport.h"
#include "service/Client.h"
#include "service/Listener.h"
#include "service/Service.h"
#include "service/ServiceLoop.h"
#include "service/SocketTransport.h"
#include "service/WireProtocol.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace rc;

namespace {

/// A fresh, unused Unix socket path per call (listenOnEndpoint refuses an
/// existing file).
Endpoint freshUnixEndpoint() {
  static std::atomic<unsigned> Counter{0};
  Endpoint E;
  E.Kind = EndpointKind::Unix;
  E.Path = "/tmp/rc_socket_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".sock";
  std::remove(E.Path.c_str());
  return E;
}

/// A service + listener + accept thread with the boilerplate folded away.
struct TestDaemon {
  explicit TestDaemon(ListenerConfig LC, ServiceConfig SC = ServiceConfig())
      : Service((SC.IncludeTiming = false, SC)), L(Service, LC) {
    std::string Error;
    Opened = L.open(&Error);
    EXPECT_TRUE(Opened) << Error;
    if (Opened)
      Accept = std::thread([this] { RunOk = L.run(); });
  }

  ~TestDaemon() { stop(); }

  void stop() {
    if (Accept.joinable()) {
      L.requestStop();
      Accept.join();
    }
  }

  CoalescingService Service;
  Listener L;
  std::thread Accept;
  bool Opened = false;
  bool RunOk = false;
};

/// The reference bytes: the golden corpus served over the stdio pipe path
/// by a fresh service, one response payload per instance.
std::vector<std::string> pipePathPayloads(
    const std::vector<LabeledProblem> &Corpus, const std::string &Spec) {
  std::ostringstream In;
  for (const LabeledProblem &LP : Corpus)
    writeFrame(In, FrameType::Request, buildRequestPayload(LP.Problem, Spec));

  ServiceConfig Config;
  Config.IncludeTiming = false;
  // Admit the whole corpus at once: the loop reads every frame before the
  // workers finish, so on a loaded host the default limit of 16 would turn
  // the reference for the later instances into busy replies.
  Config.QueueLimit = static_cast<unsigned>(Corpus.size());
  CoalescingService Service(Config);
  std::istringstream IS(In.str());
  std::ostringstream OS;
  std::string Error;
  EXPECT_TRUE(runServiceLoop(IS, OS, Service, ServiceLoopOptions(), &Error))
      << Error;

  std::vector<std::string> Payloads;
  std::istringstream Frames(OS.str());
  for (;;) {
    Frame F;
    if (readFrame(Frames, F) != FrameReadStatus::Ok)
      break;
    Payloads.push_back(std::move(F.Payload));
  }
  return Payloads;
}

} // namespace

//===----------------------------------------------------------------------===//
// Transport primitives
//===----------------------------------------------------------------------===//

TEST(SocketServiceTest, EndpointGrammarRoundTrips) {
  Endpoint E;
  std::string Error;
  ASSERT_TRUE(parseEndpoint("tcp:4217", E, &Error)) << Error;
  EXPECT_EQ(E.Kind, EndpointKind::Tcp);
  EXPECT_EQ(E.Port, 4217);
  EXPECT_EQ(endpointName(E), "tcp:4217");

  ASSERT_TRUE(parseEndpoint("unix:/tmp/rc.sock", E, &Error)) << Error;
  EXPECT_EQ(E.Kind, EndpointKind::Unix);
  EXPECT_EQ(E.Path, "/tmp/rc.sock");
  EXPECT_EQ(endpointName(E), "unix:/tmp/rc.sock");

  EXPECT_FALSE(parseEndpoint("tcp:notaport", E, &Error));
  EXPECT_FALSE(parseEndpoint("tcp:70000", E, &Error));
  EXPECT_FALSE(parseEndpoint("unix:", E, &Error));
  EXPECT_FALSE(parseEndpoint("http:8080", E, &Error));
  EXPECT_NE(Error.find("tcp:PORT or unix:PATH"), std::string::npos) << Error;
}

TEST(SocketServiceTest, TcpZeroRecoversTheAssignedPort) {
  Endpoint E; // tcp:0
  TestDaemon D(ListenerConfig{E});
  ASSERT_TRUE(D.Opened);
  EXPECT_EQ(D.L.boundEndpoint().Kind, EndpointKind::Tcp);
  EXPECT_NE(D.L.boundEndpoint().Port, 0);

  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  Expected<Client> C = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(C) << C.error().Message;
  Expected<ClientReply> R = C->submit(Corpus[0].Problem, "briggs");
  ASSERT_TRUE(R) << R.error().Message;
  EXPECT_EQ(R->Status, ReplyStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Byte identity with the stdio pipe path
//===----------------------------------------------------------------------===//

TEST(SocketServiceTest, ConcurrentClientsMatchThePipePathByteForByte) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ASSERT_FALSE(Corpus.empty());
  std::vector<std::string> Reference = pipePathPayloads(Corpus, "briggs");
  ASSERT_EQ(Reference.size(), Corpus.size());

  ServiceConfig SC;
  SC.Workers = 4;
  SC.QueueLimit = 256;
  TestDaemon D(ListenerConfig{freshUnixEndpoint()}, SC);
  ASSERT_TRUE(D.Opened);

  constexpr unsigned NumClients = 4;
  std::vector<std::vector<std::string>> Got(NumClients);
  std::vector<std::string> Failure(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < NumClients; ++I)
    Clients.emplace_back([&, I] {
      Expected<Client> C = Client::connect(D.L.boundEndpoint());
      if (!C) {
        Failure[I] = C.error().Message;
        return;
      }
      std::vector<Client::Request> Requests;
      for (const LabeledProblem &LP : Corpus) {
        Client::Request R;
        R.Problem = &LP.Problem;
        R.Spec = "briggs";
        Requests.push_back(R);
      }
      for (Expected<ClientReply> &R : C->submitAll(Requests)) {
        if (!R) {
          Failure[I] = R.error().Message;
          return;
        }
        Got[I].push_back(std::move(R->Payload));
      }
    });
  for (std::thread &T : Clients)
    T.join();

  for (unsigned I = 0; I < NumClients; ++I) {
    EXPECT_TRUE(Failure[I].empty()) << "client " << I << ": " << Failure[I];
    ASSERT_EQ(Got[I].size(), Reference.size()) << "client " << I;
    for (size_t J = 0; J < Reference.size(); ++J)
      EXPECT_EQ(Got[I][J], Reference[J])
          << "client " << I << ", instance " << Corpus[J].Label;
  }

  D.stop();
  // The shared cache served the repeats. Concurrent identical requests
  // can race past the lookup (no in-flight dedup), so the miss count is
  // a floor, not an exact figure.
  ServiceStats S = D.Service.stats();
  EXPECT_EQ(S.Requests, NumClients * Corpus.size());
  EXPECT_GE(S.CacheMisses, Corpus.size());
  EXPECT_GE(S.CacheHits, S.Requests - S.Completed);
}

//===----------------------------------------------------------------------===//
// Connection-scoped policy
//===----------------------------------------------------------------------===//

TEST(SocketServiceTest, PoisonedConnectionLeavesSiblingsUnharmed) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  TestDaemon D(ListenerConfig{freshUnixEndpoint()});
  ASSERT_TRUE(D.Opened);

  Expected<Client> Healthy = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(Healthy) << Healthy.error().Message;
  Expected<ClientReply> Before = Healthy->submit(Corpus[0].Problem, "briggs");
  ASSERT_TRUE(Before) << Before.error().Message;

  // A sibling writes garbage: its connection is poisoned and closed.
  {
    std::string Error;
    int Fd = connectToEndpoint(D.L.boundEndpoint(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    SocketStream Garbage(Fd);
    Garbage.out() << "this is not a frame";
    Garbage.shutdownWrite();
    // The daemon answers nothing and drops the connection.
    Frame F;
    EXPECT_EQ(readFrame(Garbage.in(), F), FrameReadStatus::Eof);
  }

  // The healthy connection never notices.
  Expected<ClientReply> After = Healthy->submit(Corpus[1].Problem, "briggs");
  ASSERT_TRUE(After) << After.error().Message;
  EXPECT_EQ(After->Status, ReplyStatus::Ok);

  D.stop();
  Listener::Stats LS = D.L.stats();
  EXPECT_EQ(LS.Accepted, 2u);
  EXPECT_EQ(LS.Poisoned, 1u);
}

TEST(SocketServiceTest, ConnectionCapAnswersBusyAtAccept) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  ListenerConfig LC{freshUnixEndpoint()};
  LC.MaxConnections = 1;
  TestDaemon D(LC);
  ASSERT_TRUE(D.Opened);

  Expected<Client> First = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(First) << First.error().Message;
  // Round-trip once so the accept loop has registered the connection
  // before the second client dials.
  ASSERT_TRUE(First->submit(Corpus[0].Problem, "briggs"));

  Expected<Client> Second = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(Second) << Second.error().Message;
  Expected<ClientReply> Refused = Second->submit(Corpus[0].Problem, "briggs");
  ASSERT_FALSE(Refused);
  EXPECT_EQ(Refused.error().Kind, ClientErrorKind::Busy);
  EXPECT_NE(Refused.error().Message.find("connection limit"),
            std::string::npos)
      << Refused.error().Message;

  // The first client still has the daemon's attention.
  EXPECT_TRUE(First->submit(Corpus[1].Problem, "briggs"));

  D.stop();
  Listener::Stats LS = D.L.stats();
  EXPECT_EQ(LS.Accepted, 1u);
  EXPECT_EQ(LS.Refused, 1u);
}

TEST(SocketServiceTest, StopDrainsAndClosesEverything) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  TestDaemon D(ListenerConfig{freshUnixEndpoint()});
  ASSERT_TRUE(D.Opened);
  Endpoint Bound = D.L.boundEndpoint();

  // An idle connection is open when the stop lands.
  Expected<Client> Idle = Client::connect(Bound);
  ASSERT_TRUE(Idle) << Idle.error().Message;
  ASSERT_TRUE(Idle->submit(Corpus[0].Problem, "briggs"));

  D.stop(); // requestStop + join: run() has fully drained.
  EXPECT_TRUE(D.RunOk);

  // The listen socket is gone — new connections are refused outright...
  Expected<Client> Late = Client::connect(Bound);
  EXPECT_FALSE(Late);
  EXPECT_EQ(Late.error().Kind, ClientErrorKind::Connect);

  // ...and the idle connection was nudged shut: the next round-trip
  // surfaces a transport error instead of hanging.
  Expected<ClientReply> R = Idle->submit(Corpus[1].Problem, "briggs");
  ASSERT_FALSE(R);
  EXPECT_TRUE(R.error().Kind == ClientErrorKind::Transport ||
              R.error().Kind == ClientErrorKind::ShuttingDown)
      << clientErrorKindName(R.error().Kind);
}

TEST(SocketServiceTest, ClientShutdownFrameRetiresTheDaemon) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  TestDaemon D(ListenerConfig{freshUnixEndpoint()});
  ASSERT_TRUE(D.Opened);

  Expected<Client> C = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(C) << C.error().Message;
  ASSERT_TRUE(C->submit(Corpus[0].Problem, "briggs"));

  Expected<ClientReply> Ack = C->shutdownServer(ShutdownMode::Drain);
  ASSERT_TRUE(Ack) << Ack.error().Message;
  EXPECT_EQ(Ack->Status, ReplyStatus::ShuttingDown);
  EXPECT_NE(Ack->Payload.find("\"requests\":1"), std::string::npos)
      << Ack->Payload;
  EXPECT_FALSE(C->connected());

  // The ack also stopped the accept loop; run() returns on its own.
  if (D.Accept.joinable())
    D.Accept.join();
  EXPECT_TRUE(D.RunOk);
}

//===----------------------------------------------------------------------===//
// Client error taxonomy
//===----------------------------------------------------------------------===//

TEST(SocketServiceTest, ClientSurfacesTypedRequestErrors) {
  std::vector<LabeledProblem> Corpus = goldenChallengeCorpus();
  TestDaemon D(ListenerConfig{freshUnixEndpoint()});
  ASSERT_TRUE(D.Opened);

  Expected<Client> C = Client::connect(D.L.boundEndpoint());
  ASSERT_TRUE(C) << C.error().Message;

  Expected<ClientReply> Unknown =
      C->submit(Corpus[0].Problem, "no-such-strategy");
  ASSERT_FALSE(Unknown);
  EXPECT_EQ(Unknown.error().Kind, ClientErrorKind::UnknownStrategy);

  Expected<ClientReply> BadOpt =
      C->submit(Corpus[0].Problem, "briggs:bogus=1");
  ASSERT_FALSE(BadOpt);
  EXPECT_EQ(BadOpt.error().Kind, ClientErrorKind::BadOption);
  EXPECT_EQ(BadOpt.error().BadKey, "bogus");
  EXPECT_EQ(BadOpt.error().BadValue, "1");

  // Request-level errors left the connection usable.
  Expected<ClientReply> Fine = C->submit(Corpus[0].Problem, "briggs");
  ASSERT_TRUE(Fine) << Fine.error().Message;
  EXPECT_EQ(Fine->Status, ReplyStatus::Ok);
}

TEST(SocketServiceTest, ClientConnectErrorIsTyped) {
  Endpoint E = freshUnixEndpoint(); // Nothing listens here.
  Expected<Client> C = Client::connect(E);
  ASSERT_FALSE(C);
  EXPECT_EQ(C.error().Kind, ClientErrorKind::Connect);
  EXPECT_NE(C.error().Message.find("connect"), std::string::npos)
      << C.error().Message;
}
