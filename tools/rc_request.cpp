//===- tools/rc_request.cpp - Client driver for rc_serve ---------------------===//
//
// The client half of the service protocol, for scripts and smoke tests.
// Three modes:
//
//  - emit (default): writes Request frames to stdout for every
//    (instance x spec) pair, optionally followed by one Shutdown frame.
//    Instances come from dumped challenge files (--instance) and/or
//    manifest lines (--gen, the rc_sweep grammar).
//  - --connect EP: dials a live rc_serve --listen daemon through
//    rc::Client, pipelines the same request list over the socket, and
//    prints one response payload per line — byte-identical to what the
//    stdio pipe path decodes, so the two transports are diffable.
//  - --decode: reads Response frames from stdin, prints one payload per
//    line (the payloads are JSON objects, so the output is JSONL), and
//    exits non-zero on any error status, a malformed stream, or a frame
//    count mismatch (--expect).
//
// Examples:
//   rc_request --gen "subtree seed=3 n=96 slack=0" --strategies briggs,irc
//     --deadline-ms 250 --shutdown drain | rc_serve | rc_request --decode
//   rc_request --connect unix:/tmp/rc.sock --instance dump.txt --spec irc
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeBinary.h"
#include "challenge/StrategyRunner.h"
#include "runner/SweepManifest.h"
#include "service/Client.h"
#include "service/WireProtocol.h"
#include "support/ArgParser.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace rc;

static int decode(long long Expect) {
  long long Count = 0;
  bool SawError = false;
  for (;;) {
    Frame F;
    std::string Error;
    FrameReadStatus S = readFrame(std::cin, F, kDefaultMaxPayloadBytes,
                                  &Error);
    if (S == FrameReadStatus::Eof)
      break;
    if (S != FrameReadStatus::Ok) {
      std::cerr << "rc_request: malformed response stream: " << Error
                << "\n";
      return 1;
    }
    if (F.Type != FrameType::Response) {
      std::cerr << "rc_request: unexpected frame type in response stream\n";
      return 1;
    }
    std::cout << F.Payload << "\n";
    ++Count;
    ReplyStatus Status;
    if (!extractResponseStatus(F.Payload, Status)) {
      std::cerr << "rc_request: response payload without a valid status"
                   " field\n";
      return 1;
    }
    // ok / timed-out carry results; shutting-down is the ack. Everything
    // else means a request was refused.
    if (!replyStatusHasResult(Status) &&
        Status != ReplyStatus::ShuttingDown) {
      std::cerr << "rc_request: response " << Count << " has status '"
                << replyStatusName(Status) << "'\n";
      SawError = true;
    }
  }
  if (Expect >= 0 && Count != Expect) {
    std::cerr << "rc_request: expected " << Expect << " responses, got "
              << Count << "\n";
    return 1;
  }
  return SawError ? 1 : 0;
}

/// Runs the request list against a live daemon and prints the payloads as
/// the --decode JSONL a pipe-path run would produce.
static int runConnected(const Endpoint &Ep,
                        const std::vector<LabeledProblem> &Instances,
                        const std::vector<std::string> &Specs,
                        int64_t DeadlineMillis, long long Repeat,
                        bool Shutdown, const std::string &ShutdownMode) {
  Expected<Client> C = Client::connect(Ep);
  if (!C) {
    std::cerr << "rc_request: " << C.error().Message << "\n";
    return 1;
  }

  std::vector<Client::Request> Requests;
  for (long long R = 0; R < Repeat; ++R)
    for (const LabeledProblem &LP : Instances)
      for (const std::string &Spec : Specs) {
        Client::Request Req;
        Req.Problem = &LP.Problem;
        Req.Spec = Spec;
        Req.DeadlineMillis = DeadlineMillis;
        Requests.push_back(Req);
      }

  bool SawError = false;
  size_t Index = 0;
  for (Expected<ClientReply> &Reply : C->submitAll(Requests)) {
    ++Index;
    if (Reply) {
      std::cout << Reply->Payload << "\n";
      continue;
    }
    const ClientError &E = Reply.error();
    if (E.Kind == ClientErrorKind::TimedOut) {
      // A deadline expiry still carries the flagged partial result — the
      // pipe path prints those too and stays healthy.
      std::cout << E.Partial << "\n";
      continue;
    }
    std::cerr << "rc_request: request " << Index << ": "
              << clientErrorKindName(E.Kind)
              << (E.Message.empty() ? "" : ": " + E.Message) << "\n";
    SawError = true;
    if (!C->connected())
      return 1;
  }

  if (Shutdown && C->connected()) {
    Expected<ClientReply> Ack = C->shutdownServer(
        ShutdownMode == "now" ? ShutdownMode::Now : ShutdownMode::Drain);
    if (!Ack) {
      std::cerr << "rc_request: shutdown: " << Ack.error().Message << "\n";
      return 1;
    }
    std::cout << Ack->Payload << "\n";
  }
  return SawError ? 1 : 0;
}

int main(int Argc, char **Argv) {
  std::vector<LabeledProblem> Instances;
  std::vector<std::string> Specs;
  long long DeadlineMillis = 0;
  long long Repeat = 1;
  long long Expect = -1;
  std::string ShutdownMode;
  std::string Connect;
  bool Decode = false;
  bool Shutdown = false;

  ArgParser Parser("rc_request", "> frames (emit) | --decode < frames");
  Parser.each("--instance", "FILE",
              "add an instance from a dumped challenge file (repeatable)",
              [&](const std::string &V, std::string &Error) {
                // Zero-copy loader: mmap + content sniffing, so `.rcb`
                // instances skip the stream parse entirely.
                LabeledProblem LP;
                LP.Label = V;
                std::string ReadError;
                if (!readChallengeFile(V, LP.Problem, &ReadError)) {
                  Error = V + ": " + ReadError;
                  return false;
                }
                Instances.push_back(std::move(LP));
                return true;
              });
  Parser.each("--gen", "LINE",
              "add instances from a manifest line, e.g. 'subtree seed=3"
              " n=96 slack=0' (repeatable)",
              [&](const std::string &V, std::string &Error) {
                std::istringstream In(V);
                SweepManifest Manifest;
                std::string GenError;
                if (!parseSweepManifest(In, Manifest, &GenError) ||
                    !materializeSweep(Manifest, Instances, &GenError)) {
                  Error = "--gen: " + GenError;
                  return false;
                }
                return true;
              });
  Parser.each("--spec", "SPEC", "strategy spec (default briggs+george)",
              [&](const std::string &V, std::string &) {
                Specs.push_back(V);
                return true;
              });
  Parser.each("--strategies", "a[,b]",
              "several specs; one request per instance x spec",
              [&](const std::string &V, std::string &) {
                for (const std::string &S : splitStrategySpecs(V))
                  Specs.push_back(S);
                return true;
              });
  Parser.intValue("--deadline-ms", "T", "per-request deadline (default"
                                        " none)",
                  &DeadlineMillis, 1, "a positive integer");
  Parser.intValue("--repeat", "N", "emit the request list N times"
                                   " (default 1)",
                  &Repeat, 1, "a positive integer");
  Parser.each("--shutdown", "MODE",
              "append a shutdown frame: drain | now",
              [&](const std::string &V, std::string &Error) {
                if (V != "drain" && V != "now") {
                  Error = "--shutdown expects 'drain' or 'now'";
                  return false;
                }
                Shutdown = true;
                ShutdownMode = V;
                return true;
              });
  Parser.value("--connect", "EP",
               "submit over a socket to a live rc_serve --listen daemon"
               " (tcp:PORT or unix:PATH)",
               &Connect);
  Parser.flag("--decode", "decode response frames from stdin", &Decode);
  Parser.intValue("--expect", "N",
                  "with --decode: require exactly N responses", &Expect, 0,
                  "a non-negative integer");
  switch (Parser.parse(Argc, Argv, std::cout, std::cerr)) {
  case ArgParser::Result::Ok:
    break;
  case ArgParser::Result::Help:
    return 0;
  case ArgParser::Result::Error:
    return 2;
  }

  if (DeadlineMillis > kMaxDeadlineMillis) {
    std::cerr << "error: --deadline-ms expects at most " << kMaxDeadlineMillis
              << "\n";
    return 2;
  }
  if (Decode)
    return decode(Expect);

  if (Instances.empty() && !Shutdown) {
    std::cerr << "error: nothing to emit (need --instance, --gen, or"
                 " --shutdown)\n";
    Parser.usage(std::cerr);
    return 2;
  }
  if (Specs.empty())
    Specs.push_back("briggs+george");

  if (!Connect.empty()) {
    Endpoint Ep;
    std::string Error;
    if (!parseEndpoint(Connect, Ep, &Error)) {
      std::cerr << "error: --connect: " << Error << "\n";
      return 2;
    }
    return runConnected(Ep, Instances, Specs, DeadlineMillis, Repeat,
                        Shutdown, ShutdownMode);
  }

  for (long long R = 0; R < Repeat; ++R)
    for (const LabeledProblem &LP : Instances)
      for (const std::string &Spec : Specs)
        writeFrame(std::cout, FrameType::Request,
                   buildRequestPayload(LP.Problem, Spec, DeadlineMillis));
  if (Shutdown)
    writeFrame(std::cout, FrameType::Shutdown, ShutdownMode);
  std::cout.flush();
  return 0;
}
