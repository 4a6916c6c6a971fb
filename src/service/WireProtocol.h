//===- service/WireProtocol.h - Service wire schema -------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned wire schema of the coalescing service. Traffic is a
/// sequence of length-prefixed frames over any byte stream (rc_serve uses
/// stdio, so the same daemon works behind a socket wrapper, inetd, or a
/// pipe):
///
///   offset  size  field
///   0       4     magic "RCSP"
///   4       1     protocol version (kWireVersion)
///   5       1     frame type (FrameType)
///   6       4     payload length, unsigned big-endian
///   10      N     payload bytes
///
/// Parse-or-reject is strict: a frame with a bad magic, unknown version or
/// type, or a truncated header/payload is Malformed and poisons the stream
/// (the daemon answers nothing further and exits non-zero). The one
/// recoverable frame-level error is an oversized payload — the length field
/// is trusted, the payload is skipped, and the daemon answers a BadRequest
/// so a buggy client learns its limit without killing everyone else's
/// connection.
///
/// Request payloads are the challenge text format plus a tiny header (one
/// "key value" line each, header keys exactly once, `instance` last since
/// the rest of the payload is the instance):
///
///   rcq 1
///   spec briggs+george
///   deadline-ms 250        (optional; 0 or absent = no deadline; decimal
///                           digits, at most kMaxDeadlineMillis)
///   instance
///   k 4
///   n 8
///   ...
///
/// Response payloads are JSON: {"rcs":1,"status":"<wire status>", then
/// optional "message", "bad_key"/"bad_value" (BadOption), and "result"
/// (the standard outcome object, exactly what writeOutcomeJson emits) for
/// ok/timed-out}. Shutdown frames carry "" or "drain" (finish in-flight
/// work) or "now" (cancel in-flight work; partial results are flagged);
/// the service acknowledges with a shutting-down response carrying final
/// stats.
///
//===----------------------------------------------------------------------===//

#ifndef SERVICE_WIREPROTOCOL_H
#define SERVICE_WIREPROTOCOL_H

#include "challenge/StrategyRunner.h"
#include "coalescing/Problem.h"
#include "service/ReplyStatus.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

namespace rc {

/// Wire protocol version; bump on any frame-layout or grammar change.
constexpr uint8_t kWireVersion = 1;

/// Frames larger than this are rejected (and skipped) by default. Large
/// enough for ~million-edge instances in text form, small enough that a
/// corrupt length field cannot make the daemon buffer gigabytes.
constexpr uint32_t kDefaultMaxPayloadBytes = 8u << 20;

enum class FrameType : uint8_t {
  Request = 1,  ///< Client -> daemon: one coalescing request.
  Response = 2, ///< Daemon -> client: one response, in request order.
  Shutdown = 3, ///< Client -> daemon: stop accepting, drain, acknowledge.
};

struct Frame {
  FrameType Type = FrameType::Request;
  std::string Payload;
};

/// Short stable name of \p T for diagnostics ("request", "response",
/// "shutdown").
const char *frameTypeName(FrameType T);

enum class FrameReadStatus {
  Ok,        ///< A frame was read into the out-parameter.
  Eof,       ///< Clean end of stream (before any header byte).
  TooLarge,  ///< Valid header, oversized payload; skipped, stream usable.
  Malformed, ///< Bad magic/version/type or truncation; stream poisoned.
};

/// Writes one frame (header + \p Payload) to \p OS. Payloads above 4 GiB
/// are a caller bug (asserted; the length field is 32-bit).
void writeFrame(std::ostream &OS, FrameType Type, const std::string &Payload);

/// Reads one frame into \p F. On TooLarge the payload is consumed and the
/// next frame can be read; on Malformed the stream position is undefined.
/// \p Error receives a diagnostic for TooLarge and Malformed.
FrameReadStatus readFrame(std::istream &IS, Frame &F,
                          uint32_t MaxPayloadBytes = kDefaultMaxPayloadBytes,
                          std::string *Error = nullptr);

/// The largest `deadline-ms` a request may carry: 2^31 - 1 ms, about 24.8
/// days. Admission adds the deadline to steady_clock::now(), whose
/// nanosecond count overflows for values above about 9.2e12 ms.
constexpr int64_t kMaxDeadlineMillis = (int64_t(1) << 31) - 1;

/// A parsed request payload.
struct WireRequest {
  std::string Spec;
  int64_t DeadlineMillis = 0;
  CoalescingProblem Problem;
};

/// Builds a request payload for \p P under \p Spec.
std::string buildRequestPayload(const CoalescingProblem &P,
                                const std::string &Spec,
                                int64_t DeadlineMillis = 0);

/// Parses a request payload; strict: the version line must come first,
/// header keys are known and unique, `spec` and `instance` are required,
/// and the instance must parse as challenge text.
/// \returns false with a diagnostic in \p Error otherwise.
bool parseRequestPayload(const std::string &Payload, WireRequest &Request,
                         std::string *Error = nullptr);

/// Everything a response payload can carry.
struct WireResponse {
  ReplyStatus Status = ReplyStatus::Ok;
  /// Diagnostic for non-Ok statuses.
  std::string Message;
  /// The offending option key/value for BadOption.
  std::string BadKey;
  std::string BadValue;
  /// Borrowed outcome for Ok / TimedOut; null omits "result".
  const StrategyOutcome *Outcome = nullptr;
};

/// Serializes \p R as a response payload. \p IncludeTiming false zeroes
/// wall-clock fields so equal work serializes byte-identically (this is
/// also what makes cached responses replayable verbatim).
std::string buildResponsePayload(const WireResponse &R, bool IncludeTiming);

/// Extracts the "status" field of a response payload (cheap scan, no JSON
/// parser). Returns false if the payload does not look like a response.
bool extractResponseStatus(const std::string &Payload, std::string &Status);

/// Typed variant: also fails when the status string is not a ReplyStatus
/// wire name. The one from-wire path (rc::Client, rc_request --decode).
bool extractResponseStatus(const std::string &Payload, ReplyStatus &Status);

/// Extracts a top-level string member of a response payload ("message",
/// "bad_key", "bad_value"), unescaping the JSON string. Returns false when
/// the key is absent. Responses are machine-built by buildResponsePayload,
/// so a targeted scan is sound — keys appear at most once.
bool extractResponseString(const std::string &Payload, const std::string &Key,
                           std::string &Value);

} // namespace rc

#endif // SERVICE_WIREPROTOCOL_H
