//===- service/WireProtocol.cpp - Service wire schema ---------------------===//

#include "service/WireProtocol.h"

#include "challenge/ChallengeFormat.h"
#include "support/JsonWriter.h"

#include <cassert>
#include <sstream>
#include <string_view>

using namespace rc;

static const char kMagic[4] = {'R', 'C', 'S', 'P'};

const char *rc::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::Request:
    return "request";
  case FrameType::Response:
    return "response";
  case FrameType::Shutdown:
    return "shutdown";
  }
  return "?";
}

void rc::writeFrame(std::ostream &OS, FrameType Type,
                    const std::string &Payload) {
  assert(Payload.size() <= 0xffffffffu && "payload exceeds the length field");
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Header[10];
  Header[0] = kMagic[0];
  Header[1] = kMagic[1];
  Header[2] = kMagic[2];
  Header[3] = kMagic[3];
  Header[4] = static_cast<char>(kWireVersion);
  Header[5] = static_cast<char>(Type);
  Header[6] = static_cast<char>((Len >> 24) & 0xff);
  Header[7] = static_cast<char>((Len >> 16) & 0xff);
  Header[8] = static_cast<char>((Len >> 8) & 0xff);
  Header[9] = static_cast<char>(Len & 0xff);
  OS.write(Header, sizeof(Header));
  OS.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
}

FrameReadStatus rc::readFrame(std::istream &IS, Frame &F,
                              uint32_t MaxPayloadBytes, std::string *Error) {
  auto fail = [Error](const std::string &Message) {
    if (Error)
      *Error = Message;
    return FrameReadStatus::Malformed;
  };

  char Header[10];
  IS.read(Header, 1);
  if (IS.gcount() == 0)
    return FrameReadStatus::Eof; // Clean end between frames.
  IS.read(Header + 1, sizeof(Header) - 1);
  if (IS.gcount() != sizeof(Header) - 1)
    return fail("truncated frame header");
  for (unsigned I = 0; I < 4; ++I)
    if (Header[I] != kMagic[I])
      return fail("bad frame magic (expected RCSP)");
  if (static_cast<uint8_t>(Header[4]) != kWireVersion)
    return fail("unsupported protocol version " +
                std::to_string(static_cast<unsigned>(
                    static_cast<uint8_t>(Header[4]))) +
                " (this daemon speaks " + std::to_string(kWireVersion) + ")");
  uint8_t RawType = static_cast<uint8_t>(Header[5]);
  if (RawType < static_cast<uint8_t>(FrameType::Request) ||
      RawType > static_cast<uint8_t>(FrameType::Shutdown))
    return fail("unknown frame type " + std::to_string(RawType));
  F.Type = static_cast<FrameType>(RawType);

  uint32_t Len = (static_cast<uint32_t>(static_cast<uint8_t>(Header[6])) << 24) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Header[7])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Header[8])) << 8) |
                 static_cast<uint32_t>(static_cast<uint8_t>(Header[9]));
  if (Len > MaxPayloadBytes) {
    // Trust the header, discard the payload, keep the stream framed.
    char Sink[4096];
    uint32_t Left = Len;
    while (Left > 0) {
      std::streamsize Chunk = static_cast<std::streamsize>(
          Left < sizeof(Sink) ? Left : sizeof(Sink));
      IS.read(Sink, Chunk);
      if (IS.gcount() != Chunk)
        return fail("truncated oversized " + std::string(frameTypeName(F.Type)) +
                    "-frame payload (declared " + std::to_string(Len) +
                    " bytes)");
      Left -= static_cast<uint32_t>(Chunk);
    }
    if (Error)
      *Error = "payload of " + std::to_string(Len) +
               " bytes exceeds the limit of " +
               std::to_string(MaxPayloadBytes);
    return FrameReadStatus::TooLarge;
  }

  F.Payload.resize(Len);
  if (Len > 0) {
    IS.read(F.Payload.data(), static_cast<std::streamsize>(Len));
    if (IS.gcount() != static_cast<std::streamsize>(Len))
      return fail("truncated " + std::string(frameTypeName(F.Type)) +
                  "-frame payload (expected " + std::to_string(Len) +
                  " bytes, got " + std::to_string(IS.gcount()) + ")");
  }
  return FrameReadStatus::Ok;
}

std::string rc::buildRequestPayload(const CoalescingProblem &P,
                                    const std::string &Spec,
                                    int64_t DeadlineMillis) {
  std::string Payload = "rcq " + std::to_string(kWireVersion) + "\n";
  Payload += "spec " + Spec + "\n";
  if (DeadlineMillis > 0)
    Payload += "deadline-ms " + std::to_string(DeadlineMillis) + "\n";
  Payload += "instance\n";
  appendChallenge(Payload, P);
  return Payload;
}

bool rc::parseRequestPayload(const std::string &Payload, WireRequest &Request,
                             std::string *Error) {
  auto fail = [Error](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  Request = WireRequest();

  // The header lines are cut off the front of Rest; a final newline ends
  // the last line, it does not start an empty one.
  std::string_view Rest = Payload;
  auto nextLine = [&Rest](std::string_view &Line) {
    if (Rest.empty())
      return false;
    size_t Eol = Rest.find('\n');
    Line = Rest.substr(0, Eol);
    Rest.remove_prefix(Eol == std::string_view::npos ? Rest.size() : Eol + 1);
    return true;
  };
  const std::string VersionLine = "rcq " + std::to_string(kWireVersion);
  std::string_view Line;
  if (!nextLine(Line) || Line != VersionLine)
    return fail("request must start with '" + VersionLine + "'");

  bool HaveSpec = false, HaveDeadline = false, HaveInstance = false;
  while (nextLine(Line)) {
    size_t Space = Line.find(' ');
    std::string_view Key = Line.substr(0, Space);
    std::string Value(Space == std::string_view::npos ? std::string_view()
                                                      : Line.substr(Space + 1));
    if (Key == "spec") {
      if (HaveSpec)
        return fail("duplicate 'spec' line");
      if (Value.empty())
        return fail("'spec' line without a strategy spec");
      Request.Spec = std::move(Value);
      HaveSpec = true;
    } else if (Key == "deadline-ms") {
      if (HaveDeadline)
        return fail("duplicate 'deadline-ms' line");
      uint64_t Millis = 0;
      if (!parseCount(Value, Millis))
        return fail("invalid 'deadline-ms' value '" + Value + "'");
      if (Millis > uint64_t(kMaxDeadlineMillis))
        return fail("'deadline-ms' value " + Value + " exceeds the limit " +
                    std::to_string(kMaxDeadlineMillis));
      Request.DeadlineMillis = static_cast<int64_t>(Millis);
      HaveDeadline = true;
    } else if (Line == "instance") {
      HaveInstance = true;
      // The instance is the rest of the payload, parsed in place.
      std::string InstanceError;
      if (!readChallengeText(Rest.data(), Rest.size(), Request.Problem,
                             &InstanceError))
        return fail("malformed instance: " + InstanceError);
      break;
    } else {
      return fail("unknown request line '" + std::string(Line) + "'");
    }
  }
  if (!HaveSpec)
    return fail("request is missing its 'spec' line");
  if (!HaveInstance)
    return fail("request is missing its 'instance' section");
  return true;
}

std::string rc::buildResponsePayload(const WireResponse &R,
                                     bool IncludeTiming) {
  std::ostringstream OS;
  JsonWriter W(OS, IncludeTiming);
  W.beginObject();
  W.key("rcs").value(kJsonSchemaVersion);
  W.key("status").value(replyStatusName(R.Status));
  if (!R.Message.empty())
    W.key("message").value(R.Message);
  if (!R.BadKey.empty()) {
    W.key("bad_key").value(R.BadKey);
    W.key("bad_value").value(R.BadValue);
  }
  if (R.Outcome) {
    W.key("result");
    writeOutcomeJson(W, *R.Outcome);
  }
  W.endObject();
  return OS.str();
}

bool rc::extractResponseStatus(const std::string &Payload,
                               std::string &Status) {
  // Responses are machine-built, so a targeted scan beats a JSON parser:
  // the status field is always the second member and statuses never need
  // escaping.
  const std::string Needle = "\"status\":\"";
  size_t Pos = Payload.find(Needle);
  if (Pos == std::string::npos)
    return false;
  size_t Start = Pos + Needle.size();
  size_t End = Payload.find('"', Start);
  if (End == std::string::npos)
    return false;
  Status = Payload.substr(Start, End - Start);
  return true;
}

bool rc::extractResponseStatus(const std::string &Payload,
                               ReplyStatus &Status) {
  std::string Name;
  return extractResponseStatus(Payload, Name) &&
         replyStatusFromName(Name, Status);
}

bool rc::extractResponseString(const std::string &Payload,
                               const std::string &Key, std::string &Value) {
  // Message and bad-option fields do need unescaping (a spec value can
  // carry quotes); mirror JsonWriter's escaping exactly.
  const std::string Needle = "\"" + Key + "\":\"";
  size_t Pos = Payload.find(Needle);
  if (Pos == std::string::npos)
    return false;
  Value.clear();
  for (size_t I = Pos + Needle.size(); I < Payload.size();) {
    char C = Payload[I];
    if (C == '"')
      return true;
    if (C != '\\') {
      Value.push_back(C);
      ++I;
      continue;
    }
    if (I + 1 >= Payload.size())
      return false;
    char E = Payload[I + 1];
    I += 2;
    switch (E) {
    case '"':
    case '\\':
    case '/':
      Value.push_back(E);
      break;
    case 'b':
      Value.push_back('\b');
      break;
    case 'f':
      Value.push_back('\f');
      break;
    case 'n':
      Value.push_back('\n');
      break;
    case 'r':
      Value.push_back('\r');
      break;
    case 't':
      Value.push_back('\t');
      break;
    case 'u': {
      if (I + 4 > Payload.size())
        return false;
      unsigned Code = 0;
      for (unsigned D = 0; D < 4; ++D) {
        char H = Payload[I + D];
        Code <<= 4;
        if (H >= '0' && H <= '9')
          Code |= static_cast<unsigned>(H - '0');
        else if (H >= 'a' && H <= 'f')
          Code |= static_cast<unsigned>(H - 'a' + 10);
        else if (H >= 'A' && H <= 'F')
          Code |= static_cast<unsigned>(H - 'A' + 10);
        else
          return false;
      }
      I += 4;
      // JsonWriter only \u-escapes control bytes, so one code unit is one
      // byte here.
      Value.push_back(static_cast<char>(Code & 0xff));
      break;
    }
    default:
      return false;
    }
  }
  return false; // Unterminated string: not a machine-built response.
}
