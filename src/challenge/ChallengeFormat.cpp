//===- challenge/ChallengeFormat.cpp - Instance (de)serialization ---------===//
//
// One reader and one writer for the text format. The reader walks a byte
// buffer: lines are cut with memchr, tokens by hand, numbers are read with
// std::from_chars. The writer appends into a std::string with
// std::to_chars; the ostream entry point flushes that string in chunks.
//
//===----------------------------------------------------------------------===//

#include "challenge/ChallengeFormat.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>

using namespace rc;

namespace {

/// Appends the decimal rendering of \p X, as `<< unsigned` prints it.
void appendUnsigned(std::string &Out, unsigned X) {
  char Buf[16];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X).ptr);
}

/// Appends the text rendering of \p P to \p Out. \p Flush is called with
/// \p Out after every line, so a streaming caller can drain it. Each line
/// is assembled in a local buffer and appended once; an edge line reuses
/// its "e <u> " prefix across u's neighbours.
template <typename FlushFn>
void renderChallenge(std::string &Out, const CoalescingProblem &P,
                     FlushFn Flush) {
  Out += "# coalescing challenge instance\nk ";
  appendUnsigned(Out, P.K);
  Out += "\nn ";
  appendUnsigned(Out, P.G.numVertices());
  Out += '\n';
  // "a <u> <v> <weight>\n": two 10-digit vertices and a weight of at most
  // 13 characters. Each field is written below Last, leaving a byte for
  // the separator after it.
  char Line[48];
  char *const Last = Line + sizeof(Line) - 1;
  for (unsigned U = 0; U < P.G.numVertices(); ++U) {
    Line[0] = 'e';
    Line[1] = ' ';
    char *Prefix = std::to_chars(Line + 2, Last, U).ptr;
    *Prefix++ = ' ';
    for (unsigned V : P.G.neighbors(U))
      if (V > U) {
        char *End = std::to_chars(Prefix, Last, V).ptr;
        *End++ = '\n';
        Out.append(Line, End);
        Flush(Out);
      }
  }
  for (const Affinity &A : P.Affinities) {
    Line[0] = 'a';
    Line[1] = ' ';
    char *End = std::to_chars(Line + 2, Last, A.U).ptr;
    *End++ = ' ';
    End = std::to_chars(End, Last, A.V).ptr;
    *End++ = ' ';
    // The default ostream rendering of a double: printf's "%g", 6 digits.
    End = std::to_chars(End, Last, A.Weight, std::chars_format::general, 6)
              .ptr;
    *End++ = '\n';
    Out.append(Line, End);
    Flush(Out);
  }
}

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

/// The blank bytes of the C locale, which separate tokens.
bool isBlank(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Cuts the whitespace-separated tokens of one line, in order.
class LineTokens {
  const char *Cur, *End;

public:
  LineTokens(const char *Begin, const char *End) : Cur(Begin), End(End) {}

  /// The next token; empty at the end of the line.
  std::string_view next() {
    while (Cur != End && isBlank(*Cur))
      ++Cur;
    const char *Begin = Cur;
    while (Cur != End && !isBlank(*Cur))
      ++Cur;
    return {Begin, static_cast<size_t>(Cur - Begin)};
  }
};

/// Reads the count token after a 'k' or 'n' tag (see parseCount), at most
/// \p Max. \p What names the count in diagnostics.
bool readCount(LineTokens &Tokens, unsigned Max, const char *What,
               unsigned &Out, std::string &Message) {
  std::string_view Token = Tokens.next();
  uint64_t Value = 0;
  if (Token.empty()) {
    Message = std::string("expected ") + What;
    return false;
  }
  if (!parseCount(Token, Value)) {
    Message = std::string("malformed ") + What + " '" + std::string(Token) +
              "'";
    return false;
  }
  if (Value > Max) {
    Message = std::string(What) + " " + std::string(Token) +
              " exceeds the limit " + std::to_string(Max);
    return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}

/// Reads an endpoint token naming a vertex below \p N: decimal digits with
/// an optional sign. A minus sign is accepted on zero only ("-0" is 0); a
/// negative vertex is refused instead of wrapped modulo 2^32.
bool readEndpoint(LineTokens &Tokens, unsigned N, unsigned &Out) {
  std::string_view Token = Tokens.next();
  bool Negative = false;
  if (!Token.empty() && (Token[0] == '+' || Token[0] == '-')) {
    Negative = Token[0] == '-';
    Token.remove_prefix(1);
  }
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Out);
  return Ec == std::errc() && Ptr == End && !(Negative && Out != 0) &&
         Out < N;
}

/// Reads a weight token: a finite decimal floating-point number with an
/// optional sign ('+' included) and exponent, correctly rounded. Hex, inf
/// and nan are refused, and so is a magnitude past DBL_MAX; one below the
/// smallest subnormal reads as zero.
bool readWeight(LineTokens &Tokens, double &Out) {
  std::string_view Token = Tokens.next();
  std::string_view Number = Token;
  if (!Number.empty() && Number[0] == '+') {
    Number.remove_prefix(1);
    if (!Number.empty() && Number[0] == '-')
      return false; // from_chars would take the second sign.
  }
  const char *End = Number.data() + Number.size();
  auto [Ptr, Ec] = std::from_chars(Number.data(), End, Out,
                                   std::chars_format::general);
  if (Ptr != End)
    return false;
  if (Ec == std::errc::result_out_of_range)
    // from_chars reports underflow and overflow alike and leaves Out
    // unset; strtod rounds an underflow to the nearest value (zero or a
    // subnormal) and an overflow to infinity, which the check refuses.
    Out = std::strtod(std::string(Token).c_str(), nullptr);
  else if (Ec != std::errc())
    return false;
  return std::isfinite(Out);
}

} // namespace

void rc::appendChallenge(std::string &Out, const CoalescingProblem &P) {
  // Lines are at most "a <u> <v> <weight>\n": two 8-digit vertices (n is
  // capped at 2^24) and a weight of at most 13 characters.
  Out.reserve(Out.size() + 64 + 20 * size_t(P.G.numEdges()) +
              36 * P.Affinities.size());
  renderChallenge(Out, P, [](std::string &) {});
}

void rc::writeChallenge(std::ostream &OS, const CoalescingProblem &P) {
  constexpr size_t ChunkBytes = 64 << 10;
  std::string Chunk;
  Chunk.reserve(ChunkBytes + 64);
  renderChallenge(Chunk, P, [&OS](std::string &Out) {
    if (Out.size() >= ChunkBytes) {
      OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
      Out.clear();
    }
  });
  OS.write(Chunk.data(), static_cast<std::streamsize>(Chunk.size()));
}

bool rc::parseCount(std::string_view Text, uint64_t &Out) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string_view::npos)
    return false;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

bool rc::readChallengeText(const char *Data, size_t Size,
                           CoalescingProblem &P, std::string *Error) {
  P = CoalescingProblem();
  GraphBuilder G;
  bool SawK = false, SawN = false;
  unsigned LineNo = 0;
  const char *Cur = Data, *End = Data + Size;
  // A final newline ends the last line; it does not start an empty one.
  while (Cur != End) {
    const char *Eol =
        static_cast<const char *>(std::memchr(Cur, '\n', End - Cur));
    const char *LineEnd = Eol ? Eol : End;
    LineTokens Tokens(Cur, LineEnd);
    Cur = Eol ? Eol + 1 : End;
    ++LineNo;
    std::string_view Tag = Tokens.next();
    if (Tag.empty() || Tag[0] == '#')
      continue;
    auto where = [LineNo] { return "line " + std::to_string(LineNo) + ": "; };
    std::string Message;
    if (Tag == "k") {
      if (!readCount(Tokens, MaxChallengeRegisters, "register count", P.K,
                     Message))
        return fail(Error, where() + Message);
      if (P.K == 0)
        return fail(Error, where() + "register count must be positive");
      SawK = true;
    } else if (Tag == "n") {
      // A second 'n' would drop the edges read so far and could leave
      // earlier affinities naming vertices past the new count.
      if (SawN)
        return fail(Error, where() + "duplicate 'n' line");
      unsigned N;
      if (!readCount(Tokens, MaxChallengeVertices, "vertex count", N,
                     Message))
        return fail(Error, where() + Message);
      G = GraphBuilder(N);
      SawN = true;
    } else if (Tag == "e") {
      unsigned U, V;
      if (!SawN)
        return fail(Error, where() + "'e' before 'n'");
      if (!readEndpoint(Tokens, G.numVertices(), U) ||
          !readEndpoint(Tokens, G.numVertices(), V) || U == V)
        return fail(Error, where() + "malformed interference edge");
      G.addEdge(U, V);
    } else if (Tag == "a") {
      unsigned U, V;
      double W;
      if (!SawN)
        return fail(Error, where() + "'a' before 'n'");
      if (!readEndpoint(Tokens, G.numVertices(), U) ||
          !readEndpoint(Tokens, G.numVertices(), V) || U == V ||
          !readWeight(Tokens, W))
        return fail(Error, where() + "malformed affinity");
      P.Affinities.push_back({U, V, W});
    } else {
      return fail(Error, where() + "unknown tag '" + std::string(Tag) + "'");
    }
  }
  if (!SawN)
    return fail(Error, "missing 'n' line");
  if (!SawK)
    return fail(Error, "missing 'k' line");
  P.G = std::move(G).build();
  return true;
}

bool rc::readChallenge(std::istream &IS, CoalescingProblem &P,
                       std::string *Error) {
  // One parser: buffer the stream and parse it like a mapped file.
  std::string Text{std::istreambuf_iterator<char>(IS),
                   std::istreambuf_iterator<char>()};
  return readChallengeText(Text.data(), Text.size(), P, Error);
}
