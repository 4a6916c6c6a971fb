//===- challenge/ChallengeFormat.cpp - Instance (de)serialization ---------===//

#include "challenge/ChallengeFormat.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

using namespace rc;

void rc::writeChallenge(std::ostream &OS, const CoalescingProblem &P) {
  OS << "# coalescing challenge instance\n";
  OS << "k " << P.K << "\n";
  OS << "n " << P.G.numVertices() << "\n";
  for (unsigned U = 0; U < P.G.numVertices(); ++U)
    for (unsigned V : P.G.neighbors(U))
      if (V > U)
        OS << "e " << U << " " << V << "\n";
  for (const Affinity &A : P.Affinities)
    OS << "a " << A.U << " " << A.V << " " << A.Weight << "\n";
}

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool rc::parseCount(const std::string &Text, uint64_t &Out) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  unsigned long long Value = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return false;
  Out = Value;
  return true;
}

/// Reads the count after a 'k' or 'n' tag (see parseCount), at most
/// \p Max. \p What names the count in diagnostics.
static bool readCount(std::istream &LS, unsigned Max, const char *What,
                      unsigned &Out, std::string &Message) {
  std::string Token;
  uint64_t Value = 0;
  if (!(LS >> Token)) {
    Message = std::string("expected ") + What;
    return false;
  }
  if (!parseCount(Token, Value)) {
    Message = std::string("malformed ") + What + " '" + Token + "'";
    return false;
  }
  if (Value > Max) {
    Message = std::string(What) + " " + Token + " exceeds the limit " +
              std::to_string(Max);
    return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}

bool rc::readChallenge(std::istream &IS, CoalescingProblem &P,
                       std::string *Error) {
  P = CoalescingProblem();
  bool SawK = false, SawN = false;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag) || Tag[0] == '#')
      continue;
    auto where = [LineNo] { return "line " + std::to_string(LineNo) + ": "; };
    std::string Message;
    if (Tag == "k") {
      if (!readCount(LS, MaxChallengeRegisters, "register count", P.K,
                     Message))
        return fail(Error, where() + Message);
      if (P.K == 0)
        return fail(Error, where() + "register count must be positive");
      SawK = true;
    } else if (Tag == "n") {
      unsigned N;
      if (!readCount(LS, MaxChallengeVertices, "vertex count", N, Message))
        return fail(Error, where() + Message);
      P.G = Graph(N);
      SawN = true;
    } else if (Tag == "e") {
      unsigned U, V;
      if (!SawN)
        return fail(Error, where() + "'e' before 'n'");
      if (!(LS >> U >> V) || U >= P.G.numVertices() ||
          V >= P.G.numVertices() || U == V)
        return fail(Error, where() + "malformed interference edge");
      P.G.addEdge(U, V);
    } else if (Tag == "a") {
      unsigned U, V;
      double W;
      if (!SawN)
        return fail(Error, where() + "'a' before 'n'");
      if (!(LS >> U >> V >> W) || U >= P.G.numVertices() ||
          V >= P.G.numVertices() || U == V)
        return fail(Error, where() + "malformed affinity");
      P.Affinities.push_back({U, V, W});
    } else {
      return fail(Error, where() + "unknown tag '" + Tag + "'");
    }
  }
  if (!SawN)
    return fail(Error, "missing 'n' line");
  if (!SawK)
    return fail(Error, "missing 'k' line");
  return true;
}
