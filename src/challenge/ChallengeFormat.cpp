//===- challenge/ChallengeFormat.cpp - Instance (de)serialization ---------===//

#include "challenge/ChallengeFormat.h"

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
    if (Tag == "k") {
      if (!(LS >> P.K))
        return fail(Error, where() + "expected register count after 'k'");
      if (P.K == 0)
        return fail(Error, where() + "register count must be positive");
      SawK = true;
    } else if (Tag == "n") {
      unsigned N;
      if (!(LS >> N))
        return fail(Error, where() + "expected vertex count after 'n'");
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
