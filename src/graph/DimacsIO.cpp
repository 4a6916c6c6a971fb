//===- graph/DimacsIO.cpp - DIMACS graph format ----------------------------===//

#include "graph/DimacsIO.h"

#include <sstream>

using namespace rc;

void rc::writeDimacs(std::ostream &OS, const Graph &G) {
  OS << "c interference graph\n";
  OS << "p edge " << G.numVertices() << " " << G.numEdges() << "\n";
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U))
      if (V > U)
        OS << "e " << U + 1 << " " << V + 1 << "\n";
}

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool rc::readDimacs(std::istream &IS, Graph &G, std::string *Error) {
  G = Graph();
  GraphBuilder B;
  bool SawHeader = false;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag) || Tag == "c")
      continue;
    auto where = [LineNo] { return "line " + std::to_string(LineNo) + ": "; };
    if (Tag == "p") {
      std::string Kind;
      unsigned N = 0, M = 0;
      if (!(LS >> Kind >> N >> M) || (Kind != "edge" && Kind != "col"))
        return fail(Error, where() + "malformed problem line");
      if (SawHeader)
        return fail(Error, where() + "duplicate problem line");
      B = GraphBuilder(N);
      SawHeader = true;
    } else if (Tag == "e") {
      if (!SawHeader)
        return fail(Error, where() + "edge before the problem line");
      unsigned U = 0, V = 0;
      if (!(LS >> U >> V) || U == 0 || V == 0 || U > B.numVertices() ||
          V > B.numVertices() || U == V)
        return fail(Error, where() + "malformed edge");
      B.addEdge(U - 1, V - 1);
    } else {
      return fail(Error, where() + "unknown tag '" + Tag + "'");
    }
  }
  if (!SawHeader)
    return fail(Error, "missing problem line");
  G = std::move(B).build();
  return true;
}
