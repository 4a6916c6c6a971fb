//===- runner/SweepManifest.cpp - Declarative instance sweeps -------------===//

#include "runner/SweepManifest.h"

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeFormat.h"
#include "challenge/ChallengeInstance.h"
#include "support/Random.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace rc;

std::string SweepEntry::label() const {
  std::ostringstream OS;
  switch (K) {
  case Kind::Subtree:
    OS << "subtree seed=" << Seed << " n=" << N << " slack=" << Slack;
    if (Affinity != 0.8)
      OS << " affinity=" << Affinity;
    break;
  case Kind::Program:
    OS << "program seed=" << Seed << " blocks=" << Blocks
       << " slack=" << Slack;
    break;
  case Kind::File:
    OS << "file " << Path;
    break;
  }
  return OS.str();
}

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

/// Parses "key=value" into \p Key / \p Value; false when '=' is missing.
static bool splitKeyValue(const std::string &Token, std::string &Key,
                          std::string &Value) {
  size_t Eq = Token.find('=');
  if (Eq == std::string::npos || Eq == 0)
    return false;
  Key = Token.substr(0, Eq);
  Value = Token.substr(Eq + 1);
  return !Value.empty();
}

/// Parses a count value (see parseCount) of at most \p Max into \p Out.
template <typename T>
static bool parseCountField(const std::string &Value, uint64_t Max, T &Out) {
  uint64_t Count = 0;
  if (!parseCount(Value, Count) || Count > Max)
    return false;
  Out = static_cast<T>(Count);
  return true;
}

static bool parseEntry(const std::string &Line, unsigned LineNo,
                       SweepEntry &Entry, std::string *Error) {
  std::istringstream Tokens(Line);
  std::string Kind;
  Tokens >> Kind;
  auto where = [&] { return "manifest line " + std::to_string(LineNo) + ": "; };

  if (Kind == "file") {
    Entry.K = SweepEntry::Kind::File;
    // The rest of the line (trimmed) is the path; paths with spaces work.
    std::string Path;
    std::getline(Tokens, Path);
    size_t Begin = Path.find_first_not_of(" \t");
    if (Begin == std::string::npos)
      return fail(Error, where() + "file entry needs a path");
    Entry.Path = Path.substr(Begin, Path.find_last_not_of(" \t") - Begin + 1);
    return true;
  }

  if (Kind == "subtree")
    Entry.K = SweepEntry::Kind::Subtree;
  else if (Kind == "program")
    Entry.K = SweepEntry::Kind::Program;
  else
    return fail(Error, where() + "unknown entry kind '" + Kind +
                           "' (expected subtree, program or file)");

  std::string Token;
  while (Tokens >> Token) {
    std::string Key, Value;
    if (!splitKeyValue(Token, Key, Value))
      return fail(Error, where() + "expected key=value, got '" + Token + "'");
    bool Ok = false;
    if (Key == "seed") {
      Ok = parseCountField(Value, UINT64_MAX, Entry.Seed);
    } else if (Key == "n" && Entry.K == SweepEntry::Kind::Subtree) {
      Ok = parseCountField(Value, MaxChallengeVertices, Entry.N);
    } else if (Key == "blocks" && Entry.K == SweepEntry::Kind::Program) {
      Ok = parseCountField(Value, UINT32_MAX, Entry.Blocks);
    } else if (Key == "slack") {
      Ok = parseCountField(Value, MaxChallengeRegisters, Entry.Slack);
    } else if (Key == "affinity" && Entry.K == SweepEntry::Kind::Subtree) {
      char *End = nullptr;
      Entry.Affinity = std::strtod(Value.c_str(), &End);
      Ok = *End == '\0';
    } else {
      return fail(Error,
                  where() + "unknown key '" + Key + "' for " + Kind);
    }
    if (!Ok)
      return fail(Error, where() + "malformed value in '" + Token + "'");
  }
  if (Entry.K == SweepEntry::Kind::Subtree && Entry.N < 4)
    return fail(Error, where() + "subtree entry needs n=<count> (>= 4)");
  if (Entry.K == SweepEntry::Kind::Program && Entry.Blocks < 2)
    return fail(Error, where() + "program entry needs blocks=<count> (>= 2)");
  return true;
}

bool rc::parseSweepManifest(std::istream &In, SweepManifest &Manifest,
                            std::string *Error) {
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t Begin = Line.find_first_not_of(" \t");
    if (Begin == std::string::npos || Line[Begin] == '#')
      continue;
    SweepEntry Entry;
    if (!parseEntry(Line.substr(Begin), LineNo, Entry, Error))
      return false;
    Manifest.Entries.push_back(std::move(Entry));
  }
  return true;
}

bool rc::loadSweepManifest(const std::string &Path, SweepManifest &Manifest,
                           std::string *Error) {
  std::ifstream In(Path);
  if (!In)
    return fail(Error, "cannot open manifest " + Path);
  return parseSweepManifest(In, Manifest, Error);
}

bool rc::materializeSweepEntry(const SweepEntry &Entry, LabeledProblem &Out,
                               std::string *Error) {
  Out.Label = Entry.label();
  switch (Entry.K) {
  case SweepEntry::Kind::Subtree: {
    // Mirrors the golden-seed scheme: Rng(seed), TreeSize = n/2.
    Rng Rand(Entry.Seed);
    ChallengeOptions Options;
    Options.NumValues = Entry.N;
    Options.TreeSize = Entry.N / 2;
    Options.PressureSlack = Entry.Slack;
    Options.AffinityFraction = Entry.Affinity;
    Out.Problem = generateChallengeInstance(Options, Rand);
    break;
  }
  case SweepEntry::Kind::Program: {
    Rng Rand(Entry.Seed);
    ProgramChallengeOptions Options;
    Options.NumBlocks = Entry.Blocks;
    Options.PressureSlack = Entry.Slack;
    Out.Problem = generateProgramChallengeInstance(Options, Rand);
    break;
  }
  case SweepEntry::Kind::File: {
    // Content sniffing through the zero-copy loader: `.rcb` files parse
    // straight out of the mmap'd view, text files fall back to the line
    // parser.
    std::string ReadError;
    if (!readChallengeFile(Entry.Path, Out.Problem, &ReadError))
      return fail(Error, "cannot read " + Entry.Path +
                             (ReadError.empty() ? "" : ": " + ReadError));
    break;
  }
  }
  return true;
}

bool rc::materializeSweep(const SweepManifest &Manifest,
                          std::vector<LabeledProblem> &Out,
                          std::string *Error) {
  Out.reserve(Out.size() + Manifest.Entries.size());
  for (const SweepEntry &Entry : Manifest.Entries) {
    LabeledProblem LP;
    if (!materializeSweepEntry(Entry, LP, Error))
      return false;
    Out.push_back(std::move(LP));
  }
  return true;
}
