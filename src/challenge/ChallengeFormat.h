//===- challenge/ChallengeFormat.h - Instance (de)serialization -*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small text format for coalescing problem instances, in the spirit of
/// the Appel–George challenge files:
///
///   # comment
///   k <registers>
///   n <num-vertices>
///   e <u> <v>          interference edge
///   a <u> <v> <weight> affinity
///
/// The format is line based. A line is cut into tokens at blanks (space,
/// tab, \v, \f, \r), so CRLF files read like LF files. A blank line, or one
/// whose first token starts with '#', is skipped. The first token is the
/// tag, and every field after it is one whole token: "2.5" is not a vertex
/// and "1x" is not a weight. Tokens after the last field are ignored.
///  - Counts (k, n) are decimal digits only, within MaxChallengeRegisters
///    resp. MaxChallengeVertices; k must be positive.
///  - Endpoints are decimal digits with an optional sign, naming a vertex
///    below n; a minus sign is accepted on zero only. The two endpoints of
///    a line differ.
///  - Weights are finite decimal floating-point numbers with an optional
///    sign ('+' included), fraction and exponent, read correctly rounded.
///    Hex, inf, nan and magnitudes past DBL_MAX are refused; a magnitude
///    below the smallest subnormal reads as zero.
/// 'e' and 'a' lines need an earlier 'n' line, and an instance needs both
/// a 'k' and an 'n' line; a second 'n' line is an error. Every error names
/// its line.
///
/// The writer prints counts and endpoints in decimal and weights as
/// printf's "%g" (six significant digits), so text weights are rounded;
/// the RCBF container (challenge/ChallengeBinary.h) keeps them bit-exact.
///
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEFORMAT_H
#define CHALLENGE_CHALLENGEFORMAT_H

#include "coalescing/Problem.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace rc {

/// The largest register count and vertex count either instance reader
/// (text or RCBF) accepts. The largest instance the repo generates, the
/// 2^20-vertex subtree instance of BENCH_scaling.json, has k = 162; the
/// caps leave 16x headroom on n and 400x on k, and stop a corrupt or
/// negative count from driving a multi-gigabyte allocation (a Graph of
/// 2^32 vertices, or a k-sized table per vertex).
constexpr unsigned MaxChallengeVertices = 1u << 24;
constexpr unsigned MaxChallengeRegisters = 1u << 16;

/// Parses \p Text as a decimal count: digits only, so a sign or a blank is
/// refused instead of wrapped ("-1" is not 4294967295), and false when the
/// value overflows 64 bits. Shared by the instance and manifest readers.
bool parseCount(std::string_view Text, uint64_t &Out);

/// Appends the text rendering of \p P to \p Out. The one text writer.
void appendChallenge(std::string &Out, const CoalescingProblem &P);

/// Writes \p P in the text format: appendChallenge's bytes, flushed to
/// \p OS in chunks.
void writeChallenge(std::ostream &OS, const CoalescingProblem &P);

/// Parses the text instance in the \p Size bytes at \p Data, in place. The
/// one text parser; the grammar is in the file comment.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallengeText(const char *Data, size_t Size, CoalescingProblem &P,
                       std::string *Error = nullptr);

/// Reads the rest of \p IS into memory and parses it with
/// readChallengeText.
bool readChallenge(std::istream &IS, CoalescingProblem &P,
                   std::string *Error = nullptr);

} // namespace rc

#endif // CHALLENGE_CHALLENGEFORMAT_H
