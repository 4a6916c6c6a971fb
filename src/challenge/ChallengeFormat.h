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
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEFORMAT_H
#define CHALLENGE_CHALLENGEFORMAT_H

#include "coalescing/Problem.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

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
bool parseCount(const std::string &Text, uint64_t &Out);

/// Writes \p P in the text format.
void writeChallenge(std::ostream &OS, const CoalescingProblem &P);

/// Parses an instance from \p IS. Both a 'k' line with a positive
/// register count and an 'n' line are required. Both counts are plain
/// decimal digits (no sign) within MaxChallengeRegisters resp.
/// MaxChallengeVertices.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallenge(std::istream &IS, CoalescingProblem &P,
                   std::string *Error = nullptr);

} // namespace rc

#endif // CHALLENGE_CHALLENGEFORMAT_H
