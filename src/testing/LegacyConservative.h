//===- testing/LegacyConservative.h - Fixpoint driver -----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original fixpoint conservative coalescing driver: re-scans every
/// pending affinity each pass until a pass makes no progress. It is the
/// differential-testing reference for the incremental worklist driver
/// (coalescing/Conservative.h): the conservative-worklist-parity fuzz
/// property and the driver unit tests diff the two, and bench_conservative
/// times it so the worklist driver's speedup stays visible. Quadratic in
/// passes x affinities, so not for production use.
///
//===----------------------------------------------------------------------===//

#ifndef TESTING_LEGACYCONSERVATIVE_H
#define TESTING_LEGACYCONSERVATIVE_H

#include "coalescing/Conservative.h"

namespace rc {
namespace testing {

/// Processes affinities in decreasing weight order, merging when the
/// classes do not interfere and \p Rule deems the merge safe, and repeats
/// the scan until nothing changes. Produces the same solution and final
/// rejection census as conservativeCoalesce. \p Telemetry and \p Cancel
/// behave as for conservativeCoalesce, except that the rejection counters
/// of a cancelled run describe only its last (partial) pass.
ConservativeResult
conservativeCoalesceLegacy(const CoalescingProblem &P, ConservativeRule Rule,
                           CoalescingTelemetry *Telemetry = nullptr,
                           const CancelToken *Cancel = nullptr);

} // namespace testing
} // namespace rc

#endif // TESTING_LEGACYCONSERVATIVE_H
