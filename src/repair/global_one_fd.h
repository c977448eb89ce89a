// Copyright (c) prefrep contributors.
// Globally-optimal repair checking for a single-relation schema whose FD
// set is equivalent to a single FD A → B (§4.1, algorithm GRepCheck1FD of
// Figure 2).
//
// The algorithm tries, for every conflicting pair f ∈ J, g ∈ I \ J, the
// swap J[f↔g] — remove from J the facts agreeing with f on A∪B, add the
// facts of I agreeing with g on A∪B — and accepts J iff no swap is a
// global improvement (Lemma 4.2 shows this is complete).  For a
// consistent J the outcome of J[f↔g] depends only on g's A∪B class, so
// the implementation decides one swap per class, not one per pair (see
// docs/algorithms.md, "GRepCheck1FD").
//
// Historical note (§4.1): Proposition 10(iii) of [SCM] claimed global and
// completion optimality coincide for a single FD, which would have given
// tractability via completion checking; that proposition is incorrect,
// and this algorithm is the paper's replacement proof of tractability.

#ifndef PREFREP_REPAIR_GLOBAL_ONE_FD_H_
#define PREFREP_REPAIR_GLOBAL_ONE_FD_H_

#include <span>

#include "repair/improvement.h"

namespace prefrep {

/// The swap J[f↔g] of Example 4.1: requires f ∈ J, f and g agree on
/// fd.lhs and disagree on fd.rhs.  Scans the whole relation; exposed for
/// tests (Example 4.1) and for the reference loop in the test support.
DynamicBitset SwapBlocks(const Instance& instance, RelId rel, const FD& fd,
                         const DynamicBitset& j, FactId f, FactId g);

/// GRepCheck1FD restricted to the facts `scope` of relation `rel`, where
/// ∆|rel is equivalent to the single FD `fd` (caller obtains `fd` from
/// the dichotomy classifier): decides whether J ∩ scope is a globally-
/// optimal repair of scope.
///
/// `scope` is ascending and closed under conflicts: one conflict block
/// (`Block::fact_list`) or the whole relation (`facts_of(rel)`).  A swap
/// J[f↔g] only touches facts of f's and g's block (every fact agreeing
/// with f or g on lhs∪rhs conflicts with the other endpoint), so the
/// relation's verdict is the conjunction of its blocks'.  J outside the
/// scope is not examined.
///
/// Handles arbitrary J ∩ scope: an inconsistent or non-maximal one is
/// rejected (with a witness for the non-maximal case).  Linear in the
/// scope and its conflicts, plus, for each A-group decided, a sort of
/// the group and a binary search per priority edge into J's class; the
/// verdict, witness and explanation are those of Figure 2's loop.
CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, RelId rel,
                                    const FD& fd, const DynamicBitset& j,
                                    std::span<const FactId> scope);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_GLOBAL_ONE_FD_H_
