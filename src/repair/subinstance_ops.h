// Copyright (c) prefrep contributors.
// Consistency, maximality and (plain) repair checking for subinstances
// (§2.2, §2.4).  A repair of I is a maximal consistent subinstance of I
// (Arenas–Bertossi–Chomicki subset repairs under FDs).

#ifndef PREFREP_REPAIR_SUBINSTANCE_OPS_H_
#define PREFREP_REPAIR_SUBINSTANCE_OPS_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/dynamic_bitset.h"
#include "conflicts/conflicts.h"
#include "model/instance.h"

namespace prefrep {

/// Tests whether the subinstance satisfies every FD of the schema.
/// Runs in O(|sub| · |∆|) via hashing on FD left-hand sides — no conflict
/// graph needed.
bool IsConsistent(const Instance& instance, const DynamicBitset& sub);

/// Same, via a prebuilt conflict graph (O(edges within sub)).
bool IsConsistent(const ConflictGraph& cg, const DynamicBitset& sub);

/// Tests whether sub ∩ scope is consistent, for a `scope` closed under
/// conflicts (a conflict block, a relation, or every fact).  Time
/// linear in the scope and the conflicts at its facts of `sub`.
bool IsConsistent(const ConflictGraph& cg, const DynamicBitset& sub,
                  std::span<const FactId> scope);

/// Returns a violating pair of facts of `sub`, if any.
std::optional<std::pair<FactId, FactId>> FindViolation(
    const Instance& instance, const DynamicBitset& sub);

/// Tests whether `sub` is maximal consistent, i.e. a repair of I: `sub` is
/// consistent and every fact of I \ sub conflicts with some fact of `sub`.
bool IsRepair(const ConflictGraph& cg, const DynamicBitset& sub);

/// Returns a fact of I \ sub that could be added without violating
/// consistency (a maximality counterexample), if any.  Requires `sub`
/// consistent.
std::optional<FactId> FindExtension(const ConflictGraph& cg,
                                    const DynamicBitset& sub);

/// Greedily extends a consistent subinstance to a repair by adding
/// non-conflicting facts in ascending fact-id order.
DynamicBitset ExtendToRepair(const ConflictGraph& cg, DynamicBitset sub);

/// Restricts `sub` to the facts of relation `rel`.
DynamicBitset RestrictToRelation(const Instance& instance, RelId rel,
                                 const DynamicBitset& sub);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_SUBINSTANCE_OPS_H_
