// Consistency and maximality primitives over subinstances (§2.2, §2.4):
// the building blocks every checker and constructor shares.
#include "repair/subinstance_ops.h"

#include <unordered_map>

#include "base/hash.h"
#include "conflicts/projection.h"

namespace prefrep {

bool IsConsistent(const Instance& instance, const DynamicBitset& sub) {
  return !FindViolation(instance, sub).has_value();
}

std::optional<std::pair<FactId, FactId>> FindViolation(
    const Instance& instance, const DynamicBitset& sub) {
  const Schema& schema = instance.schema();
  // Representatives of each lhs-projection group, keyed by the seeded
  // projection hash (collision lists, verified by row compare — no key
  // vectors materialized, see conflicts/projection.h).
  std::unordered_map<uint64_t, std::vector<FactId>> reps;
  for (RelId rel = 0; rel < schema.num_relations(); ++rel) {
    for (const FdProjection& p : BuildFdProjections(schema, rel)) {
      // For A → B: within each A-projection group, all facts must share
      // the same B-projection; remember one representative per group.
      reps.clear();
      for (FactId f : instance.facts_of(rel)) {
        if (!sub.test(f)) {
          continue;
        }
        const ValueId* row = instance.row(f);
        const uint64_t h = ProjectHash(row, p.lhs, p.lhs_seed);
        std::vector<FactId>& bucket = reps[h];
        FactId rep = kInvalidFactId;
        for (FactId r : bucket) {
          if (RowsEqualOn(row, instance.row(r), p.lhs)) {
            rep = r;
            break;
          }
        }
        if (rep == kInvalidFactId) {
          bucket.push_back(f);
        } else if (!RowsEqualOn(row, instance.row(rep), p.rhs)) {
          return std::make_pair(rep, f);
        }
      }
    }
  }
  return std::nullopt;
}

bool IsConsistent(const ConflictGraph& cg, const DynamicBitset& sub) {
  bool consistent = true;
  sub.ForEach([&](size_t f) {
    if (!consistent) {
      return;
    }
    for (FactId g : cg.neighbors(static_cast<FactId>(f))) {
      if (g > f && sub.test(g)) {
        consistent = false;
        return;
      }
    }
  });
  return consistent;
}

bool IsConsistent(const ConflictGraph& cg, const DynamicBitset& sub,
                  std::span<const FactId> scope) {
  for (FactId f : scope) {
    if (!sub.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (g > f && sub.test(g)) {
        return false;
      }
    }
  }
  return true;
}

bool IsRepair(const ConflictGraph& cg, const DynamicBitset& sub) {
  if (!IsConsistent(cg, sub)) {
    return false;
  }
  return !FindExtension(cg, sub).has_value();
}

std::optional<FactId> FindExtension(const ConflictGraph& cg,
                                    const DynamicBitset& sub) {
  size_t n = cg.num_facts();
  for (FactId f = 0; f < n; ++f) {
    if (sub.test(f)) {
      continue;
    }
    if (!cg.ConflictsWithSet(f, sub)) {
      return f;
    }
  }
  return std::nullopt;
}

DynamicBitset ExtendToRepair(const ConflictGraph& cg, DynamicBitset sub) {
  PREFREP_CHECK_MSG(IsConsistent(cg, sub),
                    "ExtendToRepair requires a consistent subinstance");
  size_t n = cg.num_facts();
  for (FactId f = 0; f < n; ++f) {
    if (!sub.test(f) && !cg.ConflictsWithSet(f, sub)) {
      sub.set(f);
    }
  }
  return sub;
}

DynamicBitset RestrictToRelation(const Instance& instance, RelId rel,
                                 const DynamicBitset& sub) {
  DynamicBitset out(instance.num_facts());
  for (FactId f : instance.facts_of(rel)) {
    if (sub.test(f)) {
      out.set(f);
    }
  }
  return out;
}

}  // namespace prefrep
