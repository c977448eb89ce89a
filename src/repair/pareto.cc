// Pareto-optimal repair checking (§2.4, §3): polynomial for every schema,
// by searching for a Pareto improvement set directly.
#include "repair/pareto.h"

#include <ranges>

#include "repair/audit.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

// The first fact g of `candidates` (in their order) that Pareto-improves
// the consistent `j`, as a NotOptimal witness; Optimal if none does.
template <typename FactRange>
CheckResult FirstParetoImprovement(const ConflictGraph& cg,
                                   const PriorityRelation& pr,
                                   const DynamicBitset& j,
                                   const FactRange& candidates) {
  const Instance& instance = cg.instance();
  for (FactId g : candidates) {
    if (j.test(g)) {
      continue;
    }
    // g improves J iff g ≻ f for every f ∈ J conflicting with g.
    bool improves = true;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f) && !pr.Prefers(g, f)) {
        improves = false;
        break;
      }
    }
    if (!improves) {
      continue;
    }
    DynamicBitset improvement = j;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f)) {
        improvement.reset(f);
      }
    }
    improvement.set(g);
    CheckResult result = CheckResult::NotOptimal(
        std::move(improvement),
        "fact " + instance.FactToString(g) +
            " is preferred over every fact of J it conflicts with");
    audit::CheckParetoWitness(cg, pr, j, result);
    return result;
  }
  return CheckResult::Optimal();
}

}  // namespace

CheckResult FindParetoImprovement(const ConflictGraph& cg,
                                  const PriorityRelation& pr,
                                  const DynamicBitset& j,
                                  std::span<const FactId> scope) {
  PREFREP_CHECK_MSG(IsConsistent(cg, j, scope),
                    "FindParetoImprovement requires a consistent J");
  return FirstParetoImprovement(cg, pr, j, scope);
}

CheckResult CheckParetoOptimal(const ConflictGraph& cg,
                               const PriorityRelation& pr,
                               const DynamicBitset& j) {
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();  // not even a repair
  }
  return FirstParetoImprovement(
      cg, pr, j,
      std::views::iota(FactId{0}, static_cast<FactId>(cg.num_facts())));
}

}  // namespace prefrep
