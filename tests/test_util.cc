#include "test_util.h"

#include "base/string_util.h"
#include "repair/global_one_fd.h"

namespace prefrep {
namespace testing_util {

PreferredRepairProblem MakeProblem(const ProblemSpec& spec) {
  Schema schema;
  schema.MustAddRelation("R", spec.arity);
  for (const std::string& fd : spec.fds) {
    schema.MustAddFdParsed(fd);
  }
  PreferredRepairProblem problem(std::move(schema));
  for (const std::string& fact : spec.facts) {
    size_t colon = fact.find(':');
    PREFREP_CHECK_MSG(colon != std::string::npos,
                      "fact spec needs 'label: values'");
    std::string label(StripAsciiWhitespace(fact.substr(0, colon)));
    std::vector<std::string> values =
        StrSplitTrimmed(fact.substr(colon + 1), ',');
    problem.instance->MustAddFact("R", values, label);
  }
  problem.InitPriority();
  for (const std::string& edge : spec.priorities) {
    size_t gt = edge.find('>');
    PREFREP_CHECK_MSG(gt != std::string::npos,
                      "priority spec needs 'higher > lower'");
    std::string higher(StripAsciiWhitespace(edge.substr(0, gt)));
    std::string lower(StripAsciiWhitespace(edge.substr(gt + 1)));
    PREFREP_CHECK(problem.priority->AddByLabels(higher, lower).ok());
  }
  problem.j = problem.instance->EmptySubinstance();
  return problem;
}

DynamicBitset Sub(const Instance& instance,
                  const std::vector<std::string>& labels) {
  return instance.SubinstanceByLabels(labels);
}

std::string VerifyWitness(const ConflictGraph& cg, const PriorityRelation& pr,
                          const DynamicBitset& j, const CheckResult& result) {
  if (result.optimal || !result.witness.has_value()) {
    return "";
  }
  if (!IsGlobalImprovement(cg, pr, j, result.witness->improvement)) {
    return "witness is not a global improvement (" +
           result.witness->explanation + "); witness = " +
           cg.instance().SubinstanceToString(result.witness->improvement);
  }
  return "";
}

CheckResult ReferenceCheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                             const PriorityRelation& pr,
                                             RelId rel, const FD& fd,
                                             const DynamicBitset& j,
                                             std::span<const FactId> scope) {
  const Instance& instance = cg.instance();
  for (FactId f : scope) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (g > f && j.test(g)) {
        return CheckResult::NotOptimalNoWitness();
      }
    }
  }
  for (FactId g : scope) {
    if (!j.test(g) && !cg.ConflictsWithSet(g, j)) {
      DynamicBitset improvement = j;
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "J is not maximal: " + instance.FactToString(g) +
              " can be added without conflict");
    }
  }
  for (FactId f : scope) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (j.test(g)) {
        continue;
      }
      DynamicBitset swapped = SwapBlocks(instance, rel, fd, j, f, g);
      if (IsGlobalImprovement(cg, pr, j, swapped)) {
        return CheckResult::NotOptimal(
            std::move(swapped),
            "J[" + instance.FactToString(f) + " ↔ " +
                instance.FactToString(g) + "] is a global improvement");
      }
    }
  }
  return CheckResult::Optimal();
}

}  // namespace testing_util
}  // namespace prefrep
