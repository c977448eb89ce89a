// Randomized cross-validation of every polynomial checking algorithm
// against the definitional / exhaustive baselines (experiments E7, E8,
// E13, E14 of DESIGN.md).  Each suite sweeps seeds × J-policies via
// parameterized tests; instances are kept small enough that exhaustive
// enumeration is exact ground truth.

#include <gtest/gtest.h>

#include "gen/random_instance.h"
#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"
#include "repair/checker.h"
#include "repair/completion.h"
#include "repair/exhaustive.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

struct SweepParam {
  uint64_t seed;
  JPolicy policy;
};

std::string PolicyName(JPolicy p) {
  switch (p) {
    case JPolicy::kRandomRepair:
      return "RandomRepair";
    case JPolicy::kLowPriorityRepair:
      return "LowPriorityRepair";
    case JPolicy::kHighPriorityRepair:
      return "HighPriorityRepair";
    case JPolicy::kRandomConsistentSubset:
      return "RandomSubset";
  }
  return "?";
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_" +
         PolicyName(info.param.policy);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (JPolicy policy :
         {JPolicy::kRandomRepair, JPolicy::kLowPriorityRepair,
          JPolicy::kHighPriorityRepair, JPolicy::kRandomConsistentSubset}) {
      out.push_back({seed, policy});
    }
  }
  return out;
}

RandomProblemOptions BaseOptions(const SweepParam& p) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 14;
  opts.domain_size = 3;
  opts.priority_density = 0.6;
  opts.j_policy = p.policy;
  opts.seed = p.seed * 7919 + 13;
  return opts;
}

// --- GRepCheck1FD vs exhaustive (Lemma 4.2 / E7) ---------------------------

class OneFdProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OneFdProperty, MatchesExhaustive) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast =
      CheckGlobalOptimalOneFd(cg, pr, 0, FD(AttrSet{1}, AttrSet{2}),
                              problem.j, problem.instance->facts_of(0));
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(OneFdProperty, MatchesExhaustiveWithWideFd) {
  // A single fd with a two-attribute RHS: {1} → {2, 3}.
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2, 3})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalOneFd(
      cg, pr, 0, FD(AttrSet{1}, AttrSet{2, 3}), problem.j,
      problem.instance->facts_of(0));
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(OneFdProperty, MatchesExhaustiveWithEmptyLhs) {
  // Constant-attribute fd ∅ → 1 is still a single fd (tractable side).
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet(), AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalOneFd(
      cg, pr, 0, FD(AttrSet(), AttrSet{1}), problem.j,
      problem.instance->facts_of(0));
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, OneFdProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- GRepCheck2Keys vs exhaustive (Lemma 4.4 / E8) -------------------------

class TwoKeysProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TwoKeysProperty, BinaryRelationMatchesExhaustive) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalTwoKeys(cg, pr, 0, AttrSet{1},
                                               AttrSet{2}, problem.j,
                                               problem.instance->facts_of(0));
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(TwoKeysProperty, CompositeKeysMatchExhaustive) {
  // Keys {1,2} and {2,3} over a quaternary relation (overlapping keys,
  // an extra free attribute 4): Example 3.3's T-relation shape.
  Schema schema = Schema::SingleRelation(
      "T", 4, {FD(AttrSet{1, 2}, AttrSet{1, 2, 3, 4}),
               FD(AttrSet{2, 3}, AttrSet{1, 2, 3, 4})});
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.domain_size = 2;  // keep key collisions frequent
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalTwoKeys(
      cg, pr, 0, AttrSet{1, 2}, AttrSet{2, 3}, problem.j,
      problem.instance->facts_of(0));
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoKeysProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Pareto checking vs exhaustive -----------------------------------------

class ParetoProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ParetoProperty, MatchesExhaustiveOnHardSchema) {
  // The Pareto check is polynomial for *every* schema; validate it on a
  // hard one (S4 = {1→2, 2→3}).
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  if (!IsConsistent(cg, problem.j)) {
    GTEST_SKIP() << "generator produced an inconsistent J (impossible)";
  }
  CheckResult fast = CheckParetoOptimal(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckParetoOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  if (!fast.optimal && fast.witness.has_value()) {
    EXPECT_TRUE(IsParetoImprovement(cg, pr, problem.j,
                                    fast.witness->improvement));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParetoProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- CCP primary-key algorithm vs exhaustive (Lemma 7.3 / E13) -------------

class CcpPrimaryKeyProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CcpPrimaryKeyProperty, MatchesExhaustive) {
  // Two relations, each with a primary key; cross-conflict priorities.
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{1, 2}));
  schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{1, 2}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 9;
  opts.cross_priority_density = 0.5;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalCcpPrimaryKey(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcpPrimaryKeyProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- CCP constant-attribute algorithm vs exhaustive (E14) ------------------

class CcpConstantAttrProperty : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(CcpConstantAttrProperty, MatchesExhaustive) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  schema.MustAddFd(s, FD(AttrSet(), AttrSet{1, 2}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 9;
  opts.cross_priority_density = 0.5;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalCcpConstantAttr(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcpConstantAttrProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Unified checker vs exhaustive, mixed schema ----------------------------

class CheckerProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CheckerProperty, MixedTractableSchemaMatchesExhaustive) {
  // The running-example shape: one single-fd relation + one two-keys
  // relation, checked through the dispatching RepairChecker.
  Schema schema;
  RelId a = schema.MustAddRelation("A", 3);
  RelId b = schema.MustAddRelation("B", 2);
  schema.MustAddFd(a, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{2}, AttrSet{1}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 10;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  RepairChecker checker(*problem.instance, pr);
  EXPECT_TRUE(checker.SchemaIsTractable());
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  ASSERT_TRUE(outcome.ok());
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(outcome->result.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, outcome->result),
            "");
}

TEST_P(CheckerProperty, HardRelationFallbackMatchesExhaustive) {
  // A schema mixing a tractable relation with a hard one (S4): the
  // checker must route the hard relation through the exact fallback and
  // still agree with whole-instance exhaustive checking.
  Schema schema;
  RelId a = schema.MustAddRelation("Easy", 2);
  RelId b = schema.MustAddRelation("Hard", 3);
  schema.MustAddFd(a, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{2}, AttrSet{3}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 8;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  RepairChecker checker(*problem.instance, pr);
  EXPECT_FALSE(checker.SchemaIsTractable());
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  ASSERT_TRUE(outcome.ok());
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(outcome->result.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, outcome->result),
            "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CheckerProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Semantics inclusions: completion ⊆ global ⊆ Pareto ---------------------

class InclusionProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InclusionProperty, OptimalityInclusionsHold) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 10;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  for (const DynamicBitset& repair : AllRepairs(cg)) {
    bool completion = CheckCompletionOptimal(cg, pr, repair).optimal;
    bool global = ExhaustiveCheckGlobalOptimal(cg, pr, repair).optimal;
    bool pareto = CheckParetoOptimal(cg, pr, repair).optimal;
    EXPECT_TRUE(!completion || global) << "completion ⊆ global violated";
    EXPECT_TRUE(!global || pareto) << "global ⊆ Pareto violated";
  }
}

TEST_P(InclusionProperty, EveryInstanceHasACompletionOptimalRepair) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  // The greedy procedure always yields one, and the checker accepts it.
  DynamicBitset greedy = GreedyCompletionRepair(cg, pr, GetParam().seed);
  EXPECT_TRUE(IsRepair(cg, greedy));
  EXPECT_TRUE(CheckCompletionOptimal(cg, pr, greedy).optimal);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InclusionProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

}  // namespace
}  // namespace prefrep
