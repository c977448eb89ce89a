// Differential tests for the scope-restricted polynomial checkers.
//
//  * GRepCheck1FD (one test per A∪B class) against the literal Figure 2
//    loop kept in test_util (every conflicting pair through SwapBlocks +
//    IsGlobalImprovement): identical verdict, witness bitset and
//    explanation, over the whole relation and over every block.
//  * GRepCheck2Keys and the Pareto search over every block against the
//    same checks over the whole relation: the relation's verdict is the
//    conjunction of its blocks' (plus its conflict-free facts), and the
//    Pareto witness of the whole instance is its block's witness.
//
// J covers the four shapes a caller can hand in: optimal, refutable by
// an improvement, inconsistent, and consistent but not maximal; the
// sweep asserts that each shape actually occurs.

#include <gtest/gtest.h>

#include "conflicts/blocks.h"
#include "gen/random_instance.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

enum class Shape { kOptimal, kImprovable, kInconsistent, kNotMaximal };

// J from the generator's policy, or made inconsistent by adding a fact
// that conflicts with it.
DynamicBitset MakeJ(const ConflictGraph& cg, const DynamicBitset& generated,
                    bool inconsistent) {
  DynamicBitset j = generated;
  if (!inconsistent) {
    return j;
  }
  for (FactId g = 0; g < cg.num_facts(); ++g) {
    if (!j.test(g) && cg.ConflictsWithSet(g, j)) {
      j.set(g);
      break;
    }
  }
  return j;
}

Shape ShapeOf(const ConflictGraph& cg, const DynamicBitset& j,
              const CheckResult& r) {
  if (!IsConsistent(cg, j)) {
    return Shape::kInconsistent;
  }
  if (FindExtension(cg, j).has_value()) {
    return Shape::kNotMaximal;
  }
  return r.optimal ? Shape::kOptimal : Shape::kImprovable;
}

// Empty when `a` and `b` agree byte for byte.
std::string Diff(const Instance& instance, const CheckResult& a,
                 const CheckResult& b) {
  if (a.verdict != b.verdict || a.optimal != b.optimal) {
    return "verdicts differ";
  }
  if (a.witness.has_value() != b.witness.has_value()) {
    return "only one result carries a witness";
  }
  if (!a.witness.has_value()) {
    return "";
  }
  if (a.witness->improvement != b.witness->improvement) {
    return "witnesses differ: " +
           instance.SubinstanceToString(a.witness->improvement) + " vs " +
           instance.SubinstanceToString(b.witness->improvement);
  }
  if (a.witness->explanation != b.witness->explanation) {
    return "explanations differ: \"" + a.witness->explanation + "\" vs \"" +
           b.witness->explanation + "\"";
  }
  return "";
}

struct OneFdShape {
  int arity;
  FD fd;
};

RandomProblemOptions Options(uint64_t seed, JPolicy policy) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 40;
  opts.domain_size = 4;
  opts.priority_density = 0.6;
  opts.j_policy = policy;
  opts.seed = seed * 104729 + 7;
  return opts;
}

const JPolicy kPolicies[] = {JPolicy::kRandomRepair,
                             JPolicy::kLowPriorityRepair,
                             JPolicy::kHighPriorityRepair,
                             JPolicy::kRandomConsistentSubset};

TEST(ScopedOneFdTest, MatchesFigure2ReferenceOnRelationAndBlocks) {
  const OneFdShape shapes[] = {
      {3, FD(AttrSet{1}, AttrSet{2})},
      {3, FD(AttrSet{1}, AttrSet{2, 3})},
      {2, FD(AttrSet(), AttrSet{1})},
      {4, FD(AttrSet{1, 3}, AttrSet{2})},
  };
  int seen[4] = {0, 0, 0, 0};
  for (const OneFdShape& shape : shapes) {
    Schema schema = Schema::SingleRelation("R", shape.arity, {shape.fd});
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      for (JPolicy policy : kPolicies) {
        for (bool inconsistent : {false, true}) {
          PreferredRepairProblem problem =
              GenerateRandomProblem(schema, Options(seed, policy));
          const Instance& inst = *problem.instance;
          ConflictGraph cg(inst);
          const PriorityRelation& pr = *problem.priority;
          const DynamicBitset j = MakeJ(cg, problem.j, inconsistent);
          SCOPED_TRACE("fd " + shape.fd.ToString() + ", seed " +
                       std::to_string(seed) + ", J = " +
                       inst.SubinstanceToString(j));

          const CheckResult fast = CheckGlobalOptimalOneFd(
              cg, pr, 0, shape.fd, j, inst.facts_of(0));
          const CheckResult ref =
              testing_util::ReferenceCheckGlobalOptimalOneFd(
                  cg, pr, 0, shape.fd, j, inst.facts_of(0));
          EXPECT_EQ(Diff(inst, fast, ref), "");
          ++seen[static_cast<int>(ShapeOf(cg, j, fast))];

          // Per block.  The reference tests swaps for consistency over
          // all of J, so with J inconsistent elsewhere it would accept
          // every block; compare where J's inconsistency is visible.
          const bool consistent = IsConsistent(cg, j);
          const BlockDecomposition blocks(cg);
          for (const Block& b : blocks.blocks()) {
            if (!consistent && IsConsistent(cg, j, b.fact_list)) {
              continue;
            }
            EXPECT_EQ(
                Diff(inst,
                     CheckGlobalOptimalOneFd(cg, pr, 0, shape.fd, j,
                                             b.fact_list),
                     testing_util::ReferenceCheckGlobalOptimalOneFd(
                         cg, pr, 0, shape.fd, j, b.fact_list)),
                "")
                << "block " << b.id;
          }
        }
      }
    }
  }
  EXPECT_GT(seen[static_cast<int>(Shape::kOptimal)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kImprovable)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kInconsistent)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kNotMaximal)], 0);
}

// True iff J holds every conflict-free fact.
bool HoldsFreeFacts(const BlockDecomposition& blocks, const DynamicBitset& j) {
  return (blocks.free_facts() - j).none();
}

TEST(ScopedTwoKeysTest, BlocksConjoinToTheRelationVerdict) {
  Schema schema = Schema::SingleRelation(
      "R", 3,
      {FD(AttrSet{1}, AttrSet{1, 2, 3}), FD(AttrSet{2}, AttrSet{1, 2, 3})});
  int seen[4] = {0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (JPolicy policy : kPolicies) {
      for (bool inconsistent : {false, true}) {
        PreferredRepairProblem problem =
            GenerateRandomProblem(schema, Options(seed, policy));
        const Instance& inst = *problem.instance;
        ConflictGraph cg(inst);
        BlockDecomposition blocks(cg);
        const PriorityRelation& pr = *problem.priority;
        const DynamicBitset j = MakeJ(cg, problem.j, inconsistent);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", J = " +
                     inst.SubinstanceToString(j));

        const CheckResult whole = CheckGlobalOptimalTwoKeys(
            cg, pr, 0, AttrSet{1}, AttrSet{2}, j, inst.facts_of(0));
        EXPECT_EQ(testing_util::VerifyWitness(cg, pr, j, whole), "");
        ++seen[static_cast<int>(ShapeOf(cg, j, whole))];
        bool all_blocks = true;
        for (const Block& b : blocks.blocks()) {
          const CheckResult part = CheckGlobalOptimalTwoKeys(
              cg, pr, 0, AttrSet{1}, AttrSet{2}, j, b.fact_list);
          if (IsConsistent(cg, j)) {
            EXPECT_EQ(testing_util::VerifyWitness(cg, pr, j, part), "")
                << "block " << b.id;
          } else if (!IsConsistent(cg, j, b.fact_list)) {
            EXPECT_FALSE(part.optimal);
            EXPECT_FALSE(part.witness.has_value());
          }
          all_blocks = all_blocks && part.optimal;
        }
        EXPECT_EQ(whole.optimal, all_blocks && HoldsFreeFacts(blocks, j));
      }
    }
  }
  EXPECT_GT(seen[static_cast<int>(Shape::kOptimal)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kImprovable)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kInconsistent)], 0);
  EXPECT_GT(seen[static_cast<int>(Shape::kNotMaximal)], 0);
}

TEST(ScopedParetoTest, WholeInstanceWitnessIsItsBlocksWitness) {
  // A hard schema: the Pareto search is polynomial for every schema.
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (JPolicy policy : kPolicies) {
      PreferredRepairProblem problem =
          GenerateRandomProblem(schema, Options(seed, policy));
      const Instance& inst = *problem.instance;
      ConflictGraph cg(inst);
      BlockDecomposition blocks(cg);
      const PriorityRelation& pr = *problem.priority;
      const DynamicBitset& j = problem.j;
      ASSERT_TRUE(IsConsistent(cg, j));
      SCOPED_TRACE("seed " + std::to_string(seed) + ", J = " +
                   inst.SubinstanceToString(j));

      const CheckResult whole = CheckParetoOptimal(cg, pr, j);
      bool all_blocks = true;
      for (const Block& b : blocks.blocks()) {
        const CheckResult part = FindParetoImprovement(cg, pr, j, b.fact_list);
        all_blocks = all_blocks && part.optimal;
      }
      EXPECT_EQ(whole.optimal, all_blocks && HoldsFreeFacts(blocks, j));
      if (whole.optimal) {
        continue;
      }
      // The whole-instance search reports the first improving fact g;
      // g's block, searched alone, reports the same g and witness.
      ASSERT_TRUE(whole.witness.has_value());
      const FactId g = static_cast<FactId>(
          (whole.witness->improvement - j).FindFirst());
      if (blocks.block_of(g) == BlockDecomposition::kNoBlock) {
        continue;  // a missing conflict-free fact
      }
      const Block& b = blocks.block(blocks.block_of(g));
      EXPECT_EQ(
          Diff(inst, whole, FindParetoImprovement(cg, pr, j, b.fact_list)),
          "");
    }
  }
}

}  // namespace
}  // namespace prefrep
