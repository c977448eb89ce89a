// Scale guard for the polynomial side of Theorem 3.1: one-shot `check
// global` through ProblemContext on 5·10^4 facts, a two-keys relation
// T(a, b) (keys {1}, {2}) beside a one-FD relation O(k, v, i) (FD 1 → 2).
// Block-scoped GRepCheck1FD/GRepCheck2Keys answer it in about 0.3 s on
// a 4-vCPU x86-64 VM; the solvers that rescanned the whole relation per
// block and per conflicting pair took 38 s on the same host.  The CTest
// TIMEOUT (see tests/CMakeLists.txt) therefore fails a quadratic
// regression without comparing wall-clock ratios.
//
// Priorities orient every conflicting pair by a hidden random rank, so
// greedy completion by descending rank is completion-, hence globally,
// optimal (J_opt must be accepted).  J_bad replaces J_opt's class in the
// last O group by another class, every fact of which the group's
// top-ranked fact beats: it must be refuted by a global improvement.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "model/context.h"
#include "model/problem.h"
#include "repair/block_solver.h"
#include "repair/subinstance_ops.h"

namespace prefrep {
namespace {

constexpr size_t kTwoKeysFacts = 20000;
constexpr size_t kOneFdFacts = 30000;

struct ScaleProblem {
  PreferredRepairProblem problem;
  DynamicBitset j_opt;
  DynamicBitset j_bad;
};

ScaleProblem MakeScaleProblem() {
  Schema schema;
  const RelId t = schema.MustAddRelation("T", 2);
  const RelId o = schema.MustAddRelation("O", 3);
  schema.MustAddFd(t, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(t, FD(AttrSet{2}, AttrSet{1}));
  schema.MustAddFd(o, FD(AttrSet{1}, AttrSet{2}));
  ScaleProblem out{PreferredRepairProblem(std::move(schema)), {}, {}};
  Instance& inst = *out.problem.instance;
  std::mt19937_64 rng(20150601);
  // Distinct (a, b) pairs; a repeated pair collapses into its fact.
  while (inst.num_facts() < kTwoKeysFacts) {
    (void)inst.AddFact(t, {"a" + std::to_string(rng() % (kTwoKeysFacts / 2)),
                           "b" + std::to_string(rng() % (kTwoKeysFacts / 2))});
  }
  for (size_t i = 0; i < kOneFdFacts; ++i) {
    (void)inst.AddFact(o, {"k" + std::to_string(rng() % (kOneFdFacts / 8)),
                           "v" + std::to_string(rng() % 4),
                           "i" + std::to_string(i)});
  }
  const size_t n = inst.num_facts();
  std::vector<uint64_t> rank(n);
  for (uint64_t& r : rank) {
    r = rng();
  }
  out.problem.InitPriority();
  PriorityRelation& pr = *out.problem.priority;
  ConflictGraph cg(inst);
  for (const auto& [f, g] : cg.edges()) {
    if (rank[f] > rank[g]) {
      pr.MustAdd(f, g);
    } else {
      pr.MustAdd(g, f);
    }
  }

  // J_opt: greedy completion in descending rank.
  std::vector<FactId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), FactId{0});
  std::sort(by_rank.begin(), by_rank.end(),
            [&](FactId x, FactId y) { return rank[x] > rank[y]; });
  out.j_opt = inst.EmptySubinstance();
  for (FactId f : by_rank) {
    if (!cg.ConflictsWithSet(f, out.j_opt)) {
      out.j_opt.set(f);
    }
  }
  // J_bad: in the O group of the highest-numbered fact with a conflict,
  // trade J_opt's class for the v-class of a conflicting fact.
  out.j_bad = out.j_opt;
  for (FactId g = static_cast<FactId>(n); g-- > 0;) {
    if (inst.rel_of(g) != o || out.j_opt.test(g) || cg.neighbors(g).empty()) {
      continue;
    }
    for (FactId h : inst.facts_of(o)) {
      const Fact hh = inst.fact(h);
      const Fact gg = inst.fact(g);
      if (hh.values[0] != gg.values[0]) {
        continue;
      }
      if (hh.values[1] == gg.values[1]) {
        out.j_bad.set(h);
      } else {
        out.j_bad.reset(h);
      }
    }
    break;
  }
  return out;
}

TEST(ScaleGuardTest, TractableCheckAtFiftyThousandFacts) {
  ScaleProblem s = MakeScaleProblem();
  const Instance& inst = *s.problem.instance;
  const PriorityRelation& pr = *s.problem.priority;
  ASSERT_EQ(inst.num_facts(), kTwoKeysFacts + kOneFdFacts);
  ProblemContext ctx(inst, pr);
  ctx.set_parallelism(1);
  ASSERT_EQ(ctx.classification().relations[0].kind, TractableKind::kTwoKeys);
  ASSERT_EQ(ctx.classification().relations[1].kind, TractableKind::kSingleFd);
  ASSERT_TRUE(ctx.priority_block_local());
  const ConflictGraph& cg = ctx.conflict_graph();
  ASSERT_TRUE(IsRepair(cg, s.j_opt));
  ASSERT_TRUE(IsRepair(cg, s.j_bad));
  ASSERT_NE(s.j_opt, s.j_bad);

  const CheckResult opt =
      CheckGlobalOptimalByBlocks(ctx, s.j_opt, PriorityMode::kConflictOnly);
  EXPECT_EQ(opt.verdict, CheckResult::Verdict::kYes);

  size_t failed_block = BlockDecomposition::kNoBlock;
  const CheckResult bad = CheckGlobalOptimalByBlocks(
      ctx, s.j_bad, PriorityMode::kConflictOnly, &failed_block);
  ASSERT_EQ(bad.verdict, CheckResult::Verdict::kNo);
  ASSERT_TRUE(bad.witness.has_value());
  EXPECT_TRUE(IsGlobalImprovement(cg, pr, s.j_bad, bad.witness->improvement))
      << bad.witness->explanation;
  EXPECT_EQ(ctx.blocks().block(failed_block).rel, 1U);
}

}  // namespace
}  // namespace prefrep
