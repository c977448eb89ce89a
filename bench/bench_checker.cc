// B9 — the unified dispatching checker: construction cost
// (classification + conflict graph), per-check dispatch overhead versus
// calling the specialized algorithm directly, and the multi-relation
// routing of Proposition 3.5.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/checker.h"
#include "repair/global_two_keys.h"

namespace prefrep {
namespace {

void BM_Checker_Construction(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kRandomRepair);
  for (auto _ : state) {
    RepairChecker checker(*problem.instance, *problem.priority);
    benchmark::DoNotOptimize(checker.SchemaIsTractable());
  }
}
BENCHMARK(BM_Checker_Construction)->RangeMultiplier(4)->Range(16, 4096);

void BM_Checker_DispatchedTwoKeys(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kHighPriorityRepair);
  RepairChecker checker(*problem.instance, *problem.priority);
  for (auto _ : state) {
    auto outcome = checker.CheckGloballyOptimal(problem.j);
    benchmark::DoNotOptimize(outcome.ok() && outcome->result.optimal);
  }
}
BENCHMARK(BM_Checker_DispatchedTwoKeys)->RangeMultiplier(2)->Range(16, 2048);

void BM_Checker_DirectTwoKeys(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kHighPriorityRepair);
  ConflictGraph cg(*problem.instance);
  const std::vector<FactId>& scope = problem.instance->facts_of(0);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalTwoKeys(cg, *problem.priority, 0, AttrSet{1},
                                  AttrSet{2}, problem.j, scope);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_Checker_DirectTwoKeys)->RangeMultiplier(2)->Range(16, 2048);

// Multi-relation routing: k relations, each single-fd; the checker runs
// GRepCheck1FD per relation (Proposition 3.5).
void BM_Checker_MultiRelation(benchmark::State& state) {
  Schema schema;
  for (int64_t r = 0; r < state.range(0); ++r) {
    RelId rel = schema.MustAddRelation("R" + std::to_string(r), 3);
    schema.MustAddFd(rel, FD(AttrSet{1}, AttrSet{2}));
  }
  RandomProblemOptions opts;
  opts.facts_per_relation = 64;
  opts.domain_size = 16;
  opts.j_policy = JPolicy::kHighPriorityRepair;
  opts.seed = 23;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  RepairChecker checker(*problem.instance, *problem.priority);
  for (auto _ : state) {
    auto outcome = checker.CheckGloballyOptimal(problem.j);
    benchmark::DoNotOptimize(outcome.ok());
  }
}
BENCHMARK(BM_Checker_MultiRelation)->RangeMultiplier(2)->Range(1, 32);

// Pareto and completion checks through the facade, same instance.
void BM_Checker_ParetoFacade(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kHighPriorityRepair);
  RepairChecker checker(*problem.instance, *problem.priority);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.CheckParetoOptimal(problem.j).optimal);
  }
}
BENCHMARK(BM_Checker_ParetoFacade)->RangeMultiplier(4)->Range(16, 2048);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
