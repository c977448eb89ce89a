// B2 — polynomial scaling of GRepCheck2Keys (Theorem 3.1, condition 2;
// §4.2): the full check, the G12/G21 graph construction alone, and the
// composite-key variant.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/global_two_keys.h"

namespace prefrep {
namespace {

void BM_TwoKeys_OptimalJ(benchmark::State& state) {
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
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TwoKeys_OptimalJ)->RangeMultiplier(2)->Range(16, 4096)
    ->Complexity();

void BM_TwoKeys_ImprovableJ(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kLowPriorityRepair);
  ConflictGraph cg(*problem.instance);
  const std::vector<FactId>& scope = problem.instance->facts_of(0);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalTwoKeys(cg, *problem.priority, 0, AttrSet{1},
                                  AttrSet{2}, problem.j, scope);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_TwoKeys_ImprovableJ)->RangeMultiplier(2)->Range(16, 4096);

void BM_TwoKeys_GraphConstruction(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::TwoKeysSchema(), state.range(0), JPolicy::kRandomRepair);
  const Instance& inst = *problem.instance;
  for (auto _ : state) {
    KeyedImprovementGraph g = BuildImprovementGraph(
        inst, *problem.priority, 0, AttrSet{1}, AttrSet{2}, problem.j,
        inst.facts_of(0));
    benchmark::DoNotOptimize(g.graph.num_edges());
  }
}
BENCHMARK(BM_TwoKeys_GraphConstruction)->RangeMultiplier(4)->Range(16, 4096);

void BM_TwoKeys_CompositeKeys(benchmark::State& state) {
  Schema schema = Schema::SingleRelation(
      "T", 4, {FD(AttrSet{1, 2}, AttrSet{1, 2, 3, 4}),
               FD(AttrSet{2, 3}, AttrSet{1, 2, 3, 4})});
  PreferredRepairProblem problem = bench::SizedProblem(
      schema, state.range(0), JPolicy::kRandomRepair);
  ConflictGraph cg(*problem.instance);
  const std::vector<FactId>& scope = problem.instance->facts_of(0);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalTwoKeys(cg, *problem.priority, 0, AttrSet{1, 2},
                                  AttrSet{2, 3}, problem.j, scope);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_TwoKeys_CompositeKeys)->RangeMultiplier(2)->Range(16, 2048);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
