// Tests for the Graphviz export: well-formedness and the presence of
// exactly the expected nodes/edges for known instances (Figure 3 and
// Figure 6 shapes).

#include <gtest/gtest.h>

#include "gen/running_example.h"
#include "io/dot_export.h"
#include "test_util.h"

namespace prefrep {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(DotExportTest, ConflictGraphShape) {
  PreferredRepairProblem p = RunningExampleProblem();
  ConflictGraph cg(*p.instance);
  DynamicBitset j = RunningExampleJ(*p.instance, 2);
  std::string dot = ConflictGraphToDot(cg, *p.priority, j);
  EXPECT_NE(dot.find("digraph conflicts {"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  // 15 conflict edges (undirected) + 6 priority edges (dashed).
  EXPECT_EQ(CountOccurrences(dot, "[dir=none]"), cg.num_edges());
  EXPECT_EQ(CountOccurrences(dot, "style=dashed"), p.priority->num_edges());
  // J facts are filled; J2 has 7 facts.
  EXPECT_EQ(CountOccurrences(dot, "fillcolor=lightblue"), j.count());
  // Labels appear.
  EXPECT_NE(dot.find("g1f1"), std::string::npos);
  EXPECT_NE(dot.find("LibLoc(lib2, almaden)"), std::string::npos);
}

TEST(DotExportTest, ImprovementGraphFigure3) {
  PreferredRepairProblem p = RunningExampleProblem();
  RelId lib_loc = p.instance->schema().FindRelation("LibLoc");
  DynamicBitset j = testing_util::Sub(*p.instance, {"d1a", "f2b", "f3c"});
  KeyedImprovementGraph g21 = BuildImprovementGraph(
      *p.instance, *p.priority, lib_loc, AttrSet{2}, AttrSet{1}, j,
      p.instance->facts_of(lib_loc));
  std::string dot = ImprovementGraphToDot(g21, "G21");
  EXPECT_NE(dot.find("digraph G21 {"), std::string::npos);
  // 3 forward (solid) + 2 backward (dashed) edges as in Figure 3.
  EXPECT_EQ(CountOccurrences(dot, "style=dashed"), 2u);
  EXPECT_NE(dot.find("\"L:almaden\""), std::string::npos);
  EXPECT_NE(dot.find("\"R:lib1\""), std::string::npos);
}

TEST(DotExportTest, CcpGraphFigure6) {
  testing_util::ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"f01: 0, 1", "f02: 0, 2", "f1b: 1, b", "f13: 1, 3"};
  spec.priorities = {"f13 > f02"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  DynamicBitset j = testing_util::Sub(*p.instance, {"f02", "f1b"});
  std::string dot = CcpGraphToDot(cg, *p.priority, j);
  EXPECT_NE(dot.find("digraph ccp {"), std::string::npos);
  // Conflict edges J → I\J: f02→f01, f1b→f13; priority edge f13→f02.
  EXPECT_NE(dot.find("\"f02\" -> \"f01\""), std::string::npos);
  EXPECT_NE(dot.find("\"f1b\" -> \"f13\""), std::string::npos);
  EXPECT_NE(dot.find("\"f13\" -> \"f02\" [style=dashed"),
            std::string::npos);
}

TEST(DotExportTest, QuotesSpecialCharacters) {
  Schema schema = Schema::SingleRelation("R", 1, {});
  PreferredRepairProblem p(std::move(schema));
  p.instance->MustAddFact("R", {"va\"lue"});
  p.InitPriority();
  ConflictGraph cg(*p.instance);
  std::string dot =
      ConflictGraphToDot(cg, *p.priority, p.instance->EmptySubinstance());
  EXPECT_NE(dot.find("va\\\"lue"), std::string::npos);
}

}  // namespace
}  // namespace prefrep
