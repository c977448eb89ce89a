// Copyright (c) prefrep contributors.
// Globally-optimal repair checking for a single-relation schema whose FD
// set is equivalent to two key constraints A1 → ⟦R⟧, A2 → ⟦R⟧ with
// A1 ⊄ A2 and A2 ⊄ A1 (§4.2, algorithm GRepCheck2Keys of Figure 4).
//
// By Lemma 4.4, a repair J has a global improvement iff it has a Pareto
// improvement or one of the bipartite graphs G12_J / G21_J has a cycle:
//
//   * left nodes are A1-projections, right nodes A2-projections;
//   * f ∈ J contributes the forward edge f[A1] → f[A2];
//   * f′ ∈ I \ J with f′ ≻ f for some f ∈ J with f[A2] = f′[A2]
//     contributes the backward edge f′[A2] → f′[A1];
//   * G21_J swaps the roles of A1 and A2.
//
// A cycle alternates forward and backward edges and translates directly
// into a global improvement (the returned witness).

#ifndef PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_
#define PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "graph/digraph.h"
#include "repair/improvement.h"

namespace prefrep {

/// The bipartite improvement graph G^{first,second}_J of §4.2.
///
/// Nodes are projections of facts onto `first_key` (left side) and
/// `second_key` (right side); labels render the projected constants.
/// Exposed so tests can reproduce Figure 3 and so witnesses can be
/// reconstructed from cycles.
struct KeyedImprovementGraph {
  Digraph graph;
  /// Render of each node's projection, e.g. "lib1" or "(a, b)".
  std::vector<std::string> labels;
  /// True for left-side nodes (first-key projections).
  std::vector<bool> is_left;
  /// For each left node, the unique J-fact projecting to it
  /// (kInvalidFactId if the node only appears via backward edges).
  std::vector<FactId> left_fact;
  /// For each right node, the unique J-fact projecting to it.
  std::vector<FactId> right_fact;
  /// Witness f′ ∈ I \ J for each backward edge (right node, left node).
  std::unordered_map<std::pair<size_t, size_t>, FactId,
                     PairHash<size_t, size_t>>
      backward_witness;

  /// Looks up a node by its label; SIZE_MAX if absent.  For tests.
  size_t FindNode(const std::string& label, bool left) const;

  /// True iff the graph has an edge between the labelled nodes.
  bool HasEdge(const std::string& from_label, bool from_left,
               const std::string& to_label, bool to_left) const;
};

/// Builds G^{first,second}_J over the facts `scope` of relation `rel`:
/// one conflict block (`Block::fact_list`) or the whole relation
/// (`facts_of(rel)`).  Requires J ∩ scope to be consistent with respect
/// to both keys (so that projections of J-facts onto either key are
/// unique).  Since facts of different blocks never share a key
/// projection, the whole relation's graph is the disjoint union of the
/// per-block graphs.
KeyedImprovementGraph BuildImprovementGraph(
    const Instance& instance, const PriorityRelation& pr, RelId rel,
    AttrSet first_key, AttrSet second_key, const DynamicBitset& j,
    std::span<const FactId> scope);

/// GRepCheck2Keys restricted to the facts `scope` of relation `rel`:
/// decides whether J ∩ scope is a globally-optimal repair of scope where
/// ∆|rel is equivalent to the two key constraints key1 → ⟦R⟧ and
/// key2 → ⟦R⟧ (incomparable).  `scope` is closed under conflicts: one
/// conflict block (`Block::fact_list`) or the whole relation
/// (`facts_of(rel)`); J outside it is not examined.  Arbitrary
/// J ∩ scope is handled (inconsistent or non-maximal is rejected).
/// Runs in time linear in the scope, its conflicts and the priority
/// edges at its facts.
CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr, RelId rel,
                                      AttrSet key1, AttrSet key2,
                                      const DynamicBitset& j,
                                      std::span<const FactId> scope);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_GLOBAL_TWO_KEYS_H_
