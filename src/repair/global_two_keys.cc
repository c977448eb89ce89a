#include "repair/global_two_keys.h"

#include "conflicts/conflicts.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

std::vector<ValueId> Project(const Fact& f, AttrSet attrs) {
  std::vector<ValueId> key;
  key.reserve(static_cast<size_t>(attrs.size()));
  attrs.ForEach([&](int a) { key.push_back(f.values[a - 1]); });
  return key;
}

std::string RenderProjection(const Instance& instance,
                             const std::vector<ValueId>& proj) {
  if (proj.size() == 1) {
    return instance.dict().Text(proj[0]);
  }
  std::string out = "(";
  for (size_t i = 0; i < proj.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += instance.dict().Text(proj[i]);
  }
  out += ")";
  return out;
}

// Node interner shared by the two sides of the bipartite graph.
class NodeTable {
 public:
  NodeTable(KeyedImprovementGraph* g, const Instance* instance)
      : g_(g), instance_(instance) {}

  size_t Get(const std::vector<ValueId>& proj, bool left) {
    auto& index = left ? left_index_ : right_index_;
    auto it = index.find(proj);
    if (it != index.end()) {
      return it->second;
    }
    size_t node = g_->graph.AddNode();
    g_->labels.push_back(RenderProjection(*instance_, proj));
    g_->is_left.push_back(left);
    g_->left_fact.push_back(kInvalidFactId);
    g_->right_fact.push_back(kInvalidFactId);
    index.emplace(proj, node);
    return node;
  }

 private:
  KeyedImprovementGraph* g_;
  const Instance* instance_;
  std::unordered_map<std::vector<ValueId>, size_t, VectorHash<ValueId>>
      left_index_;
  std::unordered_map<std::vector<ValueId>, size_t, VectorHash<ValueId>>
      right_index_;
};

}  // namespace

size_t KeyedImprovementGraph::FindNode(const std::string& label,
                                       bool left) const {
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label && is_left[i] == left) {
      return i;
    }
  }
  return SIZE_MAX;
}

bool KeyedImprovementGraph::HasEdge(const std::string& from_label,
                                    bool from_left,
                                    const std::string& to_label,
                                    bool to_left) const {
  size_t from = FindNode(from_label, from_left);
  size_t to = FindNode(to_label, to_left);
  if (from == SIZE_MAX || to == SIZE_MAX) {
    return false;
  }
  for (size_t v : graph.successors(from)) {
    if (v == to) {
      return true;
    }
  }
  return false;
}

KeyedImprovementGraph BuildImprovementGraph(
    const Instance& instance, const PriorityRelation& pr, RelId rel,
    AttrSet first_key, AttrSet second_key, const DynamicBitset& j,
    std::span<const FactId> scope) {
  KeyedImprovementGraph g;
  NodeTable nodes(&g, &instance);

  // Forward edges: one per J-fact, f[first] → f[second].
  for (FactId f : scope) {
    if (!j.test(f)) {
      continue;
    }
    const Fact& fact = instance.fact(f);
    size_t left = nodes.Get(Project(fact, first_key), /*left=*/true);
    size_t right = nodes.Get(Project(fact, second_key), /*left=*/false);
    PREFREP_CHECK_MSG(g.left_fact[left] == kInvalidFactId,
                      "two J-facts share a key projection: J violates the "
                      "first key");
    PREFREP_CHECK_MSG(g.right_fact[right] == kInvalidFactId,
                      "two J-facts share a key projection: J violates the "
                      "second key");
    g.left_fact[left] = f;
    g.right_fact[right] = f;
    g.graph.AddEdge(left, right);
  }

  // Backward edges: f′ ∈ I \ J preferred over a J-fact f that shares the
  // second-key projection contributes f′[second] → f′[first].
  for (FactId f_prime : scope) {
    if (j.test(f_prime)) {
      continue;
    }
    const Fact& fp = instance.fact(f_prime);
    for (FactId f : pr.Dominates(f_prime)) {
      if (!j.test(f)) {
        continue;
      }
      const Fact& ff = instance.fact(f);
      if (ff.rel != rel || !FactsAgreeOn(fp, ff, second_key)) {
        continue;
      }
      size_t right = nodes.Get(Project(fp, second_key), /*left=*/false);
      size_t left = nodes.Get(Project(fp, first_key), /*left=*/true);
      auto key = std::make_pair(right, left);
      if (!g.backward_witness.count(key)) {
        g.backward_witness.emplace(key, f_prime);
        g.graph.AddEdge(right, left);
      }
      break;  // one backward edge per f′ suffices (same endpoints anyway)
    }
  }
  return g;
}

namespace {

// Turns a cycle of G^{first,second}_J into the global improvement
// (J \ F) ∪ F′ of Lemma 4.4.
DynamicBitset ImprovementFromCycle(const KeyedImprovementGraph& g,
                                   const std::vector<size_t>& cycle,
                                   const DynamicBitset& j) {
  DynamicBitset out = j;
  size_t k = cycle.size();
  for (size_t i = 0; i < k; ++i) {
    size_t u = cycle[i];
    size_t v = cycle[(i + 1) % k];
    if (g.is_left[u]) {
      // Forward edge u → v: remove the J-fact of this left node.
      PREFREP_CHECK_MSG(g.left_fact[u] != kInvalidFactId,
                        "a left node on a cycle must carry its J-fact");
      out.reset(g.left_fact[u]);
    } else {
      // Backward edge u → v: add its witness fact.
      auto it = g.backward_witness.find({u, v});
      PREFREP_CHECK_MSG(it != g.backward_witness.end(),
                        "cycle uses an unknown backward edge");
      out.set(it->second);
    }
  }
  return out;
}

}  // namespace

CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr, RelId rel,
                                      AttrSet key1, AttrSet key2,
                                      const DynamicBitset& j,
                                      std::span<const FactId> scope) {
  const Instance& instance = cg.instance();

  // Reject inconsistent J (not a repair, hence not globally-optimal).
  if (!IsConsistent(cg, j, scope)) {
    return CheckResult::NotOptimalNoWitness();
  }

  // Step 1 of GRepCheck2Keys: a Pareto improvement (this also catches a
  // non-maximal J).  Restrict attention to this relation: a Pareto
  // improvement through a fact of another relation is invisible to this
  // sub-problem and is handled by its own relation's check.
  for (FactId g : scope) {
    if (j.test(g)) {
      continue;
    }
    bool improves = true;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f) && !pr.Prefers(g, f)) {
        improves = false;
        break;
      }
    }
    if (improves) {
      DynamicBitset improvement = j;
      for (FactId f : cg.neighbors(g)) {
        if (j.test(f)) {
          improvement.reset(f);
        }
      }
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "Pareto improvement through " + instance.FactToString(g));
    }
  }

  // Step 2: cycles in G12_J and G21_J.
  KeyedImprovementGraph g12 =
      BuildImprovementGraph(instance, pr, rel, key1, key2, j, scope);
  if (auto cycle = g12.graph.FindCycle()) {
    return CheckResult::NotOptimal(ImprovementFromCycle(g12, *cycle, j),
                                   "cycle in G12_J");
  }
  KeyedImprovementGraph g21 =
      BuildImprovementGraph(instance, pr, rel, key2, key1, j, scope);
  if (auto cycle = g21.graph.FindCycle()) {
    return CheckResult::NotOptimal(ImprovementFromCycle(g21, *cycle, j),
                                   "cycle in G21_J");
  }
  return CheckResult::Optimal();
}

}  // namespace prefrep
