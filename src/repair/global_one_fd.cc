// Polynomial g-repair checking for single-FD relations — the first
// tractable case of Theorem 3.1, via the block-swap argument of Lemma 4.2.
#include "repair/global_one_fd.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "conflicts/conflicts.h"
#include "conflicts/projection.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

// Three-way comparison of two rows on the projected columns.
int CompareOn(const ValueId* a, const ValueId* b, const AttrOffsets& t) {
  for (uint8_t i = 0; i < t.count; ++i) {
    const uint8_t o = t.offsets[i];
    if (a[o] != b[o]) {
      return a[o] < b[o] ? -1 : 1;
    }
  }
  return 0;
}

// Per A∪B class of one A-group: how many facts of J's class it covers.
struct ClassCount {
  // Facts of J's class with some fact of this class preferred over them.
  uint32_t covered = 0;
  // 1 + group position of the last J-fact counted into `covered`.
  uint32_t stamp = 0;
};

// Position of `f` in the ascending `ids`, or SIZE_MAX.
size_t PositionOf(std::span<const FactId> ids, FactId f) {
  auto it = std::lower_bound(ids.begin(), ids.end(), f);
  return it != ids.end() && *it == f ? static_cast<size_t>(it - ids.begin())
                                     : SIZE_MAX;
}

}  // namespace

DynamicBitset SwapBlocks(const Instance& instance, RelId rel, const FD& fd,
                         const DynamicBitset& j, FactId f, FactId g) {
  PREFREP_CHECK_MSG(j.test(f), "SwapBlocks requires f ∈ J");
  const Fact& ff = instance.fact(f);
  const Fact& gg = instance.fact(g);
  PREFREP_CHECK_MSG(ff.rel == rel && gg.rel == rel,
                    "SwapBlocks requires f, g to lie in the swapped relation");
  PREFREP_CHECK_MSG(IsDeltaConflict(ff, gg, fd),
                    "SwapBlocks requires f, g to form a δ-conflict");
  AttrSet ab = fd.lhs | fd.rhs;
  DynamicBitset out = j;
  for (FactId h : instance.facts_of(rel)) {
    const Fact& hh = instance.fact(h);
    if (FactsAgreeOn(hh, ff, ab)) {
      out.reset(h);  // remove the A∪B-block of f
    } else if (FactsAgreeOn(hh, gg, ab)) {
      out.set(h);  // add the A∪B-block of g
    }
  }
  return out;
}

CheckResult CheckGlobalOptimalOneFd(const ConflictGraph& cg,
                                    const PriorityRelation& pr, RelId rel,
                                    const FD& fd, const DynamicBitset& j,
                                    std::span<const FactId> scope) {
  const Instance& instance = cg.instance();
  for (size_t p = 0; p < scope.size(); ++p) {
    PREFREP_CHECK_MSG(
        instance.rel_of(scope[p]) == rel && (p == 0 || scope[p - 1] < scope[p]),
        "GRepCheck1FD requires an ascending scope of the relation's facts");
  }

  // Reject a J that is not even a repair of the scope.  Consistency: no
  // two J-facts may form a δ-conflict for `fd` (∆|rel ≡ {fd}, so this
  // equals consistency w.r.t. ∆|rel).
  if (!IsConsistent(cg, j, scope)) {
    return CheckResult::NotOptimalNoWitness();  // J inconsistent: no repair
  }
  // Maximality: any addable fact yields a (superset) global improvement.
  for (FactId g : scope) {
    if (j.test(g)) {
      continue;
    }
    if (!cg.ConflictsWithSet(g, j)) {
      DynamicBitset improvement = j;
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "J is not maximal: " + instance.FactToString(g) +
              " can be added without conflict");
    }
  }

  // GRepCheck1FD (Figure 2) one A-group at a time.  With J consistent
  // and maximal, J meets each A-group of the scope in exactly one A∪B
  // class C, and J[f↔g] for f in that group is (J \ C) ∪ class(g):
  // consistent by construction, and a global improvement iff every fact
  // of C has a fact of class(g) preferred over it.  So each group is
  // decided once, at its first J-fact f in scope order, by counting per
  // class how many facts of C it covers; the first improving group and,
  // within it, f's first conflict g of an improving class are the pair
  // Figure 2's loop reports.
  const AttrOffsets rhs = AttrOffsets::Build(fd.rhs);
  std::vector<char> decided(scope.size(), 0);  // by scope position
  std::vector<FactId> group;                   // ascending
  std::vector<uint32_t> order;                 // group positions by B
  std::vector<uint32_t> class_of;              // by group position
  std::vector<ClassCount> classes;
  for (size_t p = 0; p < scope.size(); ++p) {
    const FactId f = scope[p];
    const std::vector<FactId>& rivals = cg.neighbors(f);
    if (!j.test(f) || decided[p] || rivals.empty()) {
      continue;
    }
    // f's A-group: f's conflicts (the other classes) and those of one
    // of them (they include f's class).  J is consistent, so none of
    // f's conflicts is in J.
    const std::vector<FactId>& own = cg.neighbors(rivals.front());
    group.clear();
    std::set_union(rivals.begin(), rivals.end(), own.begin(), own.end(),
                   std::back_inserter(group));
    order.resize(group.size());
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return CompareOn(instance.row(group[a]), instance.row(group[b]), rhs) <
             0;
    });
    class_of.resize(group.size());
    classes.clear();
    for (size_t i = 0; i < order.size();) {
      const ValueId* class_row = instance.row(group[order[i]]);
      const uint32_t c = static_cast<uint32_t>(classes.size());
      classes.emplace_back();
      for (; i < order.size() &&
             RowsEqualOn(instance.row(group[order[i]]), class_row, rhs);
           ++i) {
        class_of[order[i]] = c;
      }
    }
    const uint32_t mine = class_of[PositionOf(group, f)];
    uint32_t removed = 0;  // |J ∩ C|
    for (size_t x = 0; x < group.size(); ++x) {
      if (class_of[x] != mine || !j.test(group[x])) {
        continue;
      }
      ++removed;
      const size_t at = PositionOf(scope, group[x]);
      PREFREP_CHECK_MSG(at != SIZE_MAX,
                        "GRepCheck1FD requires a scope closed under "
                        "conflicts");
      decided[at] = 1;
      const uint32_t stamp = static_cast<uint32_t>(x + 1);
      for (FactId h : pr.DominatedBy(group[x])) {
        const size_t q = PositionOf(group, h);
        if (q == SIZE_MAX || class_of[q] == mine ||
            classes[class_of[q]].stamp == stamp) {
          continue;
        }
        classes[class_of[q]].stamp = stamp;
        ++classes[class_of[q]].covered;
      }
    }
    for (FactId g : rivals) {
      const uint32_t theirs = class_of[PositionOf(group, g)];
      if (classes[theirs].covered != removed) {
        continue;
      }
      DynamicBitset swapped = j;
      for (size_t x = 0; x < group.size(); ++x) {
        if (class_of[x] == mine) {
          swapped.reset(group[x]);
        } else if (class_of[x] == theirs) {
          swapped.set(group[x]);
        }
      }
      return CheckResult::NotOptimal(
          std::move(swapped),
          "J[" + instance.FactToString(f) + " ↔ " +
              instance.FactToString(g) + "] is a global improvement");
    }
  }
  return CheckResult::Optimal();
}

}  // namespace prefrep
