#include "repair/construct.h"

#include <optional>
#include <unordered_set>

#include "base/random.h"
#include "cache/block_cache.h"
#include "repair/audit.h"
#include "repair/parallel_solver.h"

namespace prefrep {

namespace {

// Per-block tie-break stream: kRandom draws must not depend on how
// many blocks ran before this one (or on which thread ran it), so each
// block derives its own deterministic stream from (seed, block id).
// Rng expands seeds through splitmix64, so the xor-mix is enough.
Rng BlockRng(const ConstructOptions& options, size_t block_id) {
  return Rng(options.seed ^ ((block_id + 1) * 0x9e3779b97f4a7c15ULL));
}

// One greedy pass over `universe` (the whole instance, or one block):
// repeatedly keep a ≻-maximal remaining fact and drop its conflicts.
// Conflict-bounded priorities keep both dominators and conflicts inside
// the universe, so the pass never reads outside it.  Checkpoints on
// `governor` once per pick; nullopt when the budget fires (the partial
// bitset is discarded — it would not be a maximal repair).
std::optional<DynamicBitset> GreedyWithin(const ConflictGraph& cg,
                                          const PriorityRelation& pr,
                                          const DynamicBitset& universe,
                                          const ConstructOptions& options,
                                          Rng& rng,
                                          ResourceGovernor& governor) {
  size_t n = cg.num_facts();
  DynamicBitset remaining = universe;
  DynamicBitset out(n);
  size_t left = remaining.count();
  while (left > 0) {
    if (!governor.Checkpoint()) {
      return std::nullopt;
    }
    // The ≻-maximal remaining facts (acyclicity guarantees one exists).
    std::vector<FactId> candidates;
    remaining.ForEach([&](size_t f) {
      for (FactId g : pr.DominatedBy(static_cast<FactId>(f))) {
        if (remaining.test(g)) {
          return;
        }
      }
      candidates.push_back(static_cast<FactId>(f));
    });
    PREFREP_CHECK_MSG(!candidates.empty(),
                      "acyclic priority must leave a maximal fact");
    FactId pick = candidates.front();
    switch (options.tie_break) {
      case TieBreak::kFirstFact:
        break;  // candidates are in ascending id order already
      case TieBreak::kRandom:
        pick = candidates[rng.NextBounded(candidates.size())];
        break;
      case TieBreak::kMostDominating: {
        size_t best = 0;
        for (FactId c : candidates) {
          size_t score = pr.Dominates(c).size();
          if (score > best) {
            best = score;
            pick = c;
          }
        }
        break;
      }
    }
    out.set(pick);
    remaining.reset(pick);
    --left;
    for (FactId u : cg.neighbors(pick)) {
      if (remaining.test(u)) {
        remaining.reset(u);
        --left;
      }
    }
  }
  return out;
}

// GreedyWithin on one block through the block-solve cache.  The greedy
// output is a function of the block's canonical structure, the
// tie-break rule, and — for kRandom — the block's derived tie-break
// stream seed (BlockRng), so exactly those salt the key: two identical
// blocks share a kFirstFact/kMostDominating entry but keep separate
// kRandom entries, because their streams genuinely differ.  Partial
// (budget-aborted) passes are never cached; the serve rule is the
// shared MayServeCachedEntry (no admission step to mirror — the greedy
// pass has no AdmitBlock).
std::optional<DynamicBitset> CachedGreedyBlock(const ProblemContext& cx,
                                               const Block& bb,
                                               const ConstructOptions& options,
                                               ResourceGovernor& governor) {
  const ConflictGraph& cg = cx.conflict_graph();
  const PriorityRelation& pr = cx.priority();
  const auto fresh_greedy = [&](ResourceGovernor& gov) {
    Rng rng = BlockRng(options, bb.id);
    return GreedyWithin(cg, pr, bb.facts, options, rng, gov);
  };
  BlockSolveCache* cache = cx.block_cache();
  if (cache == nullptr || !cx.priority_block_local()) {
    return fresh_greedy(governor);
  }
  const uint64_t stream_salt =
      options.tie_break == TieBreak::kRandom
          ? options.seed ^ ((bb.id + 1) * 0x9e3779b97f4a7c15ULL)
          : 0;
  const BlockFingerprint base = ComputeBlockFingerprint(cx, bb);
  const BlockFingerprint key =
      DeriveOpKey(base, BlockCacheOp::kConstruct,
                  static_cast<uint64_t>(options.tie_break), stream_salt);
  BlockSolveCache::Claim claim;  // released after the Store below
  if (std::optional<BlockSolveCache::Entry> entry =
          cache->LookupOrClaim(key, governor, &claim);
      entry.has_value() && MayServeCachedEntry(governor, *entry)) {
    cache->NoteHit();
    ReplayServedNodes(governor, *entry);
    DynamicBitset out =
        UncanonicalizeSubset(bb, entry->repair_local, cg.num_facts());
    if (audit::Enabled()) {
      std::optional<DynamicBitset> expect =
          fresh_greedy(ResourceGovernor::Unlimited());
      PREFREP_CHECK_MSG(expect.has_value() && *expect == out,
                        "block-solve cache hit diverges from a fresh greedy "
                        "pass (fingerprint collision or canonicalization "
                        "bug)");
    }
    return out;
  }
  cache->NoteMiss();
  const uint64_t nodes_before = governor.nodes_spent();
  std::optional<DynamicBitset> out = fresh_greedy(governor);
  if (!out.has_value() || governor.exhausted()) {
    return out;  // aborted pass: never cached
  }
  BlockSolveCache::Entry entry;
  entry.repair_local = CanonicalizeSubset(bb, *out);
  entry.nodes = governor.nodes_spent() - nodes_before;
  entry.nodes_valid = !governor.unlimited();
  cache->Store(base, key, std::move(entry));
  return out;
}

}  // namespace

DynamicBitset ConstructGloballyOptimalRepair(
    const ConflictGraph& cg, const PriorityRelation& pr,
    const ConstructOptions& options) {
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "construction relies on completion semantics, which "
                    "require conflict-bounded priorities (§2.3)");
  Rng rng(options.seed);
  DynamicBitset universe(cg.num_facts());
  universe.set_all();
  DynamicBitset out = *GreedyWithin(cg, pr, universe, options, rng,
                                    ResourceGovernor::Unlimited());
  audit::CheckConstructedRepair(cg, pr, out,
                                "ConstructGloballyOptimalRepair");
  return out;
}

DynamicBitset ConstructGloballyOptimalRepair(const ProblemContext& ctx,
                                             const ConstructOptions& options) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "construction relies on completion semantics, which "
                    "require conflict-bounded priorities (§2.3)");
  DynamicBitset out = ctx.blocks().free_facts();
  std::vector<size_t> order(ctx.blocks().num_blocks());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  // Ungoverned by contract (like the (cg, pr) overload), so the greedy
  // pass runs against the unlimited governor even inside workers; every
  // block's pass is deterministic, so worker payloads are always
  // adopted as-is.
  ParallelBlockSession<DynamicBitset> session(
      ctx, std::move(order),
      [&](const ProblemContext& cx, const Block& bb) {
        return *CachedGreedyBlock(cx, bb, options,
                                  ResourceGovernor::Unlimited());
      },
      [](const DynamicBitset&) { return true; });
  for (const Block& b : ctx.blocks().blocks()) {
    out |= session.Next(b);
  }
  if (audit::Enabled()) {
    // A resident context's instance may carry tombstoned facts outside
    // the solving universe (free facts ∪ blocks); audit within it.
    DynamicBitset universe = ctx.blocks().free_facts();
    for (const Block& b : ctx.blocks().blocks()) {
      universe |= b.facts;
    }
    audit::CheckConstructedRepair(
        cg, pr, out, "ConstructGloballyOptimalRepair (per-block)",
        &universe);
  }
  return out;
}

Result<DynamicBitset> TryConstructGloballyOptimalRepair(
    const ProblemContext& ctx, const ConstructOptions& options) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "construction relies on completion semantics, which "
                    "require conflict-bounded priorities (§2.3)");
  ResourceGovernor& governor = ctx.governor();
  DynamicBitset out = ctx.blocks().free_facts();
  std::vector<size_t> order(ctx.blocks().num_blocks());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  ParallelBlockSession<std::optional<DynamicBitset>> session(
      ctx, std::move(order),
      [&](const ProblemContext& cx, const Block& bb) {
        return CachedGreedyBlock(cx, bb, options, cx.governor());
      },
      [](const std::optional<DynamicBitset>& r) { return r.has_value(); });
  for (const Block& b : ctx.blocks().blocks()) {
    std::optional<DynamicBitset> block_repair = session.Next(b);
    if (!block_repair.has_value()) {
      Status status = governor.ToStatus();
      PREFREP_CHECK_MSG(!status.ok(),
                        "greedy pass aborted without an exhausted governor");
      return status;
    }
    out |= *block_repair;
  }
  if (audit::Enabled()) {
    DynamicBitset universe = ctx.blocks().free_facts();
    for (const Block& b : ctx.blocks().blocks()) {
      universe |= b.facts;
    }
    audit::CheckConstructedRepair(
        cg, pr, out, "TryConstructGloballyOptimalRepair (per-block)",
        &universe);
  }
  return out;
}

void SampleOptimalRepairs(
    const ConflictGraph& cg, const PriorityRelation& pr, size_t attempts,
    const std::function<bool(const DynamicBitset&)>& fn) {
  std::unordered_set<DynamicBitset, DynamicBitsetHash> seen;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    ConstructOptions options;
    options.tie_break = TieBreak::kRandom;
    options.seed = attempt * 0x9e3779b97f4a7c15ULL + 1;
    DynamicBitset repair = ConstructGloballyOptimalRepair(cg, pr, options);
    if (seen.insert(repair).second && !fn(repair)) {
      return;
    }
  }
}

}  // namespace prefrep
