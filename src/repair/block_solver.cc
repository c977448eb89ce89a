#include "repair/block_solver.h"

#include "cache/block_cache.h"
#include "repair/audit.h"
#include "repair/parallel_solver.h"
#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"
#include "repair/completion.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

namespace {

// A maximality defect of J within the block: a block fact outside J with
// no conflict in J (conflicts never leave a block, so testing against
// the whole J is exact).  nullopt when J ∩ b is maximal.
std::optional<CheckResult> FindBlockExtension(const ProblemContext& ctx,
                                              const Block& b,
                                              const DynamicBitset& j) {
  const ConflictGraph& cg = ctx.conflict_graph();
  for (FactId g : b.fact_list) {
    if (j.test(g)) {
      continue;
    }
    bool blocked = false;
    for (FactId u : cg.neighbors(g)) {
      if (j.test(u)) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      continue;
    }
    DynamicBitset improvement = j;
    improvement.set(g);
    return CheckResult::NotOptimal(
        std::move(improvement),
        "J is not maximal: " + ctx.instance().FactToString(g) +
            " can be added without conflict");
  }
  return std::nullopt;
}

class OneFdSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "GRepCheck1FD"; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    const RelationClassification& rc = ctx.classification().relations[b.rel];
    PREFREP_CHECK_MSG(rc.kind == TractableKind::kSingleFd,
                      "block dispatched to GRepCheck1FD but its relation is "
                      "not single-fd");
    return CheckGlobalOptimalOneFd(ctx.conflict_graph(), ctx.priority(), b.rel,
                                   rc.single_fd, j, b.fact_list);
  }
};

class TwoKeysSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "GRepCheck2Keys"; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    const RelationClassification& rc = ctx.classification().relations[b.rel];
    PREFREP_CHECK_MSG(rc.kind == TractableKind::kTwoKeys,
                      "block dispatched to GRepCheck2Keys but its relation is "
                      "not two-keys");
    return CheckGlobalOptimalTwoKeys(ctx.conflict_graph(), ctx.priority(),
                                     b.rel, rc.key1, rc.key2, j, b.fact_list);
  }
};

class ExhaustiveSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "exhaustive"; }
  bool Polynomial() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // A non-maximal J ∩ b is improved by a superset block-repair, so the
    // enumeration needs no separate maximality check.
    const ConflictGraph& cg = ctx.conflict_graph();
    const PriorityRelation& pr = ctx.priority();
    ResourceGovernor& governor = ctx.governor();
    if (!governor.AdmitBlock(b.size())) {
      return CheckResult::Unknown(
          "block #" + std::to_string(b.id) + " (" + std::to_string(b.size()) +
          " facts) exceeds the admissible size for exhaustive solving");
    }
    CheckResult result = CheckResult::Optimal();
    ForEachRepairWithin(cg, b.facts, governor, [&](const DynamicBitset& r) {
      DynamicBitset candidate = (j - b.facts) | r;
      if (IsGlobalImprovement(cg, pr, j, candidate)) {
        result = CheckResult::NotOptimal(
            std::move(candidate),
            "an enumerated block-repair improves J on block " +
                std::to_string(b.id));
        return false;
      }
      return true;
    });
    // A found improvement is definite even when the budget then fired;
    // an incomplete scan that found nothing proves nothing.
    if (result.optimal && governor.exhausted()) {
      return CheckResult::Unknown(governor.CauseString());
    }
    return result;
  }
};

class CcpPrimaryKeySolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ccp primary-key"; }
  // Conservative: BuildCcpPrimaryKeyGraph consumes the whole priority
  // relation, whose cross-conflict edges the block fingerprint does not
  // canonicalize (it requires block-local priorities).
  bool BlockDetermined() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // The cycle criterion (Lemma 7.3) assumes J is a repair; restricted
    // to a block it assumes J ∩ b is a block-repair.
    if (std::optional<CheckResult> defect = FindBlockExtension(ctx, b, j)) {
      return *std::move(defect);
    }
    Digraph graph = BuildCcpPrimaryKeyGraph(ctx.conflict_graph(),
                                            ctx.priority(), j, &b.facts);
    std::optional<std::vector<size_t>> cycle = graph.FindCycle();
    if (!cycle.has_value()) {
      return CheckResult::Optimal();
    }
    DynamicBitset improvement = j;
    for (size_t node : *cycle) {
      FactId f = static_cast<FactId>(node);
      if (j.test(f)) {
        improvement.reset(f);
      } else {
        improvement.set(f);
      }
    }
    return CheckResult::NotOptimal(
        std::move(improvement),
        "cycle in G_{J, I\\J} within block " + std::to_string(b.id));
  }
};

class CcpConstantAttrSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ccp constant-attribute"; }
  // Reads ConsistentPartitions of the whole relation — state outside
  // the block the fingerprint cannot vouch for.
  bool BlockDetermined() const override { return false; }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    // Under a constant-attribute assignment a relation with ≥ 2
    // consistent partitions is one block whose block-repairs are exactly
    // the partitions, so the scan is linear in their number (the
    // whole-instance algorithm pays the product over relations).
    const ConflictGraph& cg = ctx.conflict_graph();
    const PriorityRelation& pr = ctx.priority();
    if (std::optional<CheckResult> defect = FindBlockExtension(ctx, b, j)) {
      return *std::move(defect);
    }
    const DynamicBitset in_block = j & b.facts;
    for (const std::vector<FactId>& part :
         ConsistentPartitions(ctx.instance(), b.rel)) {
      DynamicBitset partition(cg.num_facts());
      for (FactId f : part) {
        partition.set(f);
      }
      if (partition == in_block) {
        continue;
      }
      DynamicBitset candidate = (j - b.facts) | partition;
      if (IsGlobalImprovement(cg, pr, j, candidate)) {
        return CheckResult::NotOptimal(
            std::move(candidate),
            "a consistent partition improves J on block " +
                std::to_string(b.id));
      }
    }
    return CheckResult::Optimal();
  }
};

class ParetoSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "ParetoCheck"; }
  RepairSemantics Semantics() const override {
    return RepairSemantics::kPareto;
  }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    return FindParetoImprovement(ctx.conflict_graph(), ctx.priority(), j,
                                 b.fact_list);
  }
};

class CompletionSolver final : public BlockSolver {
 public:
  std::string_view Name() const override { return "CompletionCheck"; }
  RepairSemantics Semantics() const override {
    return RepairSemantics::kCompletion;
  }
  CheckResult CheckBlock(const ProblemContext& ctx, const Block& b,
                         const DynamicBitset& j) const override {
    return CheckCompletionOptimal(ctx.conflict_graph(), ctx.priority(), j,
                                  &b.facts);
  }
};

// The identity order: every per-block dispatcher below walks
// BlockDecomposition::blocks() front to back.
std::vector<size_t> AllBlocksInOrder(const BlockDecomposition& blocks) {
  std::vector<size_t> order(blocks.num_blocks());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  return order;
}

}  // namespace

std::vector<DynamicBitset> BlockSolver::OptimalBlockRepairs(
    const ProblemContext& ctx, const Block& b) const {
  ResourceGovernor& governor = ctx.governor();
  if (!governor.AdmitBlock(b.size())) {
    return {};  // refused up front (see header: empty means "abandoned")
  }
  std::vector<DynamicBitset> out;
  ForEachRepairWithin(ctx.conflict_graph(), b.facts, governor,
                      [&](const DynamicBitset& r) {
                        CheckResult result = CheckBlock(ctx, b, r);
                        if (result.known() && result.optimal) {
                          out.push_back(r);
                        }
                        return true;
                      });
  if (governor.exhausted()) {
    return {};  // partial set: unusable for cross-products (see header)
  }
  return out;
}

uint64_t BlockSolver::CountBlock(const ProblemContext& ctx,
                                 const Block& b) const {
  ResourceGovernor& governor = ctx.governor();
  if (!governor.AdmitBlock(b.size())) {
    // 0 is unambiguous "abandoned": a real block always counts ≥ 1.
    return 0;
  }
  uint64_t count = 0;
  ForEachRepairWithin(ctx.conflict_graph(), b.facts, governor,
                      [&](const DynamicBitset& r) {
                        CheckResult result = CheckBlock(ctx, b, r);
                        if (result.known() && result.optimal) {
                          ++count;
                        }
                        return true;
                      });
  return count;  // a lower bound when governor.exhausted()
}

DynamicBitset BlockSolver::ConstructBlock(const ProblemContext& ctx,
                                          const Block& b) const {
  // Block-restricted greedy completion (cf. GreedyCompletionRepair):
  // repeatedly keep the lowest-id ≻-maximal remaining fact and drop its
  // conflicts.  Deterministic; a completion-optimal block-repair is
  // globally- and Pareto-optimal too.
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  PREFREP_CHECK_MSG(pr.IsConflictBounded(),
                    "greedy block construction relies on completion "
                    "semantics, which require conflict-bounded priorities");
  DynamicBitset remaining = b.facts;
  DynamicBitset out(cg.num_facts());
  while (remaining.any()) {
    FactId pick = kInvalidFactId;
    remaining.ForEach([&](size_t f) {
      if (pick != kInvalidFactId) {
        return;
      }
      for (FactId g : pr.DominatedBy(static_cast<FactId>(f))) {
        if (remaining.test(g)) {
          return;
        }
      }
      pick = static_cast<FactId>(f);
    });
    PREFREP_CHECK_MSG(pick != kInvalidFactId,
                      "acyclic priority must leave a maximal fact");
    out.set(pick);
    remaining.reset(pick);
    for (FactId u : cg.neighbors(pick)) {
      remaining.reset(u);
    }
  }
  audit::CheckConstructedBlockRepair(cg, pr, b.facts, out,
                                     "BlockSolver::ConstructBlock");
  return out;
}

const BlockSolver& OneFdBlockSolver() {
  static const OneFdSolver solver;
  return solver;
}

const BlockSolver& TwoKeysBlockSolver() {
  static const TwoKeysSolver solver;
  return solver;
}

const BlockSolver& ExhaustiveBlockSolver() {
  static const ExhaustiveSolver solver;
  return solver;
}

const BlockSolver& CcpPrimaryKeyBlockSolver() {
  static const CcpPrimaryKeySolver solver;
  return solver;
}

const BlockSolver& CcpConstantAttrBlockSolver() {
  static const CcpConstantAttrSolver solver;
  return solver;
}

const BlockSolver& ParetoBlockSolver() {
  static const ParetoSolver solver;
  return solver;
}

const BlockSolver& CompletionBlockSolver() {
  static const CompletionSolver solver;
  return solver;
}

const BlockSolver& DispatchBlockSolver(const ProblemContext& ctx,
                                       const Block& b, PriorityMode mode) {
  if (mode == PriorityMode::kConflictOnly) {
    switch (ctx.classification().relations[b.rel].kind) {
      case TractableKind::kSingleFd:
        return OneFdBlockSolver();
      case TractableKind::kTwoKeys:
        return TwoKeysBlockSolver();
      case TractableKind::kHard:
        return ExhaustiveBlockSolver();
    }
    return ExhaustiveBlockSolver();
  }
  const CcpSchemaClassification& ccp = ctx.ccp_classification();
  if (ccp.primary_key_assignment) {
    return CcpPrimaryKeyBlockSolver();
  }
  if (ccp.constant_attr_assignment) {
    return CcpConstantAttrBlockSolver();
  }
  return ExhaustiveBlockSolver();
}

const BlockSolver& SolverForSemantics(const ProblemContext& ctx,
                                      const Block& b,
                                      RepairSemantics semantics) {
  switch (semantics) {
    case RepairSemantics::kGlobal:
      return DispatchBlockSolver(ctx, b,
                                 ctx.priority().IsConflictBounded()
                                     ? PriorityMode::kConflictOnly
                                     : PriorityMode::kCrossConflict);
    case RepairSemantics::kPareto:
      return ParetoBlockSolver();
    case RepairSemantics::kCompletion:
      return CompletionBlockSolver();
  }
  return ExhaustiveBlockSolver();
}

namespace {

// ---- Block-solve cache plumbing (cache/block_cache.h) ----------------
//
// Every helper below upholds the two cache invariants spelled out in
// docs/caching.md:
//
//  * Store only complete results.  Nothing produced by an exhausted
//    governor, no kUnknown verdict, no abandoned (empty / zero)
//    payload ever enters the table — which is why a stored entry is
//    automatically "computed under a sufficient budget" for any caller
//    whose own remaining headroom passes MayServe.
//  * Serve only when a fresh solve would have completed too.  The
//    caller's governor must still admit the block (WouldAdmitBlock, so
//    refusal accounting is reproduced by an actual refused solve), and
//    replaying the entry's node cost must not reach the node firing
//    index — otherwise the fresh solve would have fired mid-block and
//    the hit is refused so exactly that happens.
//  * Solve each key once.  Lookups go through LookupOrClaim, so a
//    thread that misses a key another thread is solving waits for that
//    solve's Store instead of repeating it; the Claim is released when
//    the helper returns, after its Store.

uint64_t SolverSalt(const BlockSolver& solver) {
  const std::string_view name = solver.Name();
  return HashRange(name.begin(), name.end());
}

// In audit builds, re-solves a served hit from scratch (fresh unlimited
// governor, no cache) and dies on any divergence — the safety net for
// fingerprint collisions and canonicalization bugs.
template <typename Fresh>
void AuditCacheHit(const ProblemContext& ctx, Fresh&& fresh_matches) {
  if (!audit::Enabled()) {
    return;
  }
  ProblemContext fresh = ctx.WorkerView(&ResourceGovernor::Unlimited());
  fresh.set_block_cache(nullptr);
  PREFREP_CHECK_MSG(fresh_matches(fresh),
                    "block-solve cache hit diverges from a fresh solve "
                    "(fingerprint collision or canonicalization bug)");
}

// CheckBlock through the cache.  Only the exhaustive solver is
// memoized: it is the non-polynomial path, and its witnesses
// ("an enumerated block-repair improves J on block #i") re-render
// byte-identically from the canonical payload — the tractable solvers'
// messages embed fact labels, which a fingerprint deliberately forgets.
CheckResult CacheAwareCheckBlock(const BlockSolver& solver,
                                 const ProblemContext& ctx, const Block& b,
                                 const DynamicBitset& j) {
  BlockSolveCache* cache = ctx.block_cache();
  if (cache == nullptr || &solver != &ExhaustiveBlockSolver() ||
      !ctx.priority_block_local()) {
    return solver.CheckBlock(ctx, b, j);
  }
  ResourceGovernor& governor = ctx.governor();
  if (!governor.WouldAdmitBlock(b.size())) {
    return solver.CheckBlock(ctx, b, j);  // records the refusal
  }
  const BlockFingerprint base = ComputeBlockFingerprint(ctx, b);
  const BlockFingerprint key =
      DeriveOpKey(base, BlockCacheOp::kVerdict, SolverSalt(solver),
                  CanonicalSubsetDigest(b, j));
  BlockSolveCache::Claim claim;  // released after the Store below
  if (std::optional<BlockSolveCache::Entry> entry =
          cache->LookupOrClaim(key, governor, &claim);
      entry.has_value() && MayServeCachedEntry(governor, *entry)) {
    cache->NoteHit();
    ReplayServedNodes(governor, *entry);
    CheckResult served;
    if (entry->optimal) {
      served = CheckResult::Optimal();
    } else {
      // Rehydrate the witness in this block's coordinates: same
      // enumeration index, same facts under the canonical isomorphism,
      // same message — byte-identical to the fresh solve.
      DynamicBitset candidate =
          (j - b.facts) |
          UncanonicalizeSubset(b, entry->witness_local, j.size());
      served = CheckResult::NotOptimal(
          std::move(candidate),
          "an enumerated block-repair improves J on block " +
              std::to_string(b.id));
    }
    AuditCacheHit(ctx, [&](const ProblemContext& fresh) {
      CheckResult expect = solver.CheckBlock(fresh, b, j);
      if (!expect.known() || expect.optimal != served.optimal) {
        return false;
      }
      if (expect.optimal) {
        return true;
      }
      return expect.witness.has_value() && served.witness.has_value() &&
             expect.witness->improvement == served.witness->improvement &&
             expect.witness->explanation == served.witness->explanation;
    });
    return served;
  }
  cache->NoteMiss();
  const uint64_t nodes_before = governor.nodes_spent();
  CheckResult result = solver.CheckBlock(ctx, b, j);
  if (!result.known() || governor.exhausted()) {
    return result;  // incomplete: never cached
  }
  BlockSolveCache::Entry entry;
  entry.optimal = result.optimal;
  if (!result.optimal) {
    if (!result.witness.has_value()) {
      return result;  // witnessless refutation: nothing replayable
    }
    entry.witness_local = CanonicalizeSubset(b, result.witness->improvement);
  }
  entry.nodes = governor.nodes_spent() - nodes_before;
  entry.nodes_valid = !governor.unlimited();
  cache->Store(base, key, std::move(entry));
  return result;
}

}  // namespace

std::vector<DynamicBitset> CachedOptimalBlockRepairs(const BlockSolver& solver,
                                                     const ProblemContext& ctx,
                                                     const Block& b) {
  BlockSolveCache* cache = ctx.block_cache();
  if (cache == nullptr || !solver.BlockDetermined() ||
      !ctx.priority_block_local()) {
    return solver.OptimalBlockRepairs(ctx, b);
  }
  ResourceGovernor& governor = ctx.governor();
  if (!governor.WouldAdmitBlock(b.size())) {
    return solver.OptimalBlockRepairs(ctx, b);  // records the refusal
  }
  const BlockFingerprint base = ComputeBlockFingerprint(ctx, b);
  const BlockFingerprint key =
      DeriveOpKey(base, BlockCacheOp::kOptimalSet, SolverSalt(solver));
  BlockSolveCache::Claim claim;  // released after the Store below
  if (std::optional<BlockSolveCache::Entry> entry =
          cache->LookupOrClaim(key, governor, &claim);
      entry.has_value() && MayServeCachedEntry(governor, *entry)) {
    cache->NoteHit();
    ReplayServedNodes(governor, *entry);
    std::vector<DynamicBitset> out;
    out.reserve(entry->repairs_local.size());
    for (const DynamicBitset& local : entry->repairs_local) {
      out.push_back(UncanonicalizeSubset(b, local, b.facts.size()));
    }
    AuditCacheHit(ctx, [&](const ProblemContext& fresh) {
      return solver.OptimalBlockRepairs(fresh, b) == out;
    });
    return out;
  }
  cache->NoteMiss();
  const uint64_t nodes_before = governor.nodes_spent();
  std::vector<DynamicBitset> out = solver.OptimalBlockRepairs(ctx, b);
  if (out.empty() || governor.exhausted()) {
    return out;  // empty means abandoned (see header): never cached
  }
  BlockSolveCache::Entry entry;
  entry.repairs_local.reserve(out.size());
  for (const DynamicBitset& r : out) {
    entry.repairs_local.push_back(CanonicalizeSubset(b, r));
  }
  entry.nodes = governor.nodes_spent() - nodes_before;
  entry.nodes_valid = !governor.unlimited();
  cache->Store(base, key, std::move(entry));
  return out;
}

uint64_t CachedCountBlock(const BlockSolver& solver, const ProblemContext& ctx,
                          const Block& b) {
  BlockSolveCache* cache = ctx.block_cache();
  if (cache == nullptr || !solver.BlockDetermined() ||
      !ctx.priority_block_local()) {
    return solver.CountBlock(ctx, b);
  }
  ResourceGovernor& governor = ctx.governor();
  if (!governor.WouldAdmitBlock(b.size())) {
    return solver.CountBlock(ctx, b);  // records the refusal
  }
  const BlockFingerprint base = ComputeBlockFingerprint(ctx, b);
  const BlockFingerprint key =
      DeriveOpKey(base, BlockCacheOp::kCount, SolverSalt(solver));
  BlockSolveCache::Claim claim;  // released after the Store below
  if (std::optional<BlockSolveCache::Entry> entry =
          cache->LookupOrClaim(key, governor, &claim);
      entry.has_value() && MayServeCachedEntry(governor, *entry)) {
    cache->NoteHit();
    ReplayServedNodes(governor, *entry);
    const uint64_t count = entry->count;
    AuditCacheHit(ctx, [&](const ProblemContext& fresh) {
      return solver.CountBlock(fresh, b) == count;
    });
    return count;
  }
  cache->NoteMiss();
  const uint64_t nodes_before = governor.nodes_spent();
  const uint64_t count = solver.CountBlock(ctx, b);
  if (count == 0 || governor.exhausted()) {
    // 0 is the "abandoned" sentinel and an exhausted count is a lower
    // bound; neither is a complete result.
    return count;
  }
  BlockSolveCache::Entry entry;
  entry.count = count;
  entry.nodes = governor.nodes_spent() - nodes_before;
  entry.nodes_valid = !governor.unlimited();
  cache->Store(base, key, std::move(entry));
  return count;
}

CheckResult AuditedCheckBlock(const BlockSolver& solver,
                              const ProblemContext& ctx, const Block& b,
                              const DynamicBitset& j) {
  CheckResult result = CacheAwareCheckBlock(solver, ctx, b, j);
  if (audit::Enabled() && audit::internal::ForcingWrongVerdict() &&
      result.known()) {
    // Test-only fault injection: corrupt the verdict so the death test
    // can prove the audit below actually fires.  An unknown verdict is
    // left alone — there is nothing to flip and the audit skips it.
    result = result.optimal ? CheckResult::NotOptimalNoWitness()
                            : CheckResult::Optimal();
  }
  audit::CheckBlockVerdict(ctx, solver, b, j, result);
  return result;
}

namespace {

// The shared combine loop: consistency, conflict-free facts, then the
// conjunction of per-block checks.  `give_free_witness` distinguishes
// the witness-producing semantics from the completion check (which,
// like its whole-instance counterpart, reports no witnesses).
template <typename SolverFor>
CheckResult CheckOptimalByBlocksImpl(const ProblemContext& ctx,
                                     const DynamicBitset& j,
                                     SolverFor&& solver_for,
                                     size_t* failed_block,
                                     bool give_free_witness,
                                     DegradationReport* degradation = nullptr) {
  PREFREP_CHECK_MSG(ctx.priority_block_local(),
                    "per-block optimality checking requires a block-local "
                    "priority");
  const ConflictGraph& cg = ctx.conflict_graph();
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();
  }
  const BlockDecomposition& blocks = ctx.blocks();
  // A conflict-free fact belongs to every repair; no block check would
  // notice its absence.
  const DynamicBitset missing = blocks.free_facts() - j;
  if (missing.any()) {
    if (!give_free_witness) {
      return CheckResult::NotOptimalNoWitness();
    }
    FactId f = static_cast<FactId>(missing.FindFirst());
    DynamicBitset improvement = j;
    improvement.set(f);
    return CheckResult::NotOptimal(
        std::move(improvement),
        "J is not maximal: " + ctx.instance().FactToString(f) +
            " has no conflicts");
  }
  // Per-block conjunction with graceful degradation: a definite kNo
  // refutes J outright (even once the budget is exhausted — the witness
  // was found before or by a polynomial solver); an unknown block is
  // recorded and skipped, so every tractable block is still answered
  // exactly; any surviving unknown makes the conjunction unknown.
  ResourceGovernor& governor = ctx.governor();
  size_t exact = 0;
  std::string first_unknown_reason;
  std::vector<BlockDegradation> abandoned;
  BlockSolveCache* const cache = ctx.block_cache();
  const BlockCacheStats cache_before =
      cache != nullptr ? cache->stats() : BlockCacheStats{};
  const auto fill_report = [&]() {
    if (degradation == nullptr) {
      return;
    }
    degradation->blocks_total = blocks.blocks().size();
    degradation->blocks_exact = exact;
    degradation->blocks_abandoned = abandoned.size();
    degradation->nodes_spent = governor.nodes_spent();
    degradation->cause =
        governor.degraded() ? governor.CauseString() : std::string();
    if (cache != nullptr) {
      // Per-call delta of the shared counters; approximate when other
      // sessions hit the same cache concurrently (and excluded from the
      // byte-identical cache-on/off contract either way).
      const BlockCacheStats now = cache->stats();
      degradation->cache_hits = now.hits - cache_before.hits;
      degradation->cache_misses = now.misses - cache_before.misses;
    }
    degradation->abandoned = std::move(abandoned);
  };
  // The session speculates every block on the worker pool (when the
  // context allows parallelism) and hands back per-block results that
  // are byte-identical to running AuditedCheckBlock serially right
  // here, including the governor's accounting; see parallel_solver.h.
  ParallelBlockSession<CheckResult> session(
      ctx, AllBlocksInOrder(blocks),
      [&](const ProblemContext& cx, const Block& bb) {
        return AuditedCheckBlock(solver_for(bb), cx, bb, j);
      },
      [](const CheckResult& r) { return r.known(); },
      [](const CheckResult& r) { return r.known() && !r.optimal; });
  for (const Block& b : blocks.blocks()) {
    const uint64_t nodes_before = governor.nodes_spent();
    CheckResult result = session.Next(b);
    if (!result.known()) {
      abandoned.push_back(BlockDegradation{
          b.id, b.size(), governor.nodes_spent() - nodes_before,
          result.unknown_reason});
      if (first_unknown_reason.empty()) {
        first_unknown_reason = result.unknown_reason;
      }
      continue;
    }
    if (!result.optimal) {
      if (failed_block != nullptr) {
        *failed_block = b.id;
      }
      fill_report();
      return result;
    }
    ++exact;
  }
  fill_report();
  if (!first_unknown_reason.empty()) {
    return CheckResult::Unknown(std::move(first_unknown_reason));
  }
  return CheckResult::Optimal();
}

}  // namespace

CheckResult CheckGlobalOptimalByBlocks(const ProblemContext& ctx,
                                       const DynamicBitset& j,
                                       PriorityMode mode,
                                       size_t* failed_block,
                                       DegradationReport* degradation) {
  return CheckOptimalByBlocksImpl(
      ctx, j,
      [&](const Block& b) -> const BlockSolver& {
        return DispatchBlockSolver(ctx, b, mode);
      },
      failed_block, /*give_free_witness=*/true, degradation);
}

CheckResult CheckParetoOptimalByBlocks(const ProblemContext& ctx,
                                       const DynamicBitset& j) {
  return CheckOptimalByBlocksImpl(
      ctx, j,
      [](const Block&) -> const BlockSolver& { return ParetoBlockSolver(); },
      /*failed_block=*/nullptr, /*give_free_witness=*/true);
}

CheckResult CheckCompletionOptimalByBlocks(const ProblemContext& ctx,
                                           const DynamicBitset& j) {
  return CheckOptimalByBlocksImpl(
      ctx, j,
      [](const Block&) -> const BlockSolver& {
        return CompletionBlockSolver();
      },
      /*failed_block=*/nullptr, /*give_free_witness=*/false);
}

std::vector<DynamicBitset> AllOptimalRepairs(const ProblemContext& ctx,
                                             RepairSemantics semantics) {
  if (!ctx.priority_block_local()) {
    return AllOptimalRepairs(ctx.conflict_graph(), ctx.priority(), semantics);
  }
  ResourceGovernor& governor = ctx.governor();
  std::vector<DynamicBitset> out{ctx.blocks().free_facts()};
  // Per-block repair sets are enumeration order within one block, so a
  // worker's set is bitwise the serial one; the session only has to
  // merge them in block order (parallel_solver.h).
  ParallelBlockSession<std::vector<DynamicBitset>> session(
      ctx, AllBlocksInOrder(ctx.blocks()),
      [&](const ProblemContext& cx, const Block& bb) {
        return CachedOptimalBlockRepairs(SolverForSemantics(ctx, bb, semantics),
                                         cx, bb);
      },
      [](const std::vector<DynamicBitset>& v) { return !v.empty(); });
  for (const Block& b : ctx.blocks().blocks()) {
    const BlockSolver& solver = SolverForSemantics(ctx, b, semantics);
    std::vector<DynamicBitset> optimal = session.Next(b);
    if (optimal.empty()) {
      // Abandoned (budget fired or block refused): a partial
      // cross-product is not a set of repairs, so return nothing.  The
      // CHECK keeps the ungoverned invariant honest — an empty set
      // without degradation would be an algorithmic bug, not a budget.
      PREFREP_CHECK_MSG(
          governor.degraded() ||
              b.size() > ResourceGovernor::kMaxExhaustiveBlockFacts,
          "every block admits an optimal block-repair");
      return {};
    }
    audit::CheckBlockRepairSet(ctx, solver, b, optimal);
    // The cross-product is where enumeration really explodes — the
    // per-block sets above are at most 2^|block| each, but their
    // product multiplies across blocks.  Charge one checkpoint per
    // materialized repair so a node budget bounds the product itself,
    // not just the per-block solves feeding it.
    std::vector<DynamicBitset> next;
    next.reserve(out.size() * optimal.size());
    for (const DynamicBitset& prefix : out) {
      for (const DynamicBitset& choice : optimal) {
        if (!governor.Checkpoint()) {
          return {};
        }
        next.push_back(prefix | choice);
      }
    }
    out = std::move(next);
  }
  return out;
}

uint64_t CountOptimalRepairsByBlocks(const ProblemContext& ctx,
                                     RepairSemantics semantics) {
  return CountOptimalRepairsByBlocksBounded(ctx, semantics).lower_bound;
}

BoundedCount CountOptimalRepairsByBlocksBounded(const ProblemContext& ctx,
                                                RepairSemantics semantics) {
  PREFREP_CHECK_MSG(ctx.priority_block_local(),
                    "per-block counting requires a block-local priority");
  ResourceGovernor& governor = ctx.governor();
  BoundedCount out;
  // A zero payload is never adopted (it means refused, cut short at
  // zero, or — audited below — a genuine algorithmic zero), so the
  // rerun leaves the authoritative record on the shared governor.
  ParallelBlockSession<uint64_t> session(
      ctx, AllBlocksInOrder(ctx.blocks()),
      [&](const ProblemContext& cx, const Block& bb) {
        return CachedCountBlock(SolverForSemantics(ctx, bb, semantics), cx, bb);
      },
      [](const uint64_t& count) { return count > 0; });
  for (const Block& b : ctx.blocks().blocks()) {
    const BlockSolver& solver = SolverForSemantics(ctx, b, semantics);
    const bool was_exhausted = governor.exhausted();
    uint64_t block_count = session.Next(b);
    // A cut-short block keeps what it verified, floored at one (every
    // block has ≥ 1 optimal block-repair); 0 from an uncut block would
    // be an algorithmic bug and still goes through the audit below.
    const bool block_unknown =
        (!was_exhausted && governor.exhausted()) ||
        (block_count == 0 &&
         (governor.degraded() ||
          b.size() > ResourceGovernor::kMaxExhaustiveBlockFacts));
    if (block_unknown) {
      out.exact = false;
      ++out.unknown_blocks;
      block_count = block_count == 0 ? 1 : block_count;
    } else {
      audit::CheckBlockCount(ctx, solver, b, block_count);
      if (block_count == 0) {
        // An uncut zero annihilates the product exactly.
        out.lower_bound = 0;
        return out;
      }
    }
    bool saturated = false;
    out.lower_bound = SaturatingMulU64(out.lower_bound, block_count,
                                       &saturated);
    if (saturated) {
      out.saturated = true;
      out.exact = false;
    }
  }
  return out;
}

}  // namespace prefrep
