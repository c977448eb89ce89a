// Copyright (c) prefrep contributors.
// BlockSolveCache — a sharded, thread-safe, capacity-bounded memo table
// for per-block solving results, keyed by canonical block fingerprints
// (cache/block_fingerprint.h).
//
// Sharded workloads repeat the same hard gadget hundreds of times
// (MakeHardShardedWorkload; the paper's reductions stamp out copies of
// S1..S6 the same way), yet every block was solved from scratch.  The
// cache closes that gap: each isomorphism class of blocks pays for one
// exhaustive solve, every later encounter replays the stored result
// through the canonical relabeling.
//
// Stored payloads are in canonical (block-local) coordinates and carry
// the node count the original solve spent, so a hit can be committed to
// the caller's governor as a zero-node replay (CommitReplayNodes) and
// the node trajectory stays exactly on the cache-off path.  Only
// complete, exact results are ever stored — never kUnknown verdicts,
// never results produced by an exhausted governor — which is what makes
// the issue's "at least as generous a budget" serve rule collapse to
// the node-replay check the callers perform (see docs/caching.md,
// "Governor interaction").
//
// Thread safety: 16 independently-locked shards; counters are atomics.
// Misses are single-flight (LookupOrClaim): the first thread to miss a
// key claims it and solves; every other thread that misses the same key
// waits for the claim to be released and looks again, so an
// isomorphism class pays for one solve at any thread count.  A claim
// released without a store (the solve was incomplete, exhausted or
// cancelled) passes to exactly one of the waiters.  A waiter never
// calls Checkpoint(), so its node trajectory is the cache-off one; it
// stops waiting once its own governor is cancelled or past its deadline
// (ResourceGovernor::InterruptPending) and takes the ordinary miss
// path.  No thread waits while it holds a claim, so no wait cycle is
// possible.  What stays timing-dependent is which claimant is cancelled
// under a refutation or a deadline, and therefore the hit/miss counts
// of such runs — never the *values* served: every stored value for a
// key is the same deterministic result.
//
// The cache itself is policy-free: callers (repair/block_solver.cc,
// repair/construct.cc) decide when serving is governor-correct and call
// NoteHit/NoteMiss accordingly, so the counters reflect served results,
// not raw probes.

#ifndef PREFREP_CACHE_BLOCK_CACHE_H_
#define PREFREP_CACHE_BLOCK_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/dynamic_bitset.h"
#include "base/governor.h"
#include "base/macros.h"
#include "base/thread_annotations.h"
#include "cache/block_fingerprint.h"

namespace prefrep {

/// Cache traffic counters (monotonic, process lifetime of the cache).
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;
  /// Lookups that blocked on another thread's in-flight solve.
  uint64_t waits = 0;
  size_t entries = 0;
  /// Approximate heap footprint of the stored payloads.
  size_t bytes = 0;
};

/// Memo table for per-block solving results.  See the file comment.
class BlockSolveCache {
 public:
  /// Default capacity in entries (not bytes): enough for every distinct
  /// gadget of a large reduction while bounding worst-case memory.
  static constexpr size_t kDefaultCapacity = 1 << 16;

  static constexpr size_t kNumShards = 16;

  explicit BlockSolveCache(size_t capacity = kDefaultCapacity);

  PREFREP_DISALLOW_COPY(BlockSolveCache);

  /// What one cached solve produced.  Exactly one payload member is
  /// meaningful per entry kind; all bitsets are block-local (universe =
  /// block size, canonical indices).
  struct Entry {
    /// True verdict payload: `optimal`, plus the improving block-repair
    /// when not optimal.
    bool optimal = false;
    DynamicBitset witness_local;
    /// Count payload.
    uint64_t count = 0;
    /// Optimal-set payload (canonical enumeration order).
    std::vector<DynamicBitset> repairs_local;
    /// Construction payload.
    DynamicBitset repair_local;
    /// Checkpoints the original solve spent, and whether that number is
    /// meaningful: a solve under an unarmed governor counts nothing, so
    /// its entry says nodes_valid = false and node-replaying callers
    /// must treat it as a miss (and overwrite it with a counted solve).
    uint64_t nodes = 0;
    bool nodes_valid = false;
  };

  /// Looks up `key`; refreshes LRU recency on hit.  Does NOT touch the
  /// hit/miss counters — the caller decides whether the entry may be
  /// served (governor rules) and reports via NoteHit/NoteMiss.
  std::optional<Entry> Lookup(const BlockFingerprint& key);

  /// The right to solve one key on a miss, held by at most one thread
  /// at a time.  Released on destruction — after the holder's Store,
  /// so the waiters it wakes find the entry.  An empty Claim holds
  /// nothing.
  class Claim {
   public:
    Claim() = default;
    ~Claim() { Release(); }
    PREFREP_DISALLOW_COPY(Claim);

    bool held() const { return cache_ != nullptr; }

    /// Gives the claim up now (idempotent).
    void Release();

   private:
    friend class BlockSolveCache;
    BlockSolveCache* cache_ = nullptr;
    BlockFingerprint key_{};
  };

  /// Single-flight Lookup.  Returns the entry when `key` is present.
  /// Otherwise returns nullopt, and `*claim` holds `key` unless another
  /// thread's claim is in flight: then this call waits until that claim
  /// is released and looks again.  The wait polls `governor` without
  /// calling Checkpoint(); once governor.InterruptPending() it returns
  /// nullopt with `*claim` empty, and the caller's fresh solve fires the
  /// governor as it would have cache-off.  `*claim` must be empty on
  /// entry, and its holder must not wait on another claim while it
  /// holds this one.
  std::optional<Entry> LookupOrClaim(const BlockFingerprint& key,
                                     const ResourceGovernor& governor,
                                     Claim* claim);

  /// How often a waiter whose governor can be interrupted polls it.
  static constexpr std::chrono::milliseconds kWaitPollInterval{1};

  /// Inserts `entry` under `key`, evicting the least-recently-used
  /// entry of the shard when full.  An existing entry is replaced only
  /// when the incoming one upgrades nodes_valid from false to true
  /// (identical results, better accounting); otherwise the first write
  /// wins, keeping racing stores idempotent.
  void Store(const BlockFingerprint& key, Entry entry);

  /// Like Store(key, entry), and additionally records `key` as derived
  /// from the base (pre-salt) block fingerprint `base`, so the serve
  /// layer can drop a retired block's entries with EraseDerivedFrom.
  /// At most kMaxDerivedPerBase keys are recorded per base (verdict
  /// keys are salted by the candidate J, so a base can derive
  /// unboundedly many); overflowing keys simply stay until evicted —
  /// fingerprint keying already guarantees an edited block can never
  /// *hit* a stale entry, so targeted erasure is purely a memory/
  /// hygiene optimization and may be incomplete.
  void Store(const BlockFingerprint& base, const BlockFingerprint& key,
             Entry entry);

  /// Removes `key` if present; true when an entry was dropped.
  bool Erase(const BlockFingerprint& key);

  /// Drops every entry recorded as derived from `base`, plus the
  /// derivation record; returns how many entries were removed.  Entries
  /// already evicted are skipped silently.
  size_t EraseDerivedFrom(const BlockFingerprint& base);

  static constexpr size_t kMaxDerivedPerBase = 64;

  void NoteHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void NoteMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  BlockCacheStats stats() const;

  size_t capacity() const { return capacity_; }

  /// Drops every entry (counters are kept — they are lifetime totals).
  void Clear();

 private:
  struct Shard {
    Shard() { in_flight.reserve(4); }

    Mutex mu;
    // Front = most recently used.
    std::list<std::pair<BlockFingerprint, Entry>> lru PREFREP_GUARDED_BY(mu);
    std::unordered_map<BlockFingerprint,
                       std::list<std::pair<BlockFingerprint, Entry>>::iterator,
                       BlockFingerprintHash>
        index PREFREP_GUARDED_BY(mu);
    // Keys claimed by a solving thread.  At most one per thread, so the
    // list stays short; reserved up front so claiming does not allocate.
    std::vector<BlockFingerprint> in_flight PREFREP_GUARDED_BY(mu);
    // Threads blocked in LookupOrClaim; releasing a claim notifies
    // `released` only when there are any.
    size_t waiters PREFREP_GUARDED_BY(mu) = 0;
    CondVar released;
  };

  void ReleaseClaim(const BlockFingerprint& key);

  Shard& shard_of(const BlockFingerprint& key) {
    return shards_[key.hi >> 60];  // top 4 bits pick one of 16 shards
  }

  static size_t EntryBytes(const Entry& entry);

  const size_t capacity_;
  const size_t shard_capacity_;
  Shard shards_[kNumShards];
  // base fingerprint → derived keys stored under it.  Global (not
  // per-shard): DeriveOpKey rehashes, so one base's keys land in
  // different shards.  Guarded by its own mutex; always acquired
  // without any shard lock held (and vice versa), so no lock-order
  // cycle is possible.
  Mutex derived_mu_;
  std::unordered_map<BlockFingerprint, std::vector<BlockFingerprint>,
                     BlockFingerprintHash>
      derived_ PREFREP_GUARDED_BY(derived_mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> bytes_{0};
};

/// The governor-correct serve rule shared by every cache call site
/// (repair/block_solver.cc, repair/construct.cc): a hit may be served
/// iff a fresh solve would also have completed, so serving changes
/// nothing but wall-clock time.  Concretely: always serve to an
/// unlimited governor; never to an exhausted one; serve regardless of
/// node validity to a governor armed only for cancellation (its node
/// counter is never read back); otherwise require a counted entry
/// (nodes_valid) whose replay stays strictly below the node firing
/// index — if the fresh solve would have fired mid-block, refuse the
/// hit and let it fire.  Block admission (WouldAdmitBlock) is the
/// caller's job: only solver paths have refusal accounting to preserve.
bool MayServeCachedEntry(const ResourceGovernor& governor,
                         const BlockSolveCache::Entry& entry);

/// Commits a served entry's node cost to the caller's governor
/// (CommitReplayNodes), keeping nodes_spent() exactly on the cache-off
/// trajectory.  MayServeCachedEntry must have approved the entry.
void ReplayServedNodes(ResourceGovernor& governor,
                       const BlockSolveCache::Entry& entry);

}  // namespace prefrep

#endif  // PREFREP_CACHE_BLOCK_CACHE_H_
