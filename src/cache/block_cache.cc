#include "cache/block_cache.h"

#include <algorithm>

namespace prefrep {

BlockSolveCache::BlockSolveCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, kNumShards)),
      shard_capacity_(std::max<size_t>(capacity_ / kNumShards, 1)) {}

size_t BlockSolveCache::EntryBytes(const Entry& entry) {
  auto bitset_bytes = [](const DynamicBitset& b) {
    return ((b.size() + 63) / 64) * sizeof(uint64_t);
  };
  size_t bytes = sizeof(Entry) + sizeof(BlockFingerprint);
  bytes += bitset_bytes(entry.witness_local);
  bytes += bitset_bytes(entry.repair_local);
  for (const DynamicBitset& r : entry.repairs_local) {
    bytes += sizeof(DynamicBitset) + bitset_bytes(r);
  }
  return bytes;
}

std::optional<BlockSolveCache::Entry> BlockSolveCache::Lookup(
    const BlockFingerprint& key) {
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;  // copy out under the lock
}

std::optional<BlockSolveCache::Entry> BlockSolveCache::LookupOrClaim(
    const BlockFingerprint& key, const ResourceGovernor& governor,
    Claim* claim) {
  PREFREP_DCHECK(!claim->held());
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  bool waited = false;
  while (true) {
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;  // copy out under the lock
    }
    if (std::find(shard.in_flight.begin(), shard.in_flight.end(), key) ==
        shard.in_flight.end()) {
      shard.in_flight.push_back(key);
      claim->cache_ = this;
      claim->key_ = key;
      return std::nullopt;
    }
    if (governor.InterruptPending()) {
      return std::nullopt;  // the caller's solve fires the governor
    }
    if (!waited) {
      waits_.fetch_add(1, std::memory_order_relaxed);
      waited = true;
    }
    ++shard.waiters;
    if (governor.unlimited()) {
      shard.released.Wait(shard.mu);  // nothing can interrupt this wait
    } else {
      shard.released.WaitFor(shard.mu, kWaitPollInterval);
    }
    --shard.waiters;
  }
}

void BlockSolveCache::ReleaseClaim(const BlockFingerprint& key) {
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  auto it = std::find(shard.in_flight.begin(), shard.in_flight.end(), key);
  PREFREP_DCHECK(it != shard.in_flight.end());
  *it = shard.in_flight.back();
  shard.in_flight.pop_back();
  if (shard.waiters > 0) {
    // Every waiter of the shard wakes and looks again: after a Store
    // they all find the entry; otherwise the first to retake the lock
    // claims the key and the rest wait on it.
    shard.released.NotifyAll();
  }
}

void BlockSolveCache::Claim::Release() {
  if (cache_ != nullptr) {
    cache_->ReleaseClaim(key_);
    cache_ = nullptr;
  }
}

void BlockSolveCache::Store(const BlockFingerprint& key, Entry entry) {
  Shard& shard = shard_of(key);
  const size_t incoming_bytes = EntryBytes(entry);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& existing = it->second->second;
    if (entry.nodes_valid && !existing.nodes_valid) {
      // Same deterministic result, but now with a real node count; the
      // upgrade lets node-replaying callers start hitting too.
      bytes_.fetch_add(incoming_bytes, std::memory_order_relaxed);
      bytes_.fetch_sub(EntryBytes(existing), std::memory_order_relaxed);
      existing = std::move(entry);
      stores_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    const auto& victim = shard.lru.back();
    bytes_.fetch_sub(EntryBytes(victim.second), std::memory_order_relaxed);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  bytes_.fetch_add(incoming_bytes, std::memory_order_relaxed);
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  stores_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

void BlockSolveCache::Store(const BlockFingerprint& base,
                            const BlockFingerprint& key, Entry entry) {
  {
    MutexLock lock(derived_mu_);
    std::vector<BlockFingerprint>& keys = derived_[base];
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        keys.size() < kMaxDerivedPerBase) {
      keys.push_back(key);
    }
  }
  Store(key, std::move(entry));
}

bool BlockSolveCache::Erase(const BlockFingerprint& key) {
  Shard& shard = shard_of(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return false;
  }
  bytes_.fetch_sub(EntryBytes(it->second->second),
                   std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second);
  shard.index.erase(it);
  return true;
}

size_t BlockSolveCache::EraseDerivedFrom(const BlockFingerprint& base) {
  std::vector<BlockFingerprint> keys;
  {
    MutexLock lock(derived_mu_);
    auto it = derived_.find(base);
    if (it == derived_.end()) {
      return 0;
    }
    keys = std::move(it->second);
    derived_.erase(it);
  }
  size_t erased = 0;
  for (const BlockFingerprint& key : keys) {
    if (Erase(key)) {
      ++erased;
    }
  }
  return erased;
}

BlockCacheStats BlockSolveCache::stats() const {
  BlockCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.waits = waits_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

bool MayServeCachedEntry(const ResourceGovernor& governor,
                         const BlockSolveCache::Entry& entry) {
  if (governor.unlimited()) {
    return true;  // CommitReplayNodes is a no-op; nothing to preserve
  }
  if (governor.exhausted()) {
    return false;  // a fresh solve would not run either
  }
  if (governor.budget().Unlimited() && governor.NodeFiringIndex() == 0) {
    // Armed by cancellation only: a parallel worker of an ungoverned
    // session.  The shared governor is unarmed, so the merge never
    // reads this worker's node count — replay accuracy is moot.
    return true;
  }
  if (!entry.nodes_valid) {
    return false;  // node-counting caller, uncounted entry: miss
  }
  const uint64_t firing = governor.NodeFiringIndex();
  if (firing != 0 && governor.nodes_spent() + entry.nodes >= firing) {
    // The fresh solve would have exhausted the budget mid-block; rerun
    // it so the budget fires exactly as it does cache-off.
    return false;
  }
  return true;
}

void ReplayServedNodes(ResourceGovernor& governor,
                       const BlockSolveCache::Entry& entry) {
  governor.CommitReplayNodes(entry.nodes_valid ? entry.nodes : 0);
}

void BlockSolveCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.lru) {
      bytes_.fetch_sub(EntryBytes(entry), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.index.clear();
    shard.lru.clear();
  }
  MutexLock lock(derived_mu_);
  derived_.clear();
}

}  // namespace prefrep
