#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/fingerprint.hpp"

namespace mpct::service {

/// Aggregated (or per-shard) cache accounting.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    return *this;
  }
};

/// Sharded LRU result cache keyed by canonical request fingerprint.
///
/// Sharding bounds contention: a lookup locks only the shard the key
/// hashes to, so concurrent workers touching different shards never
/// serialise.  Each shard is an independent LRU (intrusive list + hash
/// map, both O(1)); eviction is per shard, so the configured capacity is
/// a per-shard budget and total capacity = shards x capacity_per_shard.
///
/// Values are held as shared_ptr<const Value>: a hit hands the caller a
/// reference to the immutable cached object without copying it under the
/// shard lock, and eviction while a reader still holds the pointer is
/// safe.
template <typename Value>
class ShardedLruCache {
 public:
  /// shard_count is rounded up to a power of two (so shard selection is a
  /// mask, not a modulo); both parameters are clamped to >= 1.
  ShardedLruCache(std::size_t shard_count, std::size_t capacity_per_shard)
      : capacity_per_shard_(capacity_per_shard == 0 ? 1 : capacity_per_shard),
        shards_(round_up_pow2(shard_count == 0 ? 1 : shard_count)) {}

  std::shared_ptr<const Value> get(Fingerprint key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    // Move to the front of the recency list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.hits;
    return it->second->value;
  }

  /// Insert (or refresh) an entry; evicts the least recently used entry
  /// of the same shard when the shard is full.
  void put(Fingerprint key, std::shared_ptr<const Value> value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= capacity_per_shard_) {
      const Entry& victim = shard.lru.back();
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index.emplace(key, shard.lru.begin());
    ++shard.stats.insertions;
  }

  void put(Fingerprint key, Value value) {
    put(key, std::make_shared<const Value>(std::move(value)));
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
    }
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity_per_shard() const { return capacity_per_shard_; }
  std::size_t capacity() const { return shards_.size() * capacity_per_shard_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.lru.size();
    }
    return total;
  }

  CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      CacheStats s = shard.stats;
      s.entries = shard.lru.size();
      total += s;
    }
    return total;
  }

 private:
  struct Entry {
    Fingerprint key = 0;
    std::shared_ptr<const Value> value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Fingerprint, typename std::list<Entry>::iterator> index;
    CacheStats stats;
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  Shard& shard_for(Fingerprint key) {
    // The fingerprint is already well mixed (every word is avalanched);
    // fold the high bits down so shard choice uses entropy the in-shard
    // hash map does not.
    const std::uint64_t folded = key ^ (key >> 32);
    return shards_[folded & (shards_.size() - 1)];
  }

  const std::size_t capacity_per_shard_;
  std::vector<Shard> shards_;
};

}  // namespace mpct::service
