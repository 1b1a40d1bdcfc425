#include "mcs/svc/cache.hpp"

#include <algorithm>
#include <utility>

#include "mcs/obs/metrics.hpp"
#include "mcs/svc/protocol.hpp"

namespace mcs::svc {

namespace {

obs::Counter& g_hits = obs::registry().counter("serve.cache.hits");
obs::Counter& g_misses = obs::registry().counter("serve.cache.misses");
obs::Counter& g_evictions = obs::registry().counter("serve.cache.evictions");
obs::Counter& g_collisions = obs::registry().counter("serve.cache.collisions");

}  // namespace

AnalysisCache::AnalysisCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  stats_.capacity = capacity_;
}

std::shared_ptr<const CachedAnalysis> AnalysisCache::lookup(
    std::uint64_t key, std::string_view canonical) {
  const std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    g_misses.add();
    return nullptr;
  }
  if (it->second->canonical != canonical) {
    ++stats_.collisions;
    ++stats_.misses;
    g_collisions.add();
    g_misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  g_hits.add();
  return it->second->value;
}

std::shared_ptr<const CachedAnalysis> AnalysisCache::insert(
    std::uint64_t key, std::string canonical,
    std::shared_ptr<const AnalysisResult> result) {
  auto value = std::make_shared<const CachedAnalysis>(CachedAnalysis{
      canonical_fingerprint(canonical), result_fields(*result)});
  const std::lock_guard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->canonical = std::move(canonical);
    it->second->value = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return value;
  }
  lru_.push_front(Entry{key, std::move(canonical), value});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    g_evictions.add();
  }
  return value;
}

CacheStats AnalysisCache::stats() const {
  const std::lock_guard lock(mutex_);
  CacheStats out = stats_;
  out.size = lru_.size();
  return out;
}

void AnalysisCache::clear() {
  const std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace mcs::svc
