// Text-keyed LRU cache of analysis results.
//
// Keys are std::hash of a request's canonical text.  Every entry also
// stores that text: a lookup whose key matches but whose text differs is a
// detected collision and is served as a miss (and counted), so a 64-bit
// hash collision can never return the wrong partition — the differential
// selftest relies on this.
//
// An entry holds what a hit serves (CachedAnalysis): the request's FNV-1a
// fingerprint and the response's result fields, both computed once, by
// the miss that fills the entry, so a hit hashes and compares its text and
// copies bytes.  Entries are shared pointers so a hit stays valid after
// the entry is evicted under a concurrent insert.
//
// Hit/miss/eviction/collision totals feed the obs registry
// (serve.cache.{hits,misses,evictions,collisions}) so the daemon's /stats
// and the selftest report them without a side channel.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "mcs/svc/analysis.hpp"

namespace mcs::svc {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;  ///< key matched, canonical text not
  std::size_t size = 0;
  std::size_t capacity = 0;
};

/// What a cache hit serves.
struct CachedAnalysis {
  /// FNV-1a of the canonical text (canonical_fingerprint): the response's
  /// "fingerprint" field.
  std::uint64_t fingerprint = 0;
  /// protocol.hpp's result_fields of the result: the response from
  /// "success" through "partition".
  std::string fields;
};

/// Thread-safe LRU map key -> CachedAnalysis.  All operations are O(1)
/// amortized (hash map + intrusive recency list) plus one compare of the
/// canonical text.
class AnalysisCache {
 public:
  /// A cache holding at most `capacity` entries (>= 1 enforced).
  explicit AnalysisCache(std::size_t capacity);

  /// Returns the entry when `key` is present AND the stored canonical text
  /// equals `canonical`; refreshes the entry's recency.  Returns nullptr (a
  /// miss) otherwise; a present-but-mismatching entry additionally counts a
  /// collision and is left in place (the colliding requests will keep
  /// missing, which is correct, just not fast).
  [[nodiscard]] std::shared_ptr<const CachedAnalysis> lookup(
      std::uint64_t key, std::string_view canonical);

  /// Fills (or refreshes) the entry for `key` from `result`, evicting the
  /// least recently used one when full, and returns it.  The fingerprint
  /// and the rendered fields are computed here, before the lock is taken;
  /// `result` itself is not kept.  An existing entry with the same key is
  /// replaced — callers only insert after a miss, so a replace means a
  /// collision was detected on lookup and the newer request now owns the
  /// slot.
  std::shared_ptr<const CachedAnalysis> insert(
      std::uint64_t key, std::string canonical,
      std::shared_ptr<const AnalysisResult> result);

  [[nodiscard]] CacheStats stats() const;

  /// Empties the cache (totals are kept; they are lifetime counters).
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string canonical;
    std::shared_ptr<const CachedAnalysis> value;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace mcs::svc
