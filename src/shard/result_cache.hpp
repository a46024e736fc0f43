// LRU cache of exact kNN answers for the sharded engine.
//
// The key is (quantized query grid cell, k) — the hash bucket — but a hit
// additionally requires bit-identical query coordinates, so the cache can
// never substitute a merely-nearby answer: results with the cache on are
// bit-identical to the cache-off run. Quantization only controls how entries
// bucket (and how coarse invalidation sweeps can reason about locality).
//
// Invalidation contract, driven by the engine's sstree::Updater hooks:
//   * insert_point: drop every entry the new point could enter — its list
//     was not full, or the point lies within the cached k-th distance (one
//     ULP inflated, so exact ties are also dropped).
//   * erase_point: drop every entry whose list contains the erased id.
// Entries surviving both sweeps provably still hold the exact answer.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"

namespace psb::shard {

class ResultCache {
 public:
  /// Hold at most `capacity` answers (> 0), quantizing queries onto a
  /// 2^12 grid per axis over `bounds` (the dataset bounding box;
  /// out-of-bounds queries clamp onto the boundary cells).
  ResultCache(std::size_t capacity, Rect bounds);

  std::size_t size() const noexcept { return lru_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Exact-match probe. A hit refreshes the entry's LRU position and returns
  /// a copy of the cached neighbor list.
  std::optional<std::vector<KnnHeap::Entry>> lookup(std::span<const Scalar> query,
                                                    std::size_t k);

  /// Insert (or refresh) the answer for `query`; evicts the least-recently
  /// used entry when full.
  void store(std::span<const Scalar> query, std::size_t k,
             std::vector<KnnHeap::Entry> neighbors);

  /// Invalidate every entry whose answer could change when point `p` enters
  /// the dataset. Returns the number of entries dropped.
  std::size_t invalidate_insert(std::span<const Scalar> p);

  /// Invalidate every entry whose list contains the erased point id.
  /// Returns the number of entries dropped.
  std::size_t invalidate_erase(PointId id);

  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::size_t k = 0;
    std::vector<Scalar> query;
    std::vector<KnnHeap::Entry> neighbors;
  };
  using List = std::list<Entry>;

  std::uint64_t bucket_key(std::span<const Scalar> query, std::size_t k) const;
  void drop(List::iterator it);

  std::size_t capacity_;
  Rect bounds_;
  List lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, List::iterator> index_;
};

}  // namespace psb::shard
