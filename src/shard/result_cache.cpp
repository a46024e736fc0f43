#include "shard/result_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psb::shard {
namespace {

/// Grid resolution (bits per axis) of the quantized-cell bucket keys.
constexpr int kCellBits = 12;

/// SplitMix64 finalizer — the deterministic hash mixer for bucket keys.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, Rect bounds)
    : capacity_(capacity), bounds_(std::move(bounds)) {
  PSB_REQUIRE(capacity > 0, "cache capacity must be > 0");
  PSB_REQUIRE(!bounds_.lo.empty() && bounds_.lo.size() == bounds_.hi.size(),
              "cache bounds must be a valid rectangle");
}

std::uint64_t ResultCache::bucket_key(std::span<const Scalar> query, std::size_t k) const {
  const auto cells = std::uint64_t{1} << kCellBits;
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k));
  for (std::size_t t = 0; t < query.size(); ++t) {
    const double lo = bounds_.lo[t];
    const double extent = static_cast<double>(bounds_.hi[t]) - lo;
    std::uint64_t cell = 0;
    if (extent > 0) {
      const double frac = (static_cast<double>(query[t]) - lo) / extent;
      const auto scaled = static_cast<std::int64_t>(std::floor(frac * static_cast<double>(cells)));
      cell = static_cast<std::uint64_t>(
          std::clamp<std::int64_t>(scaled, 0, static_cast<std::int64_t>(cells) - 1));
    }
    h = mix64(h ^ cell);
  }
  return h;
}

std::optional<std::vector<KnnHeap::Entry>> ResultCache::lookup(std::span<const Scalar> query,
                                                               std::size_t k) {
  const std::uint64_t key = bucket_key(query, k);
  auto [first, last] = index_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    Entry& e = *it->second;
    if (e.k != k || e.query.size() != query.size()) continue;
    if (!std::equal(e.query.begin(), e.query.end(), query.begin())) continue;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return e.neighbors;
  }
  return std::nullopt;
}

void ResultCache::store(std::span<const Scalar> query, std::size_t k,
                        std::vector<KnnHeap::Entry> neighbors) {
  if (auto hit = lookup(query, k)) {
    lru_.front().neighbors = std::move(neighbors);  // lookup moved it to front
    return;
  }
  while (lru_.size() >= capacity_) drop(std::prev(lru_.end()));
  Entry e;
  e.key = bucket_key(query, k);
  e.k = k;
  e.query.assign(query.begin(), query.end());
  e.neighbors = std::move(neighbors);
  lru_.push_front(std::move(e));
  index_.emplace(lru_.front().key, lru_.begin());
}

std::size_t ResultCache::invalidate_insert(std::span<const Scalar> p) {
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    bool affected = it->neighbors.size() < it->k;
    if (!affected) {
      // One-ULP inflation drops entries the new point exactly ties as well —
      // under (dist, id) order a tie can displace the cached k-th neighbor.
      const Scalar kth = it->neighbors.back().dist;
      affected = distance(it->query, p) <= next_up(kth);
    }
    if (affected) {
      drop(it);
      ++dropped;
    }
    it = next;
  }
  return dropped;
}

std::size_t ResultCache::invalidate_erase(PointId id) {
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    const bool affected =
        std::any_of(it->neighbors.begin(), it->neighbors.end(),
                    [id](const KnnHeap::Entry& e) { return e.id == id; });
    if (affected) {
      drop(it);
      ++dropped;
    }
    it = next;
  }
  return dropped;
}

void ResultCache::clear() {
  lru_.clear();
  index_.clear();
}

void ResultCache::drop(List::iterator it) {
  auto [first, last] = index_.equal_range(it->key);
  for (auto m = first; m != last; ++m) {
    if (m->second == it) {
      index_.erase(m);
      break;
    }
  }
  lru_.erase(it);
}

}  // namespace psb::shard
