#include "rbc/rbc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "knn/shared_heap.hpp"

namespace psb::rbc {
namespace {

constexpr int kBlockThreads = 256;

}  // namespace

RandomBallCover::RandomBallCover(const PointSet* points, RbcOptions opts)
    : points_(points), opts_(opts) {
  PSB_REQUIRE(points != nullptr, "point set required");
  PSB_REQUIRE(!points->empty(), "cannot build over an empty point set");

  const std::size_t n = points->size();
  std::size_t m = opts.num_representatives;
  if (m == 0) m = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  m = std::min(m, n);

  // Random representatives without replacement (partial Fisher-Yates).
  Rng rng(opts.seed);
  std::vector<PointId> pool(n);
  std::iota(pool.begin(), pool.end(), PointId{0});
  rep_ids_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
    rep_ids_.push_back(pool[i]);
  }

  // One brute n x m assignment pass (partial-distance pruning keeps the
  // host-side build tractable at the paper's 1M scale; exactness unaffected
  // since a squared-prefix only underestimates).
  const std::size_t d = points_->dims();
  lists_.assign(m, {});
  radii_.assign(m, 0);
  for (PointId p = 0; p < n; ++p) {
    const Scalar* pp = (*points_)[p].data();
    std::size_t best = 0;
    double best_sq = std::numeric_limits<double>::max();
    for (std::size_t r = 0; r < m; ++r) {
      const Scalar* rp = (*points_)[rep_ids_[r]].data();
      double acc = 0;
      std::size_t t = 0;
      for (; t + 16 <= d; t += 16) {
        for (std::size_t j = t; j < t + 16; ++j) {
          const double diff = static_cast<double>(pp[j]) - rp[j];
          acc += diff * diff;
        }
        if (acc > best_sq) break;
      }
      if (acc <= best_sq) {
        for (; t < d; ++t) {
          const double diff = static_cast<double>(pp[t]) - rp[t];
          acc += diff * diff;
        }
        if (acc < best_sq) {
          best_sq = acc;
          best = r;
        }
      }
    }
    lists_[best].push_back(p);
    radii_[best] =
        std::max(radii_[best], distance((*points_)[p], (*points_)[rep_ids_[best]]));
  }
}

void RandomBallCover::run_exact(simt::Block& block, std::span<const Scalar> q, std::size_t k,
                                knn::QueryResult& out) const {
  const std::size_t m = rep_ids_.size();
  const std::size_t d = points_->dims();
  knn::SharedKnnList list(block, std::min(k, points_->size()));

  // Phase 1: distances to every representative (coalesced brute sweep).
  std::vector<Scalar> rep_dist(m);
  block.load_global(m * d * sizeof(Scalar), simt::Access::kCoalesced);
  block.par_for(m, static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t r) {
    rep_dist[r] = distance(q, (*points_)[rep_ids_[r]]);
  });
  out.stats.points_examined += m;

  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rep_dist[a] < rep_dist[b]; });
  block.charge_bitonic_sort(rep_dist.size());  // the selection sort

  // Phase 2: scan lists in ascending rep distance; triangle-inequality prune
  // (every member of list r is within radius_r of its representative, so its
  // distance to q is at least rep_dist[r] - radius_r).
  std::vector<Scalar> dists;
  for (const std::size_t r : order) {
    if (lists_[r].empty()) continue;
    const Scalar lower = rep_dist[r] - radii_[r];
    if (!(lower < list.pruning_distance())) continue;
    ++out.stats.nodes_visited;  // one list scanned
    const auto& members = lists_[r];
    dists.resize(members.size());
    block.load_global(members.size() * d * sizeof(Scalar), simt::Access::kCoalesced);
    block.par_for(members.size(), static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t i) {
      dists[i] = distance(q, (*points_)[members[i]]);
    });
    out.stats.points_examined += members.size();
    list.offer_batch(dists, members);
  }
  out.neighbors = list.sorted();
}

void RandomBallCover::run_one_shot(simt::Block& block, std::span<const Scalar> q,
                                   std::size_t k, std::size_t s,
                                   knn::QueryResult& out) const {
  const std::size_t m = rep_ids_.size();
  const std::size_t d = points_->dims();
  knn::SharedKnnList list(block, std::min(k, points_->size()));

  std::vector<Scalar> rep_dist(m);
  block.load_global(m * d * sizeof(Scalar), simt::Access::kCoalesced);
  block.par_for(m, static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t r) {
    rep_dist[r] = distance(q, (*points_)[rep_ids_[r]]);
  });
  out.stats.points_examined += m;

  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t take = std::min(s, m);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(take),
                    order.end(),
                    [&](std::size_t a, std::size_t b) { return rep_dist[a] < rep_dist[b]; });
  block.charge_bitonic_sort(rep_dist.size());  // selecting the `take` nearest

  std::vector<Scalar> dists;
  for (std::size_t i = 0; i < take; ++i) {
    const auto& members = lists_[order[i]];
    if (members.empty()) continue;
    ++out.stats.nodes_visited;
    dists.resize(members.size());
    block.load_global(members.size() * d * sizeof(Scalar), simt::Access::kCoalesced);
    block.par_for(members.size(), static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t j) {
      dists[j] = distance(q, (*points_)[members[j]]);
    });
    out.stats.points_examined += members.size();
    list.offer_batch(dists, members);
  }
  out.neighbors = list.sorted();
}

knn::QueryResult RandomBallCover::query_exact(std::span<const Scalar> q, std::size_t k,
                                              simt::Metrics* metrics) const {
  PSB_REQUIRE(k > 0, "k must be > 0");
  PSB_REQUIRE(q.size() == points_->dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts_.device, kBlockThreads, metrics != nullptr ? metrics : &local);
  knn::QueryResult out;
  run_exact(block, q, k, out);
  return out;
}

knn::QueryResult RandomBallCover::query_one_shot(std::span<const Scalar> q, std::size_t k,
                                                 std::size_t s,
                                                 simt::Metrics* metrics) const {
  PSB_REQUIRE(k > 0, "k must be > 0");
  PSB_REQUIRE(s > 0, "s must be > 0");
  PSB_REQUIRE(q.size() == points_->dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts_.device, kBlockThreads, metrics != nullptr ? metrics : &local);
  knn::QueryResult out;
  run_one_shot(block, q, k, s, out);
  return out;
}

knn::BatchResult RandomBallCover::batch_exact(const PointSet& queries, std::size_t k) const {
  PSB_REQUIRE(queries.dims() == points_->dims(), "query dimensionality mismatch");
  knn::BatchResult out;
  out.queries.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    simt::Metrics m;
    simt::Block block(opts_.device, kBlockThreads, &m);
    run_exact(block, queries[i], k, out.queries[i]);
    out.stats.merge(out.queries[i].stats);
    out.metrics.merge(m);
  }
  simt::KernelConfig cfg{static_cast<int>(std::max<std::size_t>(queries.size(), 1)),
                         kBlockThreads};
  out.timing = simt::estimate(opts_.device, out.metrics, cfg);
  return out;
}

knn::BatchResult RandomBallCover::batch_one_shot(const PointSet& queries, std::size_t k,
                                                 std::size_t s) const {
  PSB_REQUIRE(queries.dims() == points_->dims(), "query dimensionality mismatch");
  knn::BatchResult out;
  out.queries.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    simt::Metrics m;
    simt::Block block(opts_.device, kBlockThreads, &m);
    run_one_shot(block, queries[i], k, s, out.queries[i]);
    out.stats.merge(out.queries[i].stats);
    out.metrics.merge(m);
  }
  simt::KernelConfig cfg{static_cast<int>(std::max<std::size_t>(queries.size(), 1)),
                         kBlockThreads};
  out.timing = simt::estimate(opts_.device, out.metrics, cfg);
  return out;
}

void RandomBallCover::validate() const {
  std::vector<bool> seen(points_->size(), false);
  for (std::size_t r = 0; r < lists_.size(); ++r) {
    for (const PointId p : lists_[r]) {
      PSB_ASSERT(p < points_->size(), "list references invalid point");
      PSB_ASSERT(!seen[p], "point assigned to two representatives");
      seen[p] = true;
      const Scalar d = distance((*points_)[p], (*points_)[rep_ids_[r]]);
      PSB_ASSERT(d <= radii_[r] * (1 + 1e-4F) + 1e-4F,
                 "member outside its representative's ball");
      // Nearest-representative assignment.
      for (std::size_t r2 = 0; r2 < rep_ids_.size(); ++r2) {
        PSB_ASSERT(distance((*points_)[p], (*points_)[rep_ids_[r2]]) + 1e-3F >= d,
                   "member not assigned to its nearest representative");
      }
    }
  }
  for (std::size_t i = 0; i < points_->size(); ++i) {
    PSB_ASSERT(seen[i], "point missing from every list");
  }
}

double recall(const std::vector<KnnHeap::Entry>& got, std::span<const Scalar> reference) {
  if (reference.empty()) return 1.0;
  // Multiset containment on distances with float tolerance.
  std::vector<Scalar> have;
  have.reserve(got.size());
  for (const auto& e : got) have.push_back(e.dist);
  std::sort(have.begin(), have.end());
  std::size_t hit = 0;
  std::size_t j = 0;
  for (const Scalar r : reference) {
    while (j < have.size() && have[j] < r - 1e-3F) ++j;
    if (j < have.size() && std::abs(have[j] - r) <= 1e-3F + 1e-4F * r) {
      ++hit;
      ++j;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(reference.size());
}

}  // namespace psb::rbc
