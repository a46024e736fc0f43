#include "knn/shared_heap.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"

namespace psb::knn {

SharedKnnList::SharedKnnList(simt::Block& block, std::size_t k, bool spill_to_global)
    : block_(block), heap_(k), spill_(spill_to_global) {
  // Footprint: (dist, id) pairs resident in shared memory + a warp-wide
  // staging buffer for the parallel compare phase.
  const std::size_t resident = spill_ ? std::min(k, kSpillHead) : k;
  const std::size_t entry_bytes = sizeof(Scalar) + sizeof(PointId);
  const std::size_t staging =
      static_cast<std::size_t>(block_.threads()) * sizeof(Scalar);
  block_.use_shared(resident * entry_bytes + staging);
}

std::size_t SharedKnnList::offer_batch(std::span<const Scalar> dists,
                                       std::span<const PointId> ids) {
  PSB_REQUIRE(dists.size() == ids.size(), "dists/ids length mismatch");
  // Parallel phase: every lane compares its candidate against the bound.
  block_.par_for(dists.size(), 1, [](std::size_t) {});

  std::size_t inserted = 0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (heap_.offer(dists[i], ids[i])) ++inserted;
  }
  charge_merge(inserted, dists.size());
  return inserted;
}

namespace {

/// Squared-distance cut of the exact early reject (the argument is at
/// KnnHeap): a candidate with `acc >= cut` would lose in KnnHeap::offer.
/// NaN — which no comparison passes — while the list is still filling or its
/// top is +inf, where offer() alone decides.
double reject_cut(const KnnHeap& heap) noexcept {
  const Scalar top = heap.bound();
  if (!(top < kInfinity)) return std::numeric_limits<double>::quiet_NaN();
  const double u = next_up(top);
  return u * u;
}

/// Float threshold of the prefilter for `cut` over `d` dimensions (the
/// argument is in the SharedKnnList header comment): a float accumulator at
/// or above it proves the exact one is at or above `cut`. NaN — the
/// prefilter stands aside — outside the float-safe range [2^-64, 2^100] of
/// the cut (this also covers a NaN cut).
float prefilter_threshold(double cut, std::size_t d) noexcept {
  constexpr double kMinCut = 0x1p-64;
  constexpr double kMaxCut = 0x1p100;
  constexpr double kUnit = 0x1p-24;  // float unit roundoff
  const double nu = static_cast<double>(d + 2) * kUnit;
  if (!(cut >= kMinCut && cut <= kMaxCut) || !(nu < 0.5)) {
    return std::numeric_limits<float>::quiet_NaN();
  }
  const double gamma = nu / (1 - nu);  // gamma_{d+2}
  return next_up(static_cast<float>(cut * (1 + gamma)));
}

}  // namespace

std::size_t SharedKnnList::scan_leaf(const sstree::Node& leaf, std::span<const Scalar> query,
                                     PointId excluded_id) {
  const std::size_t c = leaf.points.size();
  const std::size_t d = query.size();
  PSB_ASSERT(leaf.coords.size() == c * d, "leaf coordinates do not match the query dims");
  const std::size_t offered =
      excluded_id == kInvalidPoint
          ? c
          : c - static_cast<std::size_t>(
                    std::count(leaf.points.begin(), leaf.points.end(), excluded_id));
  // Modeled charges: one lane per point computes its distance (3 ops per
  // dimension + sqrt), then every lane compares its candidate to the bound.
  block_.par_for(c, static_cast<std::uint64_t>(d) * 3 + 1, [](std::size_t) {});
  block_.par_for(offered, 1, [](std::size_t) {});

  // Host work, a stack-sized chunk of points at a time, accumulated
  // dimension-outer so the point loops vectorize. A point reaches offer()
  // in leaf order, with its double accumulator built by the same add
  // sequence on every path.
  constexpr std::size_t kChunk = 64;
  std::size_t inserted = 0;
  double cut = reject_cut(heap_);
  const auto offer_exact = [&](std::size_t i, double acc) {
    const PointId id = leaf.points[i];
    if (id == excluded_id || acc >= cut) return;
    if (heap_.offer(static_cast<Scalar>(std::sqrt(acc)), id)) {
      ++inserted;
      cut = reject_cut(heap_);
    }
  };
  for (std::size_t base = 0; base < c; base += kChunk) {
    const std::size_t w = std::min(kChunk, c - base);
    const float threshold = prefilter_threshold(cut, d);
    if (!std::isnan(threshold)) {
      // Full list, cut in the float-safe range: float accumulators pick the
      // survivors, which alone get the exact double accumulator.
      float accf[kChunk] = {};
      for (std::size_t t = 0; t < d; ++t) {
        const float qt = query[t];
        const Scalar* col = leaf.coords.data() + t * c + base;
        for (std::size_t i = 0; i < w; ++i) {
          const float diff = qt - col[i];
          accf[i] += diff * diff;
        }
      }
      std::uint64_t survivors = 0;
      for (std::size_t i = 0; i < w; ++i) {
        survivors |= static_cast<std::uint64_t>(!(accf[i] >= threshold)) << i;
      }
      for (; survivors != 0; survivors &= survivors - 1) {
        const std::size_t i = base + static_cast<std::size_t>(std::countr_zero(survivors));
        double acc = 0;
        for (std::size_t t = 0; t < d; ++t) {
          const double diff = static_cast<double>(query[t]) - leaf.coords[t * c + i];
          acc += diff * diff;
        }
        offer_exact(i, acc);
      }
      continue;
    }
    double acc[kChunk] = {};
    for (std::size_t t = 0; t < d; ++t) {
      const double qt = query[t];
      const Scalar* col = leaf.coords.data() + t * c + base;
      for (std::size_t i = 0; i < w; ++i) {
        const double diff = qt - col[i];
        acc[i] += diff * diff;
      }
    }
    for (std::size_t i = 0; i < w; ++i) offer_exact(base + i, acc[i]);
  }
  charge_merge(inserted, offered);
  return inserted;
}

void SharedKnnList::charge_merge(std::size_t inserted, std::size_t offered) {
  if (inserted == 0) return;
  // Block-parallel bitonic merge of (current list U accepted candidates):
  // the standard way a thread block maintains a shared k-NN list. Cost is
  // the full merge network over the next power of two of (k + batch).
  const std::size_t width = std::bit_ceil(heap_.k() + offered);
  const auto stages = static_cast<std::uint64_t>(std::bit_width(width) - 1);
  block_.par_for(width / 2, stages * (stages + 1) / 2, [](std::size_t) {});
  // One lane publishes the new pruning distance.
  block_.serialize(1);
  if (spill_) {
    // Entries displaced from the shared head spill to the global tail.
    block_.load_global(inserted * 2 * (sizeof(Scalar) + sizeof(PointId)),
                       simt::Access::kRandom);
  }
}

}  // namespace psb::knn
