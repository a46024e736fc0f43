// Brute-force exhaustive kNN scan on the simulated GPU — the baseline the
// paper (and the GPU-kNN literature it cites) compares against. One block per
// query streams the entire dataset with perfectly coalesced loads and folds
// candidates into the shared k-NN list chunk by chunk.
#pragma once

#include <algorithm>
#include <vector>

#include "common/points.hpp"
#include "knn/result.hpp"
#include "simt/block.hpp"

namespace psb::knn {

/// Lanes per block of an exhaustive scan: the caller's threads_per_block,
/// else the fixed default width.
inline int brute_force_threads(const GpuKnnOptions& opts) noexcept {
  return opts.threads_per_block > 0 ? opts.threads_per_block : 256;
}

/// Exact kNN for one query by exhaustive scan.
QueryResult brute_force_query(const PointSet& data, std::span<const Scalar> query,
                              const GpuKnnOptions& opts, simt::Metrics* metrics);

/// Exact kNN for a batch of queries.
BatchResult brute_force_batch(const PointSet& data, const PointSet& queries,
                              const GpuKnnOptions& opts = {});

/// The k nearest rows of `data` for which `admit(id)` holds, by the same
/// chunked, coalesced stream as brute_force_query: every row — admitted or
/// not — is loaded and measured on `block`, and admitted rows are folded into
/// a host-side KnnHeap (no shared-list charges). The engines' filtered
/// fallbacks use it: an alive mask on a shard, the self id on a self-join.
template <typename Admit>
QueryResult filtered_scan(simt::Block& block, const PointSet& data,
                          std::span<const Scalar> query, std::size_t k, Admit&& admit) {
  QueryResult out;
  KnnHeap heap(k);
  const std::size_t d = data.dims();
  const std::size_t chunk = static_cast<std::size_t>(block.threads());
  std::vector<Scalar> dists(chunk);
  for (std::size_t base = 0; base < data.size(); base += chunk) {
    const std::size_t count = std::min(chunk, data.size() - base);
    block.load_global(count * d * sizeof(Scalar), simt::Access::kCoalesced);
    block.par_for(count, static_cast<std::uint64_t>(d) * 3 + 1,
                  [&](std::size_t i) { dists[i] = distance(query, data[base + i]); });
    out.stats.points_examined += count;
    for (std::size_t i = 0; i < count; ++i) {
      const PointId id = static_cast<PointId>(base + i);
      if (admit(id) && heap.offer(dists[i], id)) ++out.stats.heap_inserts;
    }
  }
  out.neighbors = heap.sorted();
  return out;
}

}  // namespace psb::knn
