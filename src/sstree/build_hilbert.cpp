#include <chrono>

#include "hilbert/hilbert.hpp"
#include "simt/sort.hpp"
#include "sstree/builders.hpp"
#include "sstree/detail/bottom_up.hpp"

namespace psb::sstree {

BuildOutput build_hilbert(const PointSet& points, std::size_t degree,
                          const HilbertBuildOptions& opts) {
  PSB_REQUIRE(!points.empty(), "cannot build over an empty point set");
  require_finite(points, "point");
  const auto start = std::chrono::steady_clock::now();

  BuildOutput out{SSTree(&points, degree, opts.bounds), {}, 0};
  simt::DeviceSpec spec;
  simt::Block block(spec, static_cast<int>(std::min<std::size_t>(degree, 1024)), &out.metrics);

  // 1) Hilbert keys for every point (task-parallel on the device: one lane
  //    per point; charged as a streaming pass over the coordinates).
  hilbert::Encoder enc(points.dims(), opts.bits_per_dim);
  const std::vector<std::uint64_t> keys = enc.encode_all(points);
  block.par_for(points.size(),
                static_cast<std::uint64_t>(points.dims()) * opts.bits_per_dim / 4 + 8,
                [](std::size_t) {});
  block.load_global(points.byte_size(), simt::Access::kCoalesced);

  // 2) Parallel radix sort by key (the paper uses Thrust; traffic charged).
  const std::vector<PointId> order =
      simt::radix_sort_order(keys, enc.words_per_key(), &out.metrics);

  // 3) Pack leaves left-to-right at 100 % utilization, then internal levels.
  const std::vector<NodeId> leaves = detail::make_leaves(out.tree, order, block);
  detail::pack_internal_levels(out.tree, leaves, block);
  out.tree.finalize();

  out.host_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace psb::sstree
