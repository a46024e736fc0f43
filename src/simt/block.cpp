#include "simt/block.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace psb::simt {

Block::Block(const DeviceSpec& spec, int threads, Metrics* metrics)
    : spec_(spec), threads_(threads), metrics_(metrics) {
  PSB_REQUIRE(threads > 0, "block must have at least one thread");
  PSB_REQUIRE(threads <= spec.max_threads_per_block, "block exceeds device thread limit");
  PSB_REQUIRE(metrics != nullptr, "metrics sink required");
  // Round up to whole warps: hardware allocates warp granularity anyway.
  const int w = spec.warp_size;
  threads_ = ((threads + w - 1) / w) * w;
}

void Block::charge_step(std::size_t active_lanes, std::uint64_t ops) {
  if (active_lanes == 0 || ops == 0) return;
  const std::size_t w = static_cast<std::size_t>(spec_.warp_size);
  // Warps with at least one active lane each issue `ops` instructions.
  const std::uint64_t live_warps = (active_lanes + w - 1) / w;
  metrics_->warp_instructions += live_warps * ops;
  metrics_->active_lane_slots += static_cast<std::uint64_t>(active_lanes) * ops;
  // A ragged last warp (active % warp != 0) executes every one of its `ops`
  // instructions with idle lanes — each is a divergence event.
  if (active_lanes % w != 0) metrics_->divergent_steps += ops;
}

void Block::load_global(std::size_t bytes, Access pattern) {
  switch (pattern) {
    case Access::kCoalesced:
      metrics_->bytes_coalesced += bytes;
      break;
    case Access::kRandom:
      metrics_->bytes_random += bytes;
      metrics_->fetches_random += 1;
      break;
    case Access::kCached:
      metrics_->bytes_cached += bytes;
      metrics_->fetches_cached += 1;
      break;
  }
  metrics_->node_fetches += 1;
}

void Block::use_shared(std::size_t bytes) {
  metrics_->shared_bytes = std::max(metrics_->shared_bytes, bytes);
}

void Block::serialize(std::uint64_t ops) {
  metrics_->serial_ops += ops;
  metrics_->warp_instructions += ops;
  metrics_->active_lane_slots += ops;  // one active lane per serialized step
}

void Block::charge_reduction_tree(std::size_t n) {
  // Shuffle-tree reduction: widths n/2, n/4, ..., 1 (over next pow2 of n).
  std::size_t width = std::bit_ceil(std::max<std::size_t>(n, 1)) / 2;
  while (width >= 1) {
    charge_step(width, 1);
    if (width == 1) break;
    width /= 2;
  }
}

Scalar Block::reduce_min(std::span<const Scalar> values) {
  PSB_REQUIRE(!values.empty(), "reduce over empty range");
  charge_reduction_tree(values.size());
  return *std::min_element(values.begin(), values.end());
}

Scalar Block::reduce_max(std::span<const Scalar> values) {
  PSB_REQUIRE(!values.empty(), "reduce over empty range");
  charge_reduction_tree(values.size());
  return *std::max_element(values.begin(), values.end());
}

std::size_t Block::reduce_argmin(std::span<const Scalar> values) {
  PSB_REQUIRE(!values.empty(), "reduce over empty range");
  charge_reduction_tree(values.size());
  return static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
}

std::size_t Block::reduce_argmax(std::span<const Scalar> values) {
  PSB_REQUIRE(!values.empty(), "reduce over empty range");
  charge_reduction_tree(values.size());
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

Scalar Block::reduce_kth_min(std::span<const Scalar> values, std::size_t k) {
  PSB_REQUIRE(!values.empty(), "reduce over empty range");
  k = std::clamp<std::size_t>(k, 1, values.size());
  charge_bitonic_sort(values.size());
  // The working copy reuses the block's buffer: no allocation once it has
  // grown to the widest node.
  select_scratch_.assign(values.begin(), values.end());
  const auto kth = select_scratch_.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(select_scratch_.begin(), kth, select_scratch_.end());
  return *kth;
}

void Block::charge_bitonic_sort(std::size_t n) {
  // Bitonic sort cost: log2(n) * (log2(n)+1) / 2 full-width compare-exchange
  // steps over the next power of two.
  const std::size_t width = std::bit_ceil(n);
  const auto stages = static_cast<std::uint64_t>(std::bit_width(width) - 1);
  charge_step(width / 2, stages * (stages + 1) / 2);
}

}  // namespace psb::simt
