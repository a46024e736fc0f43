// Block: a simulated cooperative thread array (CUDA thread block) executing
// data-parallel steps in lock-step warps.
//
// Algorithms run *functionally* through Block — par_for really invokes the
// lane body, reductions really compute their result — while every step is
// charged to a Metrics instance at warp-instruction granularity. This is the
// unit the paper's data-parallel SS-tree traversal runs on: one block per
// query, `degree` lanes comparing the query against all child bounding
// spheres of a node simultaneously (Fig. 1a).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"

namespace psb::simt {

class Block {
 public:
  /// A block of `threads` lanes on `spec`, charging work to `metrics`.
  /// `threads` is rounded up to a whole number of warps.
  Block(const DeviceSpec& spec, int threads, Metrics* metrics);

  int threads() const noexcept { return threads_; }
  const DeviceSpec& device() const noexcept { return spec_; }
  Metrics& metrics() noexcept { return *metrics_; }

  /// Execute fn(lane_task) for lane_task in [0, n), grid-stride style:
  /// tasks beyond the block width are folded back onto the lanes in
  /// additional lock-step rounds. Each round charges `ops_per_task`
  /// warp-instructions with the true active mask (divergence at the ragged
  /// tail is accounted, matching SIMD-efficiency loss when n % warp != 0).
  template <typename F>
  void par_for(std::size_t n, std::uint64_t ops_per_task, F&& fn) {
    for (std::size_t base = 0; base < n; base += static_cast<std::size_t>(threads_)) {
      const std::size_t active = std::min<std::size_t>(threads_, n - base);
      charge_step(active, ops_per_task);
      for (std::size_t lane = 0; lane < active; ++lane) fn(base + lane);
    }
  }

  /// Record a global-memory load of `bytes` with the given pattern.
  void load_global(std::size_t bytes, Access pattern);

  /// Record that this block's kernel reserves `bytes` of shared memory
  /// (high-water mark; determines occupancy in the cost model).
  void use_shared(std::size_t bytes);

  /// Charge warp-serialized scalar operations (one active lane per step).
  void serialize(std::uint64_t ops);

  // ---- cooperative reductions over a lane-resident value array ----
  // Each really computes its result; cost is the canonical log2 shuffle tree
  // (active lanes halve per step), so reductions lower warp efficiency just
  // as they do on hardware.

  Scalar reduce_min(std::span<const Scalar> values);
  Scalar reduce_max(std::span<const Scalar> values);
  std::size_t reduce_argmin(std::span<const Scalar> values);
  std::size_t reduce_argmax(std::span<const Scalar> values);

  /// k-th smallest value (k is 1-based and clamped to values.size()).
  /// Cost model: block-wide bitonic sort, the standard GPU k-selection for
  /// the small arrays at hand (the paper's parReduceFindKthMinMaxDist).
  Scalar reduce_kth_min(std::span<const Scalar> values, std::size_t k);

  /// Charge a block-wide bitonic sort of `n` lane values without computing
  /// anything: the cost reduce_kth_min charges, for callers that order the
  /// values on the host or know the selection cannot change their result.
  void charge_bitonic_sort(std::size_t n);

 private:
  void charge_step(std::size_t active_lanes, std::uint64_t ops);
  void charge_reduction_tree(std::size_t n);

  DeviceSpec spec_;
  int threads_;
  Metrics* metrics_;
  std::vector<Scalar> select_scratch_;  // reduce_kth_min's working copy
};

}  // namespace psb::simt
