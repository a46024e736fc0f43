// Hilbert-range dataset partitioner for the sharded scatter-gather engine.
//
// The paper's §IV-A locality argument (Hilbert-sort points so spatially-close
// points share a leaf) applied one level up: shards own contiguous ranges of
// the dataset's Hilbert order, so each shard's SS-tree covers a compact
// region of space and its bounding sphere is a meaningful pruning surface
// for the cross-shard bound-sharing pass.
#pragma once

#include <vector>

#include "common/points.hpp"

namespace psb::shard {

/// Assignment of every dataset point to exactly one shard.
struct Partition {
  /// shards[s] = global PointIds owned by shard s, sorted ascending. Shards
  /// hold contiguous Hilbert-key ranges of near-equal population; trailing
  /// shards are empty when the dataset is smaller than the shard count.
  std::vector<std::vector<PointId>> shards;
};

/// Split `points` into `num_shards` contiguous runs of the dataset's Hilbert
/// order (16 bits per axis), sizes balanced to within one point. Within each shard the ids are
/// re-sorted ascending, so a shard's local dataset preserves the original
/// dataset order — local-id tie-breaks agree with global-id tie-breaks, and
/// with num_shards == 1 the single shard is the identity dataset (its tree is
/// bit-identical to the unsharded build). Dimensionalities beyond the curve's
/// 64-axis range fall back to splitting the id order directly, which keeps
/// every guarantee except spatial compactness.
Partition hilbert_partition(const PointSet& points, std::size_t num_shards);

}  // namespace psb::shard
