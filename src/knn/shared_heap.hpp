// SharedKnnList: the k-nearest-neighbor candidate list a query block keeps in
// GPU shared memory (paper §III: "the shared memory is better reserved for
// application specific purpose, such as, the k-nearest points").
//
// Its shared-memory footprint is charged to the block and therefore drives
// occupancy in the cost model — the mechanism behind Fig. 8's super-linear
// growth in k. Insertions into the list are warp-serialized (a block-wide
// shared structure needs a critical section), charged via Block::serialize.
//
// The optional spill mode implements the paper's §V-E sketch: keep only the
// largest few pruning distances in shared memory and the rest in global
// memory, trading occupancy for extra global traffic on insert.
//
// scan_leaf is the traversals' leaf kernel: distance evaluation and k-list
// update fused, with the modeled charges of the two separate steps. On the
// host it skips the square root and the offer for every point whose squared
// distance already loses to the full list's top (the exact reject argued at
// KnnHeap: acc >= cut = next_up(top)^2), so the answer and every counter stay
// what they were.
//
// Once the list is full it also skips the double accumulator of most points.
// A 64-point chunk is first accumulated in float — the query and the
// coordinates are floats, so each term fl(q - x)^2 carries three roundings
// and the d-term sum d - 1 more — and only points whose float sum is below
// T = next_up(float(cut * (1 + gamma_{d+2}))), gamma_n = n*u / (1 - n*u),
// u = 2^-24, are recomputed exactly (same add order) and offered. A point
// with float sum >= T is one the exact reject would skip:
//   * without overflow or underflow, float sum <= (1 + gamma_{d+2}) * S for
//     the real sum S, and T exceeds cut * (1 + gamma_{d+2}) by at least the
//     half ULP (~2^-25 relative) that next_up adds, so S > cut * (1 + 2^-26);
//     the double accumulator is within (d + 2) * 2^-53 of S, so acc >= cut;
//   * float underflow only adds d * 2^-150 in absolute terms, a relative
//     d * 2^-86 of a cut >= 2^-64, which the half ULP covers (nu < 1/2
//     caps d); overflow to +inf needs S >= ~2^127, above any cut <= 2^100.
// Outside that float-safe range of the cut, or while the list is not full
// (cut is NaN), the chunk takes the double path. A NaN float sum fails the
// `>= T` test, so it survives and the exact path decides. The cut only falls
// within a chunk, so survivors of the chunk-start T are a superset of what
// the exact reject keeps.
#pragma once

#include <span>

#include "common/geometry.hpp"
#include "simt/block.hpp"
#include "sstree/node.hpp"

namespace psb::knn {

class SharedKnnList {
 public:
  /// `k` best candidates for one query block. `spill_to_global` keeps only
  /// the head (min(k, kSpillHead)) entries in shared memory.
  SharedKnnList(simt::Block& block, std::size_t k, bool spill_to_global = false);

  std::size_t k() const noexcept { return heap_.k(); }

  /// Current pruning distance (k-th best distance, or the external
  /// MINMAXDIST bound while the list is not yet full).
  Scalar pruning_distance() const noexcept { return heap_.pruning_distance(); }

  /// Tighten with a MINMAXDIST guarantee: at least k points exist within
  /// `bound`. Caller is responsible for the "at least k" precondition.
  /// The bound is inflated by one ULP (next_up) so that subtrees whose
  /// MINDIST ties the bound exactly (duplicate / degenerate data) are not
  /// pruned — pruning tests are strict, and a marginally larger value is
  /// still a valid k-point upper bound.
  void tighten(Scalar bound) noexcept { heap_.tighten(next_up(bound)); }

  /// Offer one batch of candidates (one leaf / one scan chunk). Distances
  /// are compared in parallel; accepted candidates are inserted serially.
  /// Returns the number of candidates that entered the list.
  std::size_t offer_batch(std::span<const Scalar> dists, std::span<const PointId> ids);

  /// Evaluate every point of `leaf` against `query` and offer them in leaf
  /// order, skipping `excluded_id` (a self-join's own query point). Charges
  /// exactly what one lane-per-point distance step followed by offer_batch
  /// over the non-excluded points charges, and keeps the same list. Returns
  /// the number of points that entered the list.
  std::size_t scan_leaf(const sstree::Node& leaf, std::span<const Scalar> query,
                        PointId excluded_id = kInvalidPoint);

  /// Sorted final answer.
  std::vector<KnnHeap::Entry> sorted() const { return heap_.sorted(); }

  /// Entries currently kept in shared memory (head in spill mode).
  static constexpr std::size_t kSpillHead = 32;

 private:
  /// Charge the merge of `inserted` accepted candidates out of a batch of
  /// `offered` into the list (nothing when none was accepted).
  void charge_merge(std::size_t inserted, std::size_t offered);

  simt::Block& block_;
  KnnHeap heap_;
  bool spill_;
};

}  // namespace psb::knn
