// Geometry kernels: Euclidean distances, bounding spheres and rectangles with
// the MINDIST / MAXDIST bounds used by every traversal algorithm.
//
// The paper's key geometric observation (§II-C): for a bounding *sphere*,
//   MINDIST(q, S) = max(0, |q - c| - r)
//   MAXDIST(q, S) = |q - c| + r
// — one centroid distance plus an add/subtract, versus per-facet work for
// rectangles. Both shapes are provided; SS-trees use spheres, SR-trees
// intersect a sphere with a rectangle.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psb {

/// The next float above x: std::nextafter(x, +inf) for every non-NaN x, as
/// one bit increment (-0 and +0 step to the smallest denormal, negatives step
/// toward zero, +inf stays). NaN is returned unchanged.
constexpr Scalar next_up(Scalar x) noexcept {
  if (x != x || x == std::numeric_limits<Scalar>::infinity()) return x;
  if (x == 0) return std::numeric_limits<Scalar>::denorm_min();
  const auto bits = std::bit_cast<std::uint32_t>(x);
  return std::bit_cast<Scalar>(x > 0 ? bits + 1 : bits - 1);
}

/// Squared Euclidean distance between two equal-length vectors.
Scalar distance_sq(std::span<const Scalar> a, std::span<const Scalar> b) noexcept;

/// Euclidean distance between two equal-length vectors.
Scalar distance(std::span<const Scalar> a, std::span<const Scalar> b) noexcept;

/// A d-dimensional bounding sphere (center owned inline).
struct Sphere {
  std::vector<Scalar> center;
  Scalar radius = 0;

  std::size_t dims() const noexcept { return center.size(); }

  /// True if point p lies inside or on the sphere (with tolerance eps·radius).
  bool contains(std::span<const Scalar> p, Scalar eps = 1e-4F) const noexcept;

  /// True if `other` is entirely inside this sphere (with tolerance).
  bool contains(const Sphere& other, Scalar eps = 1e-4F) const noexcept;
};

/// MINDIST from query q to sphere s: 0 if q inside, else |q-c| - r.
Scalar mindist(std::span<const Scalar> q, const Sphere& s) noexcept;

/// MAXDIST from query q to sphere s: |q-c| + r (all points of s within this).
Scalar maxdist(std::span<const Scalar> q, const Sphere& s) noexcept;

/// A d-dimensional axis-aligned bounding rectangle.
struct Rect {
  std::vector<Scalar> lo;
  std::vector<Scalar> hi;

  std::size_t dims() const noexcept { return lo.size(); }

  /// Degenerate rectangle around a single point.
  static Rect around(std::span<const Scalar> p);

  /// Smallest rectangle covering both inputs.
  static Rect merge(const Rect& a, const Rect& b);

  /// Grow in place to cover point p.
  void expand(std::span<const Scalar> p);

  /// True if p is inside (closed) this rectangle.
  bool contains(std::span<const Scalar> p) const noexcept;

  /// True if `other` is entirely inside this rectangle.
  bool contains(const Rect& other) const noexcept;

  /// Center point.
  std::vector<Scalar> center() const;
};

/// MINDIST from query q to rectangle r (Roussopoulos et al.).
Scalar mindist(std::span<const Scalar> q, const Rect& r) noexcept;

/// MAXDIST from q to r: distance to the farthest corner (upper bound on every
/// point in r). Note this is the loose bound, not MINMAXDIST.
Scalar maxdist(std::span<const Scalar> q, const Rect& r) noexcept;

/// Smallest sphere through two points (midpoint center, half-distance radius).
Sphere sphere_from_diameter(std::span<const Scalar> a, std::span<const Scalar> b);

/// Bounded max-heap of the k best (smallest-distance) candidates seen so far.
/// This is the CPU mirror of the k pruning distances the paper keeps in GPU
/// shared memory; `bound()` is the current pruning distance.
///
/// The retained set is exactly the k smallest (dist, id) pairs offered, in
/// any arrival order. Each candidate is packed into one 64-bit key: the high
/// word is the float's bits mapped to an unsigned order (sign bit set for
/// non-negatives, all bits flipped for negatives; -0 is folded into +0
/// first), the low word is the id. For non-NaN distances, unsigned key order
/// is exactly the lexicographic (dist, id) order, ties included, so offer()
/// is one integer compare against the top and the replace-top sift-down in
/// admit() picks the larger child without a branch. A NaN distance has no
/// place in that order; the builders and engines reject non-finite input.
///
/// Callers holding a squared distance can reject before the square root: for
/// a full list with a finite top, U = next_up(top.dist) squared is exact in
/// double (a float has 24 significant bits), sqrt is correctly rounded and
/// float rounding is monotone, so acc >= U*U gives float(sqrt(acc)) >= U >
/// top.dist — a candidate offer() would reject. SharedKnnList::scan_leaf
/// relies on this.
class KnnHeap {
 public:
  explicit KnnHeap(std::size_t k);

  std::size_t k() const noexcept { return k_; }
  std::size_t size() const noexcept { return full() ? k_ : keys_.size(); }
  bool full() const noexcept { return keys_.size() > k_; }

  /// Current pruning distance: k-th best distance, or +inf until full.
  Scalar bound() const noexcept { return full() ? key_dist(keys_.front()) : kInfinity; }

  /// Offer a candidate; returns true if it entered the heap.
  bool offer(Scalar dist, PointId id) {
    const std::uint64_t key = make_key(dist, id);
    if (full() && key >= keys_.front()) return false;
    admit(key);
    return true;
  }

  /// Tighten the pruning bound without adding a point (MINMAXDIST guarantee
  /// that *some* point exists within `dist`). Only lowers an infinite bound
  /// conceptually; tracked separately so results stay exact.
  void tighten(Scalar dist) noexcept { external_bound_ = std::min(external_bound_, dist); }

  /// Effective pruning distance: min(heap bound, external MINMAXDIST bound),
  /// inflated by one ULP. Pruning tests are strict (`mindist < threshold`),
  /// and a subtree whose MINDIST exactly ties the k-th distance can still
  /// hold an equidistant point with a smaller id — under the lexicographic
  /// (dist, id) contract that candidate must be refined, not pruned. The raw
  /// k-th distance is still available via bound().
  Scalar pruning_distance() const noexcept {
    return next_up(std::min(bound(), external_bound_));
  }

  /// Extract results sorted ascending by distance (ties broken by id).
  struct Entry {
    Scalar dist;
    PointId id;
  };
  std::vector<Entry> sorted() const;

 private:
  static std::uint64_t make_key(Scalar dist, PointId id) noexcept {
    const auto bits = std::bit_cast<std::uint32_t>(dist + Scalar{0});  // -0 -> +0
    const std::uint32_t flip = static_cast<std::uint32_t>(-(bits >> 31)) | 0x80000000U;
    return (static_cast<std::uint64_t>(bits ^ flip) << 32) | id;
  }
  static Scalar key_dist(std::uint64_t key) noexcept {
    const auto hi = static_cast<std::uint32_t>(key >> 32);
    const std::uint32_t flip = ((hi >> 31) - 1U) | 0x80000000U;
    return std::bit_cast<Scalar>(hi ^ flip);
  }

  /// Insert a candidate offer() accepted: push while filling, else replace
  /// the top and sift it down.
  void admit(std::uint64_t key);

  std::size_t k_;
  Scalar external_bound_ = kInfinity;
  // Max-heap over keys_[0, size()). Once full, keys_[k_] is a zero sentinel
  // no key exceeds, so the sift-down reads a right child without a bounds
  // branch.
  std::vector<std::uint64_t> keys_;
};

}  // namespace psb
