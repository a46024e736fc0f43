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
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psb {

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
/// any arrival order. Most offers to a full list lose, so offer() tests the
/// candidate against the top inline and only a winner reaches the
/// out-of-line replace-top sift-down. Callers holding a squared distance can
/// reject before the square root: for a full list with a finite top,
/// U = nextafter(top.dist, +inf) squared is exact in double (a float has 24
/// significant bits), sqrt is correctly rounded and float rounding is
/// monotone, so acc >= U*U gives float(sqrt(acc)) >= U > top.dist — a
/// candidate offer() would reject. SharedKnnList::scan_leaf relies on this.
class KnnHeap {
 public:
  explicit KnnHeap(std::size_t k);

  std::size_t k() const noexcept { return k_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool full() const noexcept { return entries_.size() == k_; }

  /// Current pruning distance: k-th best distance, or +inf until full.
  Scalar bound() const noexcept { return full() ? entries_.front().dist : kInfinity; }

  /// Offer a candidate; returns true if it entered the heap.
  bool offer(Scalar dist, PointId id) {
    if (full()) {
      const Entry& top = entries_.front();
      if (dist > top.dist || (dist == top.dist && id >= top.id)) return false;
    }
    admit(dist, id);
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
    return std::nextafter(std::min(bound(), external_bound_), kInfinity);
  }

  /// Extract results sorted ascending by distance (ties broken by id).
  struct Entry {
    Scalar dist;
    PointId id;
  };
  std::vector<Entry> sorted() const;

 private:
  /// Insert a candidate offer() accepted: push while filling, else replace
  /// the top and sift it down.
  void admit(Scalar dist, PointId id);

  std::size_t k_;
  Scalar external_bound_ = kInfinity;
  std::vector<Entry> entries_;  // max-heap on dist
};

}  // namespace psb
