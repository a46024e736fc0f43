#include "common/geometry.hpp"

#include <algorithm>
#include <cmath>

namespace psb {

Scalar distance_sq(std::span<const Scalar> a, std::span<const Scalar> b) noexcept {
  // Accumulate in double: at 64 dims with large coordinates, float
  // accumulation loses enough precision to flip kNN ties between algorithms.
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return static_cast<Scalar>(acc);
}

Scalar distance(std::span<const Scalar> a, std::span<const Scalar> b) noexcept {
  // Accumulate and take the square root in double, rounding to float exactly
  // once — the same arithmetic every traversal kernel uses, so distances
  // computed through different code paths agree to the last ULP (boundary
  // comparisons in radius search depend on this).
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return static_cast<Scalar>(std::sqrt(acc));
}

bool Sphere::contains(std::span<const Scalar> p, Scalar eps) const noexcept {
  return distance(center, p) <= radius * (1 + eps) + eps;
}

bool Sphere::contains(const Sphere& other, Scalar eps) const noexcept {
  return distance(center, other.center) + other.radius <= radius * (1 + eps) + eps;
}

Scalar mindist(std::span<const Scalar> q, const Sphere& s) noexcept {
  return std::max(Scalar{0}, distance(q, s.center) - s.radius);
}

Scalar maxdist(std::span<const Scalar> q, const Sphere& s) noexcept {
  return distance(q, s.center) + s.radius;
}

Rect Rect::around(std::span<const Scalar> p) {
  Rect r;
  r.lo.assign(p.begin(), p.end());
  r.hi.assign(p.begin(), p.end());
  return r;
}

Rect Rect::merge(const Rect& a, const Rect& b) {
  PSB_REQUIRE(a.dims() == b.dims(), "rect dims mismatch");
  Rect r = a;
  for (std::size_t i = 0; i < r.dims(); ++i) {
    r.lo[i] = std::min(r.lo[i], b.lo[i]);
    r.hi[i] = std::max(r.hi[i], b.hi[i]);
  }
  return r;
}

void Rect::expand(std::span<const Scalar> p) {
  PSB_REQUIRE(p.size() == dims(), "point dims mismatch");
  for (std::size_t i = 0; i < dims(); ++i) {
    lo[i] = std::min(lo[i], p[i]);
    hi[i] = std::max(hi[i], p[i]);
  }
}

bool Rect::contains(std::span<const Scalar> p) const noexcept {
  for (std::size_t i = 0; i < dims(); ++i) {
    if (p[i] < lo[i] || p[i] > hi[i]) return false;
  }
  return true;
}

bool Rect::contains(const Rect& other) const noexcept {
  for (std::size_t i = 0; i < dims(); ++i) {
    if (other.lo[i] < lo[i] || other.hi[i] > hi[i]) return false;
  }
  return true;
}

std::vector<Scalar> Rect::center() const {
  std::vector<Scalar> c(dims());
  for (std::size_t i = 0; i < dims(); ++i) c[i] = (lo[i] + hi[i]) / 2;
  return c;
}

Scalar mindist(std::span<const Scalar> q, const Rect& r) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < r.dims(); ++i) {
    double d = 0.0;
    if (q[i] < r.lo[i]) {
      d = static_cast<double>(r.lo[i]) - q[i];
    } else if (q[i] > r.hi[i]) {
      d = static_cast<double>(q[i]) - r.hi[i];
    }
    acc += d * d;
  }
  return static_cast<Scalar>(std::sqrt(acc));
}

Scalar maxdist(std::span<const Scalar> q, const Rect& r) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < r.dims(); ++i) {
    const double dlo = std::abs(static_cast<double>(q[i]) - r.lo[i]);
    const double dhi = std::abs(static_cast<double>(q[i]) - r.hi[i]);
    const double d = std::max(dlo, dhi);
    acc += d * d;
  }
  return static_cast<Scalar>(std::sqrt(acc));
}

Sphere sphere_from_diameter(std::span<const Scalar> a, std::span<const Scalar> b) {
  PSB_REQUIRE(a.size() == b.size(), "point dims mismatch");
  Sphere s;
  s.center.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) s.center[i] = (a[i] + b[i]) / 2;
  s.radius = distance(a, b) / 2;
  return s;
}

KnnHeap::KnnHeap(std::size_t k) : k_(k) {
  PSB_REQUIRE(k > 0, "k must be > 0");
  keys_.reserve(k + 1);
}

void KnnHeap::admit(std::uint64_t key) {
  if (!full()) {
    keys_.push_back(key);
    std::push_heap(keys_.begin(), keys_.end());
    if (keys_.size() == k_) keys_.push_back(0);  // the sentinel
    return;
  }
  // Replace-top: the evicted top's slot sifts down along the larger child
  // until `key` dominates both children — one O(log k) pass per accepted
  // candidate. A missing right child reads the zero sentinel and loses.
  std::size_t hole = 0;
  for (std::size_t child = 1; child < k_; child = 2 * hole + 1) {
    child += static_cast<std::size_t>(keys_[child] < keys_[child + 1]);
    if (key >= keys_[child]) break;
    keys_[hole] = keys_[child];
    hole = child;
  }
  keys_[hole] = key;
}

std::vector<KnnHeap::Entry> KnnHeap::sorted() const {
  std::vector<std::uint64_t> keys(keys_.begin(),
                                  keys_.begin() + static_cast<std::ptrdiff_t>(size()));
  std::sort(keys.begin(), keys.end());
  std::vector<Entry> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i] = {key_dist(keys[i]), static_cast<PointId>(keys[i])};
  }
  return out;
}

}  // namespace psb
