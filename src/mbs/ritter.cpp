#include "mbs/ritter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace psb::mbs {
namespace {

/// Grow sphere s (in place) so that the point at distance d from its center
/// along direction (p - c) is covered. Classic Ritter update.
void grow_to_cover(Sphere& s, std::span<const Scalar> p, Scalar d) {
  const Scalar new_r = (s.radius + d) / 2;
  const Scalar shift = d - new_r;  // = (d - r) / 2
  if (d > 0) {
    const Scalar f = shift / d;
    for (std::size_t i = 0; i < s.center.size(); ++i) {
      s.center[i] += f * (p[i] - s.center[i]);
    }
  }
  s.radius = new_r;
}

}  // namespace

Sphere ritter_points(const PointSet& points, std::span<const PointId> ids) {
  PSB_REQUIRE(!ids.empty(), "ritter over empty id set");

  // Pass 1: from an arbitrary seed, find the farthest point q; from q, the
  // farthest point r. |qr| seeds the sphere's diameter.
  const auto seed = points[ids[0]];
  PointId q = ids[0];
  Scalar best = -1;
  for (const PointId id : ids) {
    const Scalar dist = distance(seed, points[id]);
    if (dist > best) {
      best = dist;
      q = id;
    }
  }
  PointId r = q;
  best = -1;
  for (const PointId id : ids) {
    const Scalar dist = distance(points[q], points[id]);
    if (dist > best) {
      best = dist;
      r = id;
    }
  }
  Sphere s = sphere_from_diameter(points[q], points[r]);

  // Pass 2: grow over outliers until everything is covered. A single sweep
  // suffices for the classic algorithm, but each grow moves the center, so we
  // re-sweep until a fixpoint — matching Alg. 2's while(isUpdated) loop.
  bool updated = true;
  const Scalar slack = 1 + 1e-6F;
  while (updated) {
    updated = false;
    for (const PointId id : ids) {
      const Scalar dist = distance(s.center, points[id]);
      if (dist > s.radius * slack) {
        grow_to_cover(s, points[id], dist);
        updated = true;
      }
    }
  }
  // Cover snap: the grow loop tolerates points up to radius*1e-6 outside the
  // sphere, but every traversal prunes with MINDIST = |q-c| - r, which is
  // only a valid lower bound if containment holds in the same arithmetic.
  // Snapping the radius to the exact covering distance (identical
  // double-accumulate as the traversal kernels) makes |p-c| <= r bit-exact.
  Scalar cover = 0;
  for (const PointId id : ids) cover = std::max(cover, distance(s.center, points[id]));
  s.radius = std::max(s.radius, cover);
  return s;
}

Sphere ritter_points(const PointSet& points) {
  PSB_REQUIRE(!points.empty(), "ritter over empty point set");
  std::vector<PointId> ids(points.size());
  std::iota(ids.begin(), ids.end(), PointId{0});
  return ritter_points(points, ids);
}

Sphere ritter_spheres(std::span<const Sphere> children) {
  PSB_REQUIRE(!children.empty(), "ritter over empty sphere set");
  const std::size_t dims = children[0].dims();
  for (const Sphere& c : children) {
    PSB_REQUIRE(c.dims() == dims, "child sphere dims mismatch");
  }

  // Farthest-pair seeding on the inflated distance |ci - cj| + ri + rj.
  std::size_t q = 0;
  Scalar best = -1;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const Scalar dist =
        distance(children[0].center, children[i].center) + children[0].radius + children[i].radius;
    if (dist > best) {
      best = dist;
      q = i;
    }
  }
  std::size_t r = q;
  best = -1;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const Scalar dist =
        distance(children[q].center, children[i].center) + children[q].radius + children[i].radius;
    if (dist > best) {
      best = dist;
      r = i;
    }
  }

  // Initial sphere spans the two farthest child spheres: center on the line
  // between the far surface points, radius = half the inflated distance.
  Sphere s;
  s.center.resize(dims);
  const Sphere& a = children[q];
  const Sphere& b = children[r];
  const Scalar cc = distance(a.center, b.center);
  s.radius = (cc + a.radius + b.radius) / 2;
  if (cc > 0) {
    // Surface point of a away from b is at a.center - (ra/cc)(b-a); the new
    // center sits radius away from it toward b.
    const Scalar t = (s.radius - a.radius) / cc;
    for (std::size_t i = 0; i < dims; ++i) {
      s.center[i] = a.center[i] + t * (b.center[i] - a.center[i]);
    }
  } else {
    s.center = a.center;
    s.radius = std::max(a.radius, b.radius);
  }

  // Grow until every child sphere is covered.
  bool updated = true;
  const Scalar slack = 1 + 1e-6F;
  while (updated) {
    updated = false;
    for (const Sphere& c : children) {
      const Scalar dist = distance(s.center, c.center) + c.radius;
      if (dist > s.radius * slack) {
        // Treat the far surface point of c as the outlier to cover.
        const Scalar dc = distance(s.center, c.center);
        std::vector<Scalar> far_point(dims);
        if (dc > 0) {
          const Scalar f = (dc + c.radius) / dc;
          for (std::size_t i = 0; i < dims; ++i) {
            far_point[i] = s.center[i] + f * (c.center[i] - s.center[i]);
          }
        } else {
          // Concentric: grow radius only.
          s.radius = dist;
          updated = true;
          continue;
        }
        grow_to_cover(s, far_point, dist);
        updated = true;
      }
    }
  }
  // Cover snap (see ritter_points): child spheres must sit entirely inside
  // the parent under the traversal's own float arithmetic. The far distance
  // is kept in double and rounded up two ULPs to absorb the cast and the
  // per-level rounding of the child radii themselves.
  double cover = 0;
  for (const Sphere& c : children) {
    cover = std::max(cover, static_cast<double>(distance(s.center, c.center)) +
                                static_cast<double>(c.radius));
  }
  Scalar snapped = static_cast<Scalar>(cover);
  snapped = next_up(next_up(snapped));
  s.radius = std::max(s.radius, snapped);
  return s;
}

}  // namespace psb::mbs
