#include "mbs/parallel_ritter.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "mbs/ritter.hpp"

namespace psb::mbs {
namespace {

/// Inflated distance from an arbitrary center to child c's far surface.
Scalar far_distance(std::span<const Scalar> from, const Sphere& c) {
  return distance(from, c.center) + c.radius;
}

}  // namespace

Sphere parallel_ritter(simt::Block& block, std::span<const Sphere> children) {
  PSB_REQUIRE(!children.empty(), "parallel_ritter over empty child set");
  const std::size_t n = children.size();
  const std::size_t dims = children[0].dims();
  const std::uint64_t dist_ops = static_cast<std::uint64_t>(dims) * 3 + 2;

  // Children staged in shared memory for the iterative passes (SoA: centers
  // plus radii), as the construction kernel would do.
  block.use_shared(n * (dims + 1) * sizeof(Scalar));
  block.load_global(n * (dims + 1) * sizeof(Scalar), simt::Access::kCoalesced);

  std::vector<Scalar> distances(n);

  // Alg. 2 lines 2–6: distances from child 0, argmax -> pIdx.
  block.par_for(n, dist_ops, [&](std::size_t t) {
    distances[t] = far_distance(children[0].center, children[t]);
  });
  const std::size_t p_idx = block.reduce_argmax(distances);

  // Lines 7–11: distances from pIdx, argmax -> pIdx2.
  block.par_for(n, dist_ops, [&](std::size_t t) {
    distances[t] = far_distance(children[p_idx].center, children[t]);
  });
  const std::size_t p_idx2 = block.reduce_argmax(distances);

  // Lines 12–13: initial sphere spanning the farthest pair (inflated by the
  // children's own radii so both spheres are covered, not just centers).
  Sphere s;
  s.center.resize(dims);
  const Sphere& a = children[p_idx];
  const Sphere& b = children[p_idx2];
  const Scalar cc = distance(a.center, b.center);
  s.radius = (cc + a.radius + b.radius) / 2;
  if (cc > 0) {
    const Scalar t = (s.radius - a.radius) / cc;
    for (std::size_t i = 0; i < dims; ++i) {
      s.center[i] = a.center[i] + t * (b.center[i] - a.center[i]);
    }
  } else {
    s.center = a.center;
    s.radius = std::max(a.radius, b.radius);
  }

  // Lines 14–27: grow toward the farthest uncovered child until fixpoint.
  const Scalar slack = 1 + 1e-6F;
  bool updated = true;
  while (updated) {
    updated = false;
    block.par_for(n, dist_ops, [&](std::size_t t2) {
      distances[t2] = far_distance(s.center, children[t2]);
    });
    const std::size_t far = block.reduce_argmax(distances);
    const Scalar d = distances[far];
    if (d > s.radius * slack) {
      updated = true;
      const Sphere& c = children[far];
      const Scalar dc = distance(s.center, c.center);
      const Scalar new_r = (s.radius + d) / 2;
      const Scalar shift = d - new_r;
      if (dc > 0) {
        // Unit vector toward the far child's center reaches its far surface.
        const Scalar f = shift / dc;
        for (std::size_t i = 0; i < dims; ++i) {
          s.center[i] += f * (c.center[i] - s.center[i]);
        }
        s.radius = new_r;
      } else {
        s.radius = d;  // concentric child: no direction to shift along
      }
      block.serialize(dims + 2);  // one lane updates the center/radius
    }
  }
  // Cover snap (mirrors ritter_spheres): the grow loop's 1e-6 slack leaves
  // children up to radius*1e-6 outside, which breaks the MINDIST lower-bound
  // contract every traversal prunes with. One more distance pass + argmax
  // snaps the radius to the exact covering value; two ULPs up absorb the
  // double->float cast and the children's own per-level radius rounding.
  block.par_for(n, dist_ops, [&](std::size_t t2) {
    distances[t2] = far_distance(s.center, children[t2]);
  });
  const std::size_t far_child = block.reduce_argmax(distances);
  double cover = static_cast<double>(distance(s.center, children[far_child].center)) +
                 static_cast<double>(children[far_child].radius);
  Scalar snapped = static_cast<Scalar>(cover);
  snapped = next_up(next_up(snapped));
  s.radius = std::max(s.radius, snapped);
  return s;
}

Sphere parallel_ritter_points(simt::Block& block, const PointSet& points,
                              std::span<const PointId> ids) {
  PSB_REQUIRE(!ids.empty(), "parallel_ritter over empty id set");
  std::vector<Sphere> children;
  children.reserve(ids.size());
  for (const PointId id : ids) {
    Sphere s;
    const auto p = points[id];
    s.center.assign(p.begin(), p.end());
    s.radius = 0;
    children.push_back(std::move(s));
  }
  return parallel_ritter(block, children);
}

}  // namespace psb::mbs
