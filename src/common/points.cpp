#include "common/points.hpp"

#include <cmath>
#include <sstream>
#include <utility>

namespace psb {

PointSet::PointSet(std::size_t dims, std::vector<Scalar> data) : dims_(dims), data_(std::move(data)) {
  PSB_REQUIRE(dims > 0, "dims must be > 0");
  PSB_REQUIRE(data_.size() % dims == 0, "flat data size must be a multiple of dims");
}

PointId PointSet::append(std::span<const Scalar> p) {
  PSB_REQUIRE(p.size() == dims_, "point dimensionality mismatch");
  const PointId id = static_cast<PointId>(size());
  data_.insert(data_.end(), p.begin(), p.end());
  return id;
}

PointSet PointSet::subset(std::span<const PointId> ids) const {
  PointSet out(dims_);
  out.reserve(ids.size());
  for (const PointId id : ids) {
    PSB_REQUIRE(id < size(), "subset id out of range");
    out.append((*this)[id]);
  }
  return out;
}

std::string describe_non_finite(const PointSet& points, const char* what) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::span<const Scalar> p = points[i];
    for (std::size_t t = 0; t < p.size(); ++t) {
      if (std::isfinite(p[t])) continue;
      std::ostringstream os;
      os << what << ' ' << i << " coordinate " << t << " is non-finite (" << p[t] << ')';
      return os.str();
    }
  }
  return {};
}

std::string describe_non_finite(std::span<const Scalar> point, const char* what) {
  for (std::size_t t = 0; t < point.size(); ++t) {
    if (std::isfinite(point[t])) continue;
    std::ostringstream os;
    os << what << " coordinate " << t << " is non-finite (" << point[t] << ')';
    return os.str();
  }
  return {};
}

void require_finite(const PointSet& points, const char* what) {
  std::string err = describe_non_finite(points, what);
  if (!err.empty()) throw InvalidArgument(std::move(err));
}

void require_finite(std::span<const Scalar> point, const char* what) {
  std::string err = describe_non_finite(point, what);
  if (!err.empty()) throw InvalidArgument(std::move(err));
}

}  // namespace psb
