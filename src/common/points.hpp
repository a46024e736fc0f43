// PointSet: the canonical dataset container — n points × d dims, row-major
// float32. Every index structure in the repository is built over a PointSet
// and stores PointIds back into it, so kNN results from different indexes are
// directly comparable.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psb {

class PointSet {
 public:
  PointSet() = default;

  /// Create an empty set of `dims`-dimensional points.
  explicit PointSet(std::size_t dims) : dims_(dims) { PSB_REQUIRE(dims > 0, "dims must be > 0"); }

  /// Create from flat row-major data (data.size() must be a multiple of dims).
  PointSet(std::size_t dims, std::vector<Scalar> data);

  /// Number of points.
  std::size_t size() const noexcept { return dims_ == 0 ? 0 : data_.size() / dims_; }
  bool empty() const noexcept { return data_.empty(); }

  /// Dimensionality (0 only for a default-constructed set).
  std::size_t dims() const noexcept { return dims_; }

  /// Read-only view of point i.
  std::span<const Scalar> operator[](std::size_t i) const noexcept {
    return {data_.data() + i * dims_, dims_};
  }

  /// Mutable view of point i.
  std::span<Scalar> mutable_point(std::size_t i) noexcept {
    return {data_.data() + i * dims_, dims_};
  }

  /// Append one point (p.size() must equal dims()). Returns its PointId.
  PointId append(std::span<const Scalar> p);

  /// Reserve capacity for n points.
  void reserve(std::size_t n) { data_.reserve(n * dims_); }

  /// Flat row-major storage.
  std::span<const Scalar> raw() const noexcept { return data_; }

  /// Bytes occupied by the coordinate data (the brute-force scan footprint).
  std::size_t byte_size() const noexcept { return data_.size() * sizeof(Scalar); }

  /// Gather a subset by ids into a new PointSet (ids order preserved).
  PointSet subset(std::span<const PointId> ids) const;

 private:
  std::size_t dims_ = 0;
  std::vector<Scalar> data_;
};

/// Describe the first point of `points` with a NaN or infinite coordinate,
/// as "<what> <index> coordinate <t> is non-finite (<value>)"; empty when
/// every coordinate is finite.
std::string describe_non_finite(const PointSet& points, const char* what);

/// Describe the first NaN or infinite coordinate of one point, as
/// "<what> coordinate <t> is non-finite (<value>)"; empty when all are finite.
std::string describe_non_finite(std::span<const Scalar> point, const char* what);

/// Throw InvalidArgument with describe_non_finite(points, what) unless it is
/// empty. The tree builders and the query entry points call it: the
/// traversals assume finite distances. (The loaders reject the same input as
/// CorruptIndex.)
void require_finite(const PointSet& points, const char* what);

/// Throw InvalidArgument with describe_non_finite(point, what) unless it is
/// empty.
void require_finite(std::span<const Scalar> point, const char* what);

}  // namespace psb
