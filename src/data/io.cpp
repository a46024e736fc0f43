#include "data/io.hpp"

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/envelope.hpp"
#include "common/error.hpp"

namespace psb::data {
namespace {

constexpr std::uint32_t kDatasetKind = 0x50534231;  // "PSB1" (envelope payload tag)

}  // namespace

namespace {

std::string dataset_payload(const PointSet& points) {
  ByteWriter w;
  w.put(static_cast<std::uint32_t>(points.dims()));
  w.put(static_cast<std::uint64_t>(points.size()));
  w.put_span(points.raw());
  return w.bytes();
}

}  // namespace

std::string serialize_binary(const PointSet& points) {
  return wrap_envelope(kDatasetKind, dataset_payload(points));
}

void write_binary(const PointSet& points, const std::string& path) {
  write_envelope(path, kDatasetKind, dataset_payload(points));
}

PointSet parse_binary(std::string_view file_bytes, const std::string& label) {
  const std::string_view payload = unwrap_envelope(file_bytes, kDatasetKind, label);
  ByteReader r(payload, label);
  const auto dims = r.get<std::uint32_t>();
  const auto count = r.get<std::uint64_t>();
  if (dims == 0) throw CorruptIndex(label + ": corrupt dataset header (dims == 0)");
  std::vector<Scalar> raw = r.get_vec<Scalar>();
  r.require_done();
  if (raw.size() != static_cast<std::size_t>(count) * dims) {
    throw CorruptIndex(label + ": coordinate count disagrees with the header");
  }
  PointSet points(dims, std::move(raw));
  // The builders and engines reject non-finite coordinates; a stored one
  // can only come from a damaged or foreign file.
  if (std::string err = describe_non_finite(points, "point"); !err.empty()) {
    throw CorruptIndex(label + ": " + err);
  }
  return points;
}

PointSet read_binary(const std::string& path) {
  return parse_binary(read_file_image(path), path);
}

void write_csv(const PointSet& points, const std::string& path, std::size_t max_rows) {
  std::ofstream out(path);
  if (!out.good()) throw IoError("cannot open for writing: " + path);
  const std::size_t rows = max_rows == 0 ? points.size() : std::min(max_rows, points.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto p = points[i];
    for (std::size_t t = 0; t < p.size(); ++t) {
      if (t != 0) out << ',';
      out << p[t];
    }
    out << '\n';
  }
  if (!out.good()) throw IoError("short write: " + path);
}

}  // namespace psb::data
