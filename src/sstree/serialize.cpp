#include "sstree/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/envelope.hpp"
#include "common/error.hpp"

namespace psb::sstree {
namespace {

constexpr std::uint32_t kIndexKind = 0x50534254;  // "PSBT" (envelope payload tag)
constexpr std::uint32_t kVersion = 2;             // v2: checksummed envelope framing

}  // namespace

namespace {

std::string index_payload(const SSTree& tree) {
  ByteWriter w;
  w.put(kVersion);
  w.put(static_cast<std::uint64_t>(tree.data().size()));
  w.put(static_cast<std::uint32_t>(tree.dims()));
  w.put(static_cast<std::uint32_t>(tree.degree()));
  w.put(static_cast<std::uint8_t>(tree.bounds_mode()));
  w.put(static_cast<std::uint64_t>(tree.num_nodes()));
  w.put(tree.root());
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const Node& n = tree.node(static_cast<NodeId>(i));
    w.put(static_cast<std::int32_t>(n.level));
    w.put_vec(n.children);
    w.put_vec(n.points);
    w.put_vec(n.sphere.center);
    w.put(n.sphere.radius);
  }
  return w.bytes();
}

}  // namespace

std::string serialize_index(const SSTree& tree) {
  return wrap_envelope(kIndexKind, index_payload(tree));
}

void write_index(const SSTree& tree, const std::string& path) {
  write_envelope(path, kIndexKind, index_payload(tree));
}

SSTree parse_index(const PointSet* points, std::string_view file_bytes,
                   const std::string& label) {
  PSB_REQUIRE(points != nullptr, "point set required");
  const std::string_view payload = unwrap_envelope(file_bytes, kIndexKind, label);
  ByteReader r(payload, label);

  const auto version = r.get<std::uint32_t>();
  if (version != kVersion) {
    throw CorruptIndex(label + ": unsupported index version " + std::to_string(version));
  }
  const auto n_points = r.get<std::uint64_t>();
  const auto dims = r.get<std::uint32_t>();
  PSB_REQUIRE(n_points == points->size() && dims == points->dims(),
              "index was built over a different dataset");
  const auto degree = r.get<std::uint32_t>();
  const auto mode_raw = r.get<std::uint8_t>();
  if (mode_raw > static_cast<std::uint8_t>(BoundsMode::kRect)) {
    throw CorruptIndex(label + ": unknown bounds mode");
  }
  const auto mode = static_cast<BoundsMode>(mode_raw);
  const auto num_nodes = r.get<std::uint64_t>();
  const NodeId root = r.get<NodeId>();
  if (degree == 0) throw CorruptIndex(label + ": corrupt index header (degree == 0)");
  // A node record is at least 4 + 3*8 + 4 bytes; a count beyond what the
  // payload could hold is corruption, not a huge allocation request.
  if (num_nodes > payload.size() / 8) {
    throw CorruptIndex(label + ": node count exceeds the payload");
  }
  if (num_nodes == 0 || root >= num_nodes) throw CorruptIndex(label + ": corrupt index root");

  SSTree tree(points, degree, mode);
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    const auto level = r.get<std::int32_t>();
    if (level < 0 || level > 255) throw CorruptIndex(label + ": corrupt node level");
    const NodeId id = tree.add_node(level);
    Node& n = tree.node(id);
    n.children = r.get_vec<NodeId>();
    n.points = r.get_vec<PointId>();
    n.sphere.center = r.get_vec<Scalar>();
    n.sphere.radius = r.get<Scalar>();
    for (const NodeId child : n.children) {
      if (child >= num_nodes) throw CorruptIndex(label + ": child id out of range");
    }
    for (const PointId pid : n.points) {
      if (pid >= points->size()) throw CorruptIndex(label + ": point id out of range");
    }
    if (n.sphere.center.size() != points->dims()) {
      throw CorruptIndex(label + ": sphere dimensionality mismatch");
    }
    // The builders never store a non-finite bound; one here would poison
    // every MINDIST against this node.
    if (std::string err = describe_non_finite(n.sphere.center, "sphere center"); !err.empty()) {
      throw CorruptIndex(label + ": node " + std::to_string(i) + " " + err);
    }
    if (!std::isfinite(n.sphere.radius)) {
      throw CorruptIndex(label + ": node " + std::to_string(i) + " sphere radius is non-finite (" +
                         std::to_string(n.sphere.radius) + ")");
    }
  }
  r.require_done();
  // Pre-finalize pass: levels must strictly decrease parent->child and every
  // non-root node must be referenced exactly once. Together these make the
  // structure an acyclic tree, so finalize() cannot loop or double-visit
  // whatever else the file claims.
  std::vector<std::uint32_t> in_degree(static_cast<std::size_t>(num_nodes), 0);
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    const Node& n = tree.node(static_cast<NodeId>(i));
    for (const NodeId child : n.children) {
      if (tree.node(child).level != n.level - 1) {
        throw CorruptIndex(label + ": child level does not decrease");
      }
      if (++in_degree[child] > 1) throw CorruptIndex(label + ": node has two parents");
    }
    if (n.is_leaf() && !n.children.empty()) {
      throw CorruptIndex(label + ": leaf with children");
    }
  }
  if (in_degree[root] != 0) throw CorruptIndex(label + ": root is referenced as a child");
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (i != root && in_degree[i] == 0) {
      throw CorruptIndex(label + ": unreachable node");
    }
  }
  tree.set_root(root);
  // finalize()/validate() enforce the cross-node structural invariants
  // (acyclic parent links, consistent levels, leaf chain). A file that
  // passes the checksum but violates them was never written by us — still
  // corruption from the loader's point of view, not an internal bug.
  try {
    tree.finalize();
    // Structural validation; completeness is not required — an index
    // maintained by sstree::Updater may legitimately cover a subset of the
    // dataset.
    tree.validate(/*require_complete=*/false);
  } catch (const InternalError& e) {
    throw CorruptIndex(label + ": structural validation failed — " + e.what());
  } catch (const InvalidArgument& e) {
    throw CorruptIndex(label + ": structural validation failed — " + e.what());
  }
  return tree;
}

SSTree read_index(const PointSet* points, const std::string& path) {
  PSB_REQUIRE(points != nullptr, "point set required");
  return parse_index(points, read_file_image(path), path);
}

}  // namespace psb::sstree
