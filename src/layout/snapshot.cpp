#include "layout/snapshot.hpp"

#include <algorithm>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"

namespace psb::layout {

TraversalSnapshot::TraversalSnapshot(const sstree::SSTree& tree, std::size_t segment_bytes)
    : tree_(&tree), segment_bytes_(segment_bytes) {
  PSB_REQUIRE(segment_bytes > 0, "segment size must be > 0");
  PSB_REQUIRE(tree.num_nodes() > 0, "cannot snapshot an empty tree");
  PSB_REQUIRE(!tree.leaves().empty(), "tree must be finalized before snapshotting");

  // Placement order: internal levels top-down (root level first), each level
  // in left-to-right subtree order; then every leaf in leaf-chain order.
  std::vector<NodeId> order;
  order.reserve(tree.num_nodes());
  for (int level = tree.node(tree.root()).level; level > 0; --level) {
    const std::size_t level_begin = order.size();
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      if (tree.node(id).level == level) order.push_back(id);
    }
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(level_begin), order.end(),
              [&](NodeId a, NodeId b) {
                return tree.node(a).subtree_min_leaf < tree.node(b).subtree_min_leaf;
              });
  }
  spans_.resize(tree.num_nodes());
  std::uint64_t cursor = 0;
  for (const NodeId id : order) {
    spans_[id] = NodeSpan{cursor, static_cast<std::uint32_t>(tree.node_byte_size(tree.node(id)))};
    cursor += spans_[id].bytes;
  }
  leaf_region_offset_ = cursor;
  for (const NodeId leaf : tree.leaves()) {
    spans_[leaf] = NodeSpan{cursor, static_cast<std::uint32_t>(tree.node_byte_size(tree.node(leaf)))};
    cursor += spans_[leaf].bytes;
  }
  arena_bytes_ = cursor;
  PSB_ASSERT(order.size() + tree.leaves().size() == tree.num_nodes(),
             "placement order misses nodes");
  table_crc_ = table_crc();
}

std::uint32_t TraversalSnapshot::table_crc() const noexcept {
  // One 12-byte little-endian record per node, (offset, bytes), in NodeId
  // order: the fixed message the header's detection argument is about.
  Crc32 crc;
  for (const NodeSpan& s : spans_) {
    unsigned char rec[12];
    for (int b = 0; b < 8; ++b) rec[b] = static_cast<unsigned char>(s.offset >> (8 * b));
    for (int b = 0; b < 4; ++b) rec[8 + b] = static_cast<unsigned char>(s.bytes >> (8 * b));
    crc.update(rec, sizeof(rec));
  }
  return crc.value();
}

bool TraversalSnapshot::verify() const noexcept { return table_crc() == table_crc_; }

void TraversalSnapshot::corrupt(std::uint64_t payload) noexcept {
  if (spans_.empty()) return;
  // Flip one bit of the victim's offset — a single-bit error in the sealed
  // table message, which CRC32 always detects.
  NodeSpan& victim = spans_[static_cast<std::size_t>(payload % spans_.size())];
  fault::flip_bit(&victim.offset, sizeof(victim.offset), fault::mix(payload));
}

SegmentRange TraversalSnapshot::segments(NodeId id) const {
  const NodeSpan s = spans_[id];
  PSB_ASSERT(s.bytes > 0, "segment query for an unplaced node");
  return SegmentRange{s.offset / segment_bytes_, (s.end() - 1) / segment_bytes_};
}

void TraversalSnapshot::validate() const {
  const sstree::SSTree& tree = *tree_;
  std::uint64_t covered = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const NodeSpan s = spans_[id];
    PSB_ASSERT(s.bytes == tree.node_byte_size(tree.node(id)),
               "span size diverges from node_byte_size");
    PSB_ASSERT(s.end() <= arena_bytes_, "span exceeds the arena");
    covered += s.bytes;
  }
  PSB_ASSERT(covered == arena_bytes_, "spans do not cover the arena exactly");

  // Level clustering: a node of a higher level is always placed before every
  // node of any lower level (leaves last).
  for (NodeId a = 0; a < tree.num_nodes(); ++a) {
    for (const NodeId child : tree.node(a).children) {
      PSB_ASSERT(spans_[a].offset < spans_[child].offset,
                 "parent placed after one of its children");
    }
    if (!tree.node(a).is_leaf()) {
      PSB_ASSERT(spans_[a].end() <= leaf_region_offset_ || tree.node(tree.root()).level == 0,
                 "internal node placed inside the leaf region");
    }
  }

  // Leaves are contiguous in leaf-chain order: leaf i+1 starts where leaf i
  // ends (the property PSB's sequential scan-and-backtrack exploits).
  const std::vector<NodeId>& leaves = tree.leaves();
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    PSB_ASSERT(spans_[leaves[i]].end() == spans_[leaves[i + 1]].offset,
               "leaf chain is not address-sequential in the arena");
  }
  if (!leaves.empty()) {
    PSB_ASSERT(spans_[leaves.front()].offset == leaf_region_offset_,
               "first leaf does not start the leaf region");
    PSB_ASSERT(spans_[leaves.back()].end() == arena_bytes_,
               "last leaf does not end the arena");
  }
}

TraversalSnapshot::Stats TraversalSnapshot::stats() const {
  Stats s;
  s.arena_bytes = arena_bytes_;
  s.segments = num_segments();
  s.internal_bytes = leaf_region_offset_;
  s.leaf_bytes = arena_bytes_ - leaf_region_offset_;
  s.nodes = tree_->num_nodes();
  return s;
}

}  // namespace psb::layout
