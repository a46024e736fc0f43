// TraversalSnapshot: a read-only, frozen flattening of a finalized SS-tree
// into one contiguous simulated device arena, packed for traversal coherence.
//
// Placement policy (what the packing buys, in the paper's terms):
//   * Internal levels are packed top-down — the root first, then every node
//     of each lower level — so the hot top-of-tree that *every* query walks
//     occupies one small prefix of the arena and shares 128-byte fetch
//     windows across queries (§V-A's coalescing argument applied to node
//     placement instead of intra-node layout).
//   * Within an internal level, nodes are ordered by their subtree's leftmost
//     leaf, i.e. the tree's left-to-right spatial order, so horizontally
//     adjacent subtrees sit in adjacent segments.
//   * Leaves are packed last, in leaf-chain (leaf_id) order, making PSB's
//     scan-and-backtrack over right siblings a strictly address-sequential
//     sweep: leaf i+1 begins at the byte where leaf i ends.
//
// Every node occupies exactly SSTree::node_byte_size(node) bytes — the same
// quantity the pointer-walking traversals charge per fetch — so the snapshot
// changes *where* bytes live, never how many a node is worth. FetchSession
// (layout/fetch.hpp) maps spans onto the simt coalescing model's 128-byte
// global-memory segments.
//
// Integrity contract: the constructor seals one CRC32 word over the span
// table — each node's `offset` (8 bytes) then `bytes` (4 bytes),
// little-endian, in NodeId order — and verify() recomputes it, O(nodes).
// The table is the snapshot's only mutable placement state, every span
// field maps to a fixed bit position of that message, and CRC32 detects
// every single-bit error in a message of any length, so a one-bit flip of
// any node's offset or size (what corrupt() injects) is always caught.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sstree/tree.hpp"

namespace psb::layout {

/// Byte placement of one node inside the arena.
struct NodeSpan {
  std::uint64_t offset = 0;
  std::uint32_t bytes = 0;

  std::uint64_t end() const noexcept { return offset + bytes; }
};

/// Inclusive range of 128-byte segments a span touches.
struct SegmentRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  std::uint64_t count() const noexcept { return last - first + 1; }
};

class TraversalSnapshot {
 public:
  /// Freeze `tree` (which must be finalized and must outlive the snapshot).
  /// `segment_bytes` is the global-memory transaction size of the simt
  /// coalescing model (coalescing.hpp's 128-byte segments).
  explicit TraversalSnapshot(const sstree::SSTree& tree, std::size_t segment_bytes = 128);

  const sstree::SSTree& tree() const noexcept { return *tree_; }
  std::size_t segment_bytes() const noexcept { return segment_bytes_; }

  NodeSpan span(NodeId id) const { return spans_[id]; }
  SegmentRange segments(NodeId id) const;
  /// NodeId-indexed span table (FetchSession's arena view).
  std::span<const NodeSpan> spans() const noexcept { return spans_; }

  /// Total arena size: the sum of node_byte_size over all nodes.
  std::uint64_t arena_bytes() const noexcept { return arena_bytes_; }
  /// Number of segments covering the arena.
  std::uint64_t num_segments() const noexcept {
    return (arena_bytes_ + segment_bytes_ - 1) / segment_bytes_;
  }
  /// Byte offset where the leaf region starts (== size of the packed
  /// internal-level prefix; 0 for a single-leaf tree).
  std::uint64_t leaf_region_offset() const noexcept { return leaf_region_offset_; }

  /// Check the packing invariants: spans are contiguous and non-overlapping,
  /// cover the arena exactly, internal levels are packed top-down before all
  /// leaves, and leaves are address-sequential in leaf-id order. Throws
  /// psb::InternalError on the first violation.
  void validate() const;

  /// Integrity check: recompute the span-table CRC32 and compare it to the
  /// word sealed at construction. Returns false when any span diverged (a
  /// corrupted arena). O(nodes); the engines run it before every batch
  /// served from the snapshot.
  bool verify() const noexcept;

  /// Deterministically corrupt one node span (seeded by `payload`) — the
  /// layout.snapshot.segment fault hook. verify() is guaranteed to detect
  /// the mutation.
  void corrupt(std::uint64_t payload) noexcept;

  struct Stats {
    std::uint64_t arena_bytes = 0;
    std::uint64_t segments = 0;
    std::uint64_t internal_bytes = 0;  ///< packed top-of-tree prefix
    std::uint64_t leaf_bytes = 0;
    std::size_t nodes = 0;
  };
  Stats stats() const;

 private:
  std::uint32_t table_crc() const noexcept;

  const sstree::SSTree* tree_;
  std::size_t segment_bytes_;
  std::vector<NodeSpan> spans_;  ///< indexed by NodeId
  std::uint64_t arena_bytes_ = 0;
  std::uint64_t leaf_region_offset_ = 0;
  /// CRC32 over the span table, sealed at construction (the simulated
  /// analogue of checksumming the frozen arena's placement metadata).
  std::uint32_t table_crc_ = 0;
};

}  // namespace psb::layout
