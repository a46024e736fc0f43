// ImplicitLayout: a pointer-free, preorder-implicit flattening of a
// finalized SS-tree into one contiguous simulated device arena.
//
// Where TraversalSnapshot repacks the *pointer-carrying* node records for
// coherence, ImplicitLayout removes the pointers themselves (Wald's
// stack-free left-balanced layout, arXiv 2210.12859; Apetrei's stackless BVH
// revision, arXiv 2402.00665, applied to the paper's n-ary SS-tree):
//
//   * Nodes are numbered by preorder slot. An internal node's first child is
//     always at `slot + 1` — descent is index arithmetic, not a dependent
//     pointer fetch, so the implicit record stores no child ids at all.
//   * Each slot carries one precomputed **escape index**: the slot of the
//     next preorder node with this node's subtree skipped (`slot +
//     subtree_size`; kInvalidSlot past the last subtree). This is the rope
//     that makes a stackless walk total: advance to `slot + 1` on a hit,
//     jump to `escape(slot)` on a prune or after a leaf — O(1) per-query
//     state, no stack, no parent links.
//   * The implicit record is therefore smaller than the pointer record: a
//     16-byte header (level/count/own-sphere summary/escape word) instead of
//     the 32-byte header with parent/sibling/skip/child links, and internal
//     nodes drop the 4-byte child id per child (children are found by
//     arithmetic). Leaves keep their SoA coordinate/id payload unchanged.
//
// The preorder placement is also the traversal order: a full walk is a
// strictly address-sequential sweep of the arena, and every descent
// (slot → slot+1) continues the current fetch stream, so FetchSession's
// address-based classifier sees descents as coalesced traffic. Only prune
// jumps scatter.
//
// Integrity: per-128-byte-segment CRC32 words over the placement metadata
// *and the escape words* are sealed at construction (and serialized with
// the layout); verify() recomputes and compares, so a corrupted escape index
// (the layout.implicit.escape_bitflip fault) is always caught before serving.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "layout/snapshot.hpp"
#include "sstree/tree.hpp"

namespace psb::layout {

/// Envelope payload tag for a serialized implicit layout ("PSBL").
inline constexpr std::uint32_t kImplicitLayoutKind = 0x4C425350;

class ImplicitLayout {
 public:
  /// Escape sentinel: the walk is over (past the last subtree).
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;

  /// Freeze `tree` (finalized; must outlive the layout). `segment_bytes` is
  /// the simt coalescing model's global-memory transaction size.
  explicit ImplicitLayout(const sstree::SSTree& tree, std::size_t segment_bytes = 128);

  const sstree::SSTree& tree() const noexcept { return *tree_; }
  std::size_t segment_bytes() const noexcept { return segment_bytes_; }
  std::size_t num_nodes() const noexcept { return preorder_.size(); }

  /// Preorder slot -> node id (the only mapping a traversal needs on top of
  /// the tree's node arena, which stands in for the packed records).
  NodeId node_at(std::uint32_t slot) const { return preorder_[slot]; }
  /// Node id -> preorder slot.
  std::uint32_t slot_of(NodeId id) const { return slot_of_[id]; }
  /// Precomputed rope: next preorder slot with `slot`'s subtree skipped.
  std::uint32_t escape(std::uint32_t slot) const { return escape_[slot]; }

  NodeSpan span(std::uint32_t slot) const { return spans_[slot]; }
  SegmentRange segments(std::uint32_t slot) const;
  /// Slot-indexed span table (FetchSession's arena view).
  std::span<const NodeSpan> spans() const noexcept { return spans_; }

  std::uint64_t arena_bytes() const noexcept { return arena_bytes_; }
  std::uint64_t num_segments() const noexcept {
    return (arena_bytes_ + segment_bytes_ - 1) / segment_bytes_;
  }

  /// Simulated on-device byte size of the pointer-free record of `n`:
  /// 16-byte header (vs. the pointer record's 32), no child id words
  /// (children live at slot+1 by arithmetic), SoA payload unchanged.
  static std::size_t node_byte_size(const sstree::SSTree& tree, const sstree::Node& n) noexcept;

  /// Check the layout invariants: preorder_ is a permutation rooted at slot
  /// 0, an internal node's first child sits at slot+1, escape indices equal
  /// the tree's skip-pointer mapping, spans are preorder-contiguous and
  /// cover the arena, and the implicit arena is no larger than the pointer
  /// arena. Throws psb::InternalError on the first violation.
  void validate() const;

  /// Recompute the per-segment checksums (placement + escape words) and
  /// compare against the words sealed at construction. False when any
  /// segment diverged. The engine runs this before serving from the layout.
  bool verify() const noexcept;

  /// Deterministically flip one bit of one escape index (seeded by
  /// `payload`) — the layout.implicit.escape_bitflip fault hook. verify()
  /// is guaranteed to detect the mutation (CRC32 catches every single-bit
  /// error).
  void corrupt(std::uint64_t payload) noexcept;

  struct Stats {
    std::uint64_t arena_bytes = 0;          ///< implicit (pointer-free) arena
    std::uint64_t pointer_arena_bytes = 0;  ///< same tree, pointer records
    std::uint64_t segments = 0;
    std::size_t nodes = 0;
  };
  Stats stats() const;

  /// Envelope-wrapped serialization (payload kind "PSBL"): preorder table,
  /// escape ropes, sealed segment CRCs, and the tree fingerprint the loader
  /// checks the layout against.
  std::string serialize() const;
  /// Parse `file_bytes` (as produced by serialize()) against `tree`. Any
  /// integrity or structural failure — envelope CRC, fingerprint mismatch,
  /// malformed preorder/escape tables, segment-CRC divergence — throws
  /// psb::CorruptIndex. `label` names the artifact in error messages.
  static ImplicitLayout parse(const sstree::SSTree& tree, std::string_view file_bytes,
                              const std::string& label);
  void save(const std::string& path) const;
  static ImplicitLayout load(const sstree::SSTree& tree, const std::string& path);

 private:
  ImplicitLayout() = default;  // parse() assembles members directly

  /// Rebuild slot_of_ / spans_ / arena_bytes_ from preorder_ (shared by the
  /// constructor and parse()).
  void place_spans();
  std::string payload_bytes() const;
  std::vector<std::uint32_t> segment_checksums() const;

  const sstree::SSTree* tree_ = nullptr;
  std::size_t segment_bytes_ = 128;
  std::vector<NodeId> preorder_;         ///< slot -> NodeId
  std::vector<std::uint32_t> slot_of_;   ///< NodeId -> slot
  std::vector<std::uint32_t> escape_;    ///< slot -> escape slot
  std::vector<NodeSpan> spans_;          ///< slot -> byte placement
  std::uint64_t arena_bytes_ = 0;
  /// Per-segment CRC32 over (slot, span, escape word) for every slot mapped
  /// into the segment, sealed at construction.
  std::vector<std::uint32_t> segment_crcs_;
};

}  // namespace psb::layout
