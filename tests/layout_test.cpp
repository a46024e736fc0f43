// TraversalSnapshot / FetchSession unit tests: the arena packing invariants
// (validated structurally and via the snapshot's own validate()), and the
// segment-granular fetch accounting — window hits, streaming classification,
// byte conservation, and the begin_query() chain break.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"
#include "layout/fetch.hpp"
#include "layout/snapshot.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

sstree::SSTree build_tree(const PointSet& data, std::size_t degree,
                          sstree::BoundsMode bounds = sstree::BoundsMode::kSphere) {
  sstree::KMeansBuildOptions opts;
  opts.bounds = bounds;
  sstree::SSTree tree = sstree::build_kmeans(data, degree, opts).tree;
  tree.validate();
  return tree;
}

TEST(TraversalSnapshot, ValidatesAcrossConfigs) {
  for (const std::size_t dims : {2UL, 4UL, 16UL}) {
    for (const std::size_t degree : {16UL, 128UL}) {
      const PointSet data = data::make_uniform(dims, 1500, 1000.0, /*seed=*/99);
      const sstree::SSTree tree = build_tree(data, degree);
      const layout::TraversalSnapshot snap(tree);
      ASSERT_NO_THROW(snap.validate()) << "dims=" << dims << " degree=" << degree;
    }
  }
  // Rectangle bounds change node_byte_size; the packing must still cover.
  const PointSet data = data::make_uniform(4, 1500, 1000.0, /*seed=*/99);
  const sstree::SSTree rect_tree = build_tree(data, 32, sstree::BoundsMode::kRect);
  const layout::TraversalSnapshot snap(rect_tree);
  ASSERT_NO_THROW(snap.validate());
}

TEST(TraversalSnapshot, ArenaAccountsEveryNodeOnce) {
  const PointSet data = test::small_clustered(4, 2000, /*seed=*/7);
  const sstree::SSTree tree = build_tree(data, 32);
  const layout::TraversalSnapshot snap(tree);

  std::uint64_t sum = 0;
  std::uint64_t internal = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const layout::NodeSpan s = snap.span(id);
    EXPECT_EQ(s.bytes, tree.node_byte_size(tree.node(id))) << "node " << id;
    sum += s.bytes;
    if (!tree.node(id).is_leaf()) internal += s.bytes;
  }
  EXPECT_EQ(sum, snap.arena_bytes());
  EXPECT_EQ(internal, snap.leaf_region_offset());

  const layout::TraversalSnapshot::Stats st = snap.stats();
  EXPECT_EQ(st.arena_bytes, snap.arena_bytes());
  EXPECT_EQ(st.internal_bytes + st.leaf_bytes, st.arena_bytes);
  EXPECT_EQ(st.segments, snap.num_segments());
  EXPECT_EQ(st.nodes, tree.num_nodes());
}

TEST(TraversalSnapshot, RootLeadsAndLeavesAreChainOrdered) {
  const PointSet data = test::small_clustered(3, 1200, /*seed=*/11);
  const sstree::SSTree tree = build_tree(data, 16);
  const layout::TraversalSnapshot snap(tree);

  EXPECT_EQ(snap.span(tree.root()).offset, 0U);

  const std::vector<NodeId>& leaves = tree.leaves();
  ASSERT_FALSE(leaves.empty());
  EXPECT_EQ(snap.span(leaves.front()).offset, snap.leaf_region_offset());
  for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(snap.span(leaves[i]).end(), snap.span(leaves[i + 1]).offset)
        << "leaf chain break at leaf " << i;
  }
  EXPECT_EQ(snap.span(leaves.back()).end(), snap.arena_bytes());
}

TEST(TraversalSnapshot, SingleLeafTreeHasEmptyInternalPrefix) {
  const PointSet data = data::make_uniform(2, 8, 100.0, /*seed=*/3);
  const sstree::SSTree tree = build_tree(data, 16);
  const layout::TraversalSnapshot snap(tree);
  snap.validate();
  if (tree.node(tree.root()).is_leaf()) {
    EXPECT_EQ(snap.leaf_region_offset(), 0U);
  }
}

TEST(FetchSession, RepeatFetchIsWindowHit) {
  const PointSet data = test::small_clustered(4, 1000, /*seed=*/23);
  const sstree::SSTree tree = build_tree(data, 32);
  const layout::TraversalSnapshot snap(tree);
  layout::FetchSession session(snap);

  const layout::FetchCharge first = session.classify(tree.root());
  EXPECT_EQ(first.pattern, simt::Access::kRandom);
  EXPECT_EQ(first.bytes, snap.segments(tree.root()).count() * snap.segment_bytes());
  EXPECT_EQ(session.window_hits(), 0U);

  const layout::FetchCharge again = session.classify(tree.root());
  EXPECT_EQ(again.bytes, 0U);
  EXPECT_EQ(again.pattern, simt::Access::kCached);
  EXPECT_EQ(session.window_hits(), 1U);
}

TEST(FetchSession, LeafChainStreams) {
  const PointSet data = test::small_clustered(4, 2000, /*seed=*/29);
  const sstree::SSTree tree = build_tree(data, 16);
  const layout::TraversalSnapshot snap(tree);
  const std::vector<NodeId>& leaves = tree.leaves();
  ASSERT_GT(leaves.size(), 2U);

  layout::FetchSession session(snap);
  session.begin_query();
  session.classify(leaves.front());
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    const layout::FetchCharge c = session.classify(leaves[i]);
    // Address-sequential sweep: every leaf either continues the stream or is
    // already resident via a straddling boundary segment.
    if (c.bytes > 0) {
      EXPECT_EQ(c.pattern, simt::Access::kCoalesced) << "leaf " << i;
    }
  }
}

TEST(FetchSession, BeginQueryBreaksStreamButKeepsResidency) {
  const PointSet data = test::small_clustered(4, 2000, /*seed=*/31);
  const sstree::SSTree tree = build_tree(data, 16);
  const layout::TraversalSnapshot snap(tree);
  const std::vector<NodeId>& leaves = tree.leaves();
  ASSERT_GT(leaves.size(), 2U);

  layout::FetchSession session(snap);
  session.begin_query();
  session.classify(leaves[0]);
  const std::uint64_t resident = session.resident_segments();

  session.begin_query();
  // Residency survives the query boundary ...
  EXPECT_EQ(session.resident_segments(), resident);
  // ... but the streaming chain does not: the new query's first fetch is a
  // scattered first touch even though its address continues the previous
  // query's sweep. (A later window hit may re-establish the chain — the hit
  // tells the stream where it stands — but the boundary itself never does.)
  const layout::FetchCharge next = session.classify(leaves[1]);
  if (next.bytes > 0) EXPECT_EQ(next.pattern, simt::Access::kRandom);
  // The previous query's leaf is still free.
  EXPECT_EQ(session.classify(leaves[0]).bytes, 0U);
}

TEST(FetchSession, FetchingEveryNodeChargesTheArenaExactlyOnce) {
  const PointSet data = test::small_clustered(4, 1500, /*seed=*/37);
  const sstree::SSTree tree = build_tree(data, 32);
  const layout::TraversalSnapshot snap(tree);

  // Shuffle-ish order (stride walk) to exercise non-sequential residency.
  std::vector<NodeId> order(tree.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_partition(order.begin(), order.end(), [](NodeId id) { return id % 3 == 0; });

  layout::FetchSession session(snap);
  std::uint64_t total = 0;
  for (const NodeId id : order) total += session.classify(id).bytes;
  EXPECT_EQ(total, snap.num_segments() * snap.segment_bytes());
  EXPECT_EQ(session.resident_segments(), snap.num_segments());
  EXPECT_EQ(session.segments_fetched(), snap.num_segments());

  // Everything resident now: any further fetch is free.
  for (const NodeId id : order) EXPECT_EQ(session.classify(id).bytes, 0U);
}

TEST(TraversalSnapshot, ArenaNeverExceedsPointerBytesForFullWalk) {
  // Segment rounding can only charge up to one extra segment per *chain* of
  // contiguous nodes, and the packed arena has no padding at all — so a walk
  // that touches every node pays at most ceil(arena/128) segments, which is
  // within one segment of the pointer path's exact byte sum.
  const PointSet data = data::make_noaa_like([] {
    data::NoaaSpec spec;
    spec.stations = 50;
    spec.readings_per_station = 20;
    return spec;
  }());
  const sstree::SSTree tree = build_tree(data, 32);
  const layout::TraversalSnapshot snap(tree);
  const std::uint64_t segment_total = snap.num_segments() * snap.segment_bytes();
  EXPECT_LT(segment_total - snap.arena_bytes(), snap.segment_bytes());
}

TEST(TraversalSnapshot, VerifyCatchesEverySingleBitFlipOfTheSpanTable) {
  // Exhaustive on a small tree: every bit of every node's offset and size.
  // The test flips bits of the snapshot's own (non-const) span storage
  // through its read-only view, as a corrupted arena would.
  const PointSet data = data::make_uniform(4, 300, 100.0, /*seed=*/5);
  const sstree::SSTree tree = build_tree(data, 16);
  layout::TraversalSnapshot snap(tree);
  ASSERT_TRUE(snap.verify());
  auto* spans = const_cast<layout::NodeSpan*>(snap.spans().data());
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    for (int bit = 0; bit < 64; ++bit) {
      spans[id].offset ^= std::uint64_t{1} << bit;
      EXPECT_FALSE(snap.verify()) << "node " << id << " offset bit " << bit;
      spans[id].offset ^= std::uint64_t{1} << bit;
    }
    for (int bit = 0; bit < 32; ++bit) {
      spans[id].bytes ^= std::uint32_t{1} << bit;
      EXPECT_FALSE(snap.verify()) << "node " << id << " bytes bit " << bit;
      spans[id].bytes ^= std::uint32_t{1} << bit;
    }
  }
  EXPECT_TRUE(snap.verify());
}

TEST(TraversalSnapshot, VerifyCatchesEveryCorruptPayload) {
  const PointSet data = data::make_uniform(3, 2000, 100.0, /*seed=*/6);
  const sstree::SSTree tree = build_tree(data, 16);
  const layout::TraversalSnapshot clean(tree);
  ASSERT_TRUE(clean.verify());
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t payload = i < 100 ? static_cast<std::uint64_t>(i) : rng.next_u64();
    layout::TraversalSnapshot snap = clean;
    snap.corrupt(payload);
    EXPECT_FALSE(snap.verify()) << "payload " << payload;
  }
}

}  // namespace
}  // namespace psb
