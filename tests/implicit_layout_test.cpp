// ImplicitLayout + stackless escape-index traversal: preorder/escape
// invariants, pointer-free arena sizing, envelope round-trip, corruption
// detection, FetchSession streaming classification, walker equivalence with
// the skip-pointer baseline, and the engine's counted (never silent)
// degradation when the arena fails verification.
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"
#include "engine/batch_engine.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/brute_force.hpp"
#include "knn/stackless_baselines.hpp"
#include "layout/fetch.hpp"
#include "layout/implicit.hpp"
#include "obs/registry.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

using layout::ImplicitLayout;

PointSet noaa_points(std::size_t stations = 80, std::size_t readings = 30) {
  data::NoaaSpec spec;
  spec.stations = stations;
  spec.readings_per_station = readings;
  spec.seed = 1973;
  return data::make_noaa_like(spec);
}

std::uint64_t counter_value(const obs::Registry::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(ImplicitLayout, PreorderAndEscapeInvariants) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const ImplicitLayout lay(tree);
  lay.validate();

  ASSERT_EQ(lay.num_nodes(), tree.num_nodes());
  EXPECT_EQ(lay.node_at(0), tree.root());
  for (std::uint32_t slot = 0; slot < lay.num_nodes(); ++slot) {
    const sstree::Node& n = tree.node(lay.node_at(slot));
    EXPECT_EQ(lay.slot_of(n.id), slot);
    if (!n.is_leaf()) {
      // Descent is index arithmetic: the first child always sits at slot+1.
      ASSERT_LT(slot + 1, lay.num_nodes());
      EXPECT_EQ(lay.node_at(slot + 1), n.children.front()) << "slot " << slot;
    }
    // The rope always advances (or terminates) — a stackless walk is total.
    const std::uint32_t esc = lay.escape(slot);
    EXPECT_TRUE(esc == ImplicitLayout::kInvalidSlot || esc > slot) << "slot " << slot;
  }
  EXPECT_EQ(lay.escape(0), ImplicitLayout::kInvalidSlot);  // root's subtree is everything
}

TEST(ImplicitLayout, PointerFreeRecordsAreSmaller) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const ImplicitLayout lay(tree);

  for (std::uint32_t slot = 0; slot < lay.num_nodes(); ++slot) {
    const sstree::Node& n = tree.node(lay.node_at(slot));
    EXPECT_LT(ImplicitLayout::node_byte_size(tree, n), tree.node_byte_size(n))
        << "slot " << slot;
  }
  const ImplicitLayout::Stats s = lay.stats();
  EXPECT_EQ(s.nodes, tree.num_nodes());
  EXPECT_LT(s.arena_bytes, s.pointer_arena_bytes);
  EXPECT_EQ(s.arena_bytes, lay.arena_bytes());
}

TEST(ImplicitLayout, EnvelopeRoundTrip) {
  const PointSet points = noaa_points(40, 20);
  const sstree::SSTree tree = sstree::build_hilbert(points, 8).tree;
  const ImplicitLayout lay(tree);

  const std::string image = lay.serialize();
  const ImplicitLayout reloaded = ImplicitLayout::parse(tree, image, "round-trip");
  EXPECT_TRUE(reloaded.verify());
  reloaded.validate();
  ASSERT_EQ(reloaded.num_nodes(), lay.num_nodes());
  for (std::uint32_t slot = 0; slot < lay.num_nodes(); ++slot) {
    EXPECT_EQ(reloaded.node_at(slot), lay.node_at(slot));
    EXPECT_EQ(reloaded.escape(slot), lay.escape(slot));
    EXPECT_EQ(reloaded.span(slot).offset, lay.span(slot).offset);
    EXPECT_EQ(reloaded.span(slot).bytes, lay.span(slot).bytes);
  }
  EXPECT_EQ(reloaded.arena_bytes(), lay.arena_bytes());

  const std::string path = testing::TempDir() + "/implicit_layout_rt.psbl";
  lay.save(path);
  const ImplicitLayout from_disk = ImplicitLayout::load(tree, path);
  EXPECT_TRUE(from_disk.verify());
  EXPECT_EQ(from_disk.arena_bytes(), lay.arena_bytes());
  std::remove(path.c_str());
}

TEST(ImplicitLayout, CorruptedImageIsRejectedTyped) {
  const PointSet points = noaa_points(40, 20);
  const sstree::SSTree tree = sstree::build_hilbert(points, 8).tree;
  const std::string image = ImplicitLayout(tree).serialize();

  // Every corrupted byte position must surface as CorruptIndex — envelope
  // CRC for payload bytes, field checks for anything that slips through.
  for (std::size_t pos = 0; pos < image.size(); pos += 7) {
    std::string bad = image;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    EXPECT_THROW(ImplicitLayout::parse(tree, bad, "corrupt"), CorruptIndex)
        << "byte " << pos;
  }
  EXPECT_THROW(ImplicitLayout::parse(tree, image.substr(0, image.size() / 2), "trunc"),
               CorruptIndex);
}

TEST(ImplicitLayout, EscapeBitflipAlwaysCaughtByVerify) {
  const PointSet points = noaa_points(40, 20);
  const sstree::SSTree tree = sstree::build_hilbert(points, 8).tree;
  for (std::uint64_t payload = 1; payload <= 64; ++payload) {
    ImplicitLayout lay(tree);
    ASSERT_TRUE(lay.verify());
    lay.corrupt(fault::mix(payload));
    EXPECT_FALSE(lay.verify()) << "payload " << payload;
  }
}

TEST(ImplicitLayout, PreorderSweepStreamsCoalesced) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const ImplicitLayout lay(tree);
  layout::FetchSession session(lay);
  session.begin_query();

  // The preorder placement *is* the traversal order: a full walk touches the
  // arena address-sequentially, so after the first (necessarily scattered)
  // fetch every charged fetch continues the stream — never kRandom.
  for (std::uint32_t slot = 0; slot < lay.num_nodes(); ++slot) {
    const layout::FetchCharge c = session.classify(slot);
    if (slot == 0 || c.bytes == 0) continue;
    EXPECT_EQ(static_cast<int>(c.pattern), static_cast<int>(simt::Access::kCoalesced))
        << "slot " << slot;
  }
  EXPECT_EQ(session.segments_fetched(), lay.num_segments());

  // Re-walking with the window warm is pure on-chip traffic.
  session.begin_query();
  for (std::uint32_t slot = 0; slot < lay.num_nodes(); ++slot) {
    EXPECT_EQ(session.classify(slot).bytes, 0u) << "slot " << slot;
  }
}

TEST(ImplicitStackless, BitIdenticalToSkipPointerWalk) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const PointSet queries = data::sample_queries(points, 16, 0.5, 7);

  knn::GpuKnnOptions opts;
  opts.k = 8;
  const knn::BatchResult want = knn::skip_pointer_batch(tree, queries, opts);

  // stackless_skip on the implicit layout walks escape indices instead of
  // skip links.
  engine::BatchEngineOptions eo;
  eo.algorithm = engine::Algorithm::kStacklessSkip;
  eo.layout = engine::NodeLayout::kImplicit;
  eo.gpu = opts;
  const engine::BatchEngine eng(tree, eo);
  ASSERT_NE(eng.implicit_layout(), nullptr);
  const knn::BatchResult got = eng.run(queries);

  // The escape table is the preorder image of the skip chain, so the walks
  // are the same walk: identical neighbors *and* identical traversal stats.
  ASSERT_EQ(got.queries.size(), want.queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& g = got.queries[q];
    const auto& w = want.queries[q];
    ASSERT_EQ(g.neighbors.size(), w.neighbors.size()) << "query " << q;
    for (std::size_t i = 0; i < g.neighbors.size(); ++i) {
      EXPECT_EQ(g.neighbors[i].id, w.neighbors[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(g.neighbors[i].dist, w.neighbors[i].dist) << "query " << q << " rank " << i;
    }
    EXPECT_EQ(g.stats.nodes_visited, w.stats.nodes_visited) << "query " << q;
    EXPECT_EQ(g.stats.leaf_scans, w.stats.leaf_scans) << "query " << q;
    EXPECT_EQ(g.stats.backtracks, w.stats.backtracks) << "query " << q;
    EXPECT_EQ(g.stats.points_examined, w.stats.points_examined) << "query " << q;
    EXPECT_EQ(g.stats.heap_inserts, w.stats.heap_inserts) << "query " << q;
  }
}

TEST(ImplicitStackless, ReorderInvariant) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const PointSet queries = data::sample_queries(points, 24, 0.5, 11);

  engine::BatchEngineOptions base;
  base.algorithm = engine::Algorithm::kStacklessSkip;
  base.layout = engine::NodeLayout::kImplicit;
  base.gpu.k = 8;
  base.warp_queries = 1;
  const knn::BatchResult plain = engine::BatchEngine(tree, base).run(queries);

  engine::BatchEngineOptions reordered = base;
  reordered.reorder_queries = true;
  const knn::BatchResult sorted = engine::BatchEngine(tree, reordered).run(queries);

  ASSERT_EQ(sorted.queries.size(), plain.queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& g = sorted.queries[q];
    const auto& w = plain.queries[q];
    ASSERT_EQ(g.neighbors.size(), w.neighbors.size()) << "query " << q;
    for (std::size_t i = 0; i < g.neighbors.size(); ++i) {
      EXPECT_EQ(g.neighbors[i].id, w.neighbors[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(g.neighbors[i].dist, w.neighbors[i].dist) << "query " << q;
    }
    EXPECT_EQ(g.stats.nodes_visited, w.stats.nodes_visited) << "query " << q;
  }
}

TEST(ImplicitStackless, EngineDegradesCountedNeverSilentOnCorruptArena) {
  const PointSet points = noaa_points();
  const sstree::SSTree tree = sstree::build_hilbert(points, 16).tree;
  const PointSet queries = data::sample_queries(points, 8, 0.5, 13);

  knn::GpuKnnOptions ref;
  ref.k = 8;
  const knn::BatchResult truth = knn::brute_force_batch(points, queries, ref);

  engine::BatchEngineOptions eo;
  eo.algorithm = engine::Algorithm::kStacklessSkip;
  eo.layout = engine::NodeLayout::kImplicit;
  eo.gpu.k = 8;
  const engine::BatchEngine eng(tree, eo);
  ASSERT_NE(eng.implicit_layout(), nullptr);

  fault::Spec spec;
  spec.site = std::string(fault::kSiteImplicitEscape);
  spec.seed = 20260809;
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  knn::BatchResult got;
  {
    fault::InjectionScope scope(spec);
    got = eng.run(queries);
    ASSERT_EQ(scope.fired(fault::kSiteImplicitEscape), 1u);
  }
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();

  // The corrupted escape word is caught by the per-segment CRC before any
  // query is served; the batch degrades to the exact pointer-path fallback
  // and the downgrade is counted — never a wrong answer, never silent.
  EXPECT_GE(counter_value(after, "engine.layout.fallback") -
                counter_value(before, "engine.layout.fallback"),
            1u);
  ASSERT_EQ(got.queries.size(), truth.queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& g = got.queries[q].neighbors;
    const auto& w = truth.queries[q].neighbors;
    ASSERT_EQ(g.size(), w.size()) << "query " << q;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].id, w[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(g[i].dist, w[i].dist) << "query " << q << " rank " << i;
    }
  }
}

TEST(ImplicitStackless, ShardedServingStaysExactAcrossShardCounts) {
  const PointSet points = noaa_points(40, 25);
  const PointSet queries = data::sample_queries(points, 10, 0.5, 17);
  knn::GpuKnnOptions ref;
  ref.k = 8;
  const knn::BatchResult truth = knn::brute_force_batch(points, queries, ref);

  for (const std::size_t shards : {1u, 4u, 13u}) {
    shard::ShardedEngineOptions sopts;
    sopts.num_shards = shards;
    sopts.degree = 16;
    sopts.engine.algorithm = engine::Algorithm::kStacklessSkip;
    sopts.engine.layout = engine::NodeLayout::kImplicit;
    sopts.engine.gpu.k = 8;
    shard::ShardedEngine eng(points, sopts);
    const knn::BatchResult got = eng.run(queries);
    EXPECT_TRUE(got.all_ok());
    ASSERT_EQ(got.queries.size(), truth.queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<Scalar> want =
          test::reference_knn_distances(points, queries[q], ref.k);
      test::expect_knn_matches(got.queries[q].neighbors, want,
                               ("S" + std::to_string(shards)).c_str());
    }
  }
}

}  // namespace
}  // namespace psb
