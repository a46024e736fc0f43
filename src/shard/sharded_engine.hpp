// ShardedEngine: scatter-gather kNN over Hilbert-range shards.
//
// The dataset is split into S contiguous ranges of its Hilbert order
// (partition.hpp); each shard owns a private copy of its points, its own
// SS-tree, and (in snapshot mode) its own layout::TraversalSnapshot. A query
// visits shards in ascending MINDIST to the shard bounding sphere; the
// running global k-th distance from already-searched shards is handed to
// later shards as GpuKnnOptions::initial_prune_bound (bound sharing), and a
// shard whose sphere cannot beat the bound is skipped outright — its arena
// bytes are credited to engine.shard.bound_skip_saved_bytes.
//
// Exactness: the shared bound only seeds the *pruning* distance (one ULP
// inflated, see knn::detail::seed_shared_bound); candidate admission into
// each shard's k-list is unaffected, and shard-local ids are ascending in
// global id, so merging the per-shard lists under (dist, id) order yields
// exactly the global top-k. With num_shards == 1 (and no cache or erasures)
// the whole batch delegates to the shard's BatchEngine, making the S=1
// configuration bit-identical to the unsharded serving path.
//
// Degradation policy (docs/sharding.md): a dead (query, shard) slice — the
// engine.shard.slice fault — is rerun once and then answered by an exact
// alive-mask-aware brute-force scan of the shard (kDegradedFallback). Every
// other rung is engine::run_pass, the per-pass ladder shared with
// BatchEngine, with that alive-aware scan as its exact last rung; its
// events land in the engine.shard.* counters, and the recorded resume steps
// feed the stream-overlap model (engine.shard.exec_* counters).
//
// Online updates route to the owning shard through that shard tree's
// persistent sstree::Updater (one per tree, dropped whenever the tree is
// rebuilt or dropped), so a write refits only the leaves it touched; the
// optional LRU result cache (result_cache.hpp) is invalidated on every
// insert/erase, so cached answers stay exact across mutations.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "engine/batch_engine.hpp"
#include "shard/result_cache.hpp"

namespace psb::shard {

/// Which builder constructs each shard's SS-tree.
enum class ShardTreeBuilder { kKMeans, kHilbert, kTopDown };

struct ShardedEngineOptions {
  std::size_t num_shards = 4;
  /// Per-shard SS-tree fanout.
  std::size_t degree = 64;
  ShardTreeBuilder builder = ShardTreeBuilder::kKMeans;
  /// Serving configuration shared by every shard pass (algorithm, k, gpu,
  /// layout). deadline_ms only applies on the S=1 delegate path.
  engine::BatchEngineOptions engine{};
  /// Hand the running global k-th distance to later shards as their initial
  /// pruning bound, and skip shards whose bounding sphere cannot beat it.
  /// Off = every shard is searched with an infinite initial bound (the
  /// `sharded_nobound` bench variant).
  bool share_bounds = true;
  /// LRU result-cache entries; 0 disables the cache. Cache-enabled batches
  /// run single-threaded so hit/miss counters stay deterministic.
  std::size_t cache_capacity = 0;
};

class ShardedEngine {
 public:
  /// Partition `data` and build every shard's index. The engine copies the
  /// points it owns, so `data` need not outlive it. Throws InvalidArgument
  /// naming the first point with a NaN or infinite coordinate.
  ShardedEngine(const PointSet& data, ShardedEngineOptions opts);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const ShardedEngineOptions& options() const noexcept { return opts_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t dims() const noexcept { return dims_; }
  /// Alive (indexed) points across all shards.
  std::size_t size() const noexcept;
  /// Alive points of shard s.
  std::size_t shard_size(std::size_t s) const;
  /// Shard s's tree; null while the shard is empty.
  const sstree::SSTree* shard_tree(std::size_t s) const;

  /// Answer a batch by scatter-gather (or the S=1 delegate). Emits one trace
  /// per query under the algorithm's name when an obs session is active.
  /// Throws InvalidArgument naming the first query with a NaN or infinite
  /// coordinate.
  knn::BatchResult run(const PointSet& queries);

  using TracedRun = engine::BatchEngine::TracedRun;
  /// Like run(), but installs a private collector and returns the traces.
  TracedRun run_traced(const PointSet& queries);

  /// Insert a point online (routed to the shard whose bounding-sphere center
  /// is nearest); returns its new global id. Invalidates affected cache
  /// entries. Throws InvalidArgument naming a NaN or infinite coordinate.
  PointId insert(std::span<const Scalar> p);

  /// Erase a point from its shard's index; returns false when the id is
  /// unknown or already erased. Invalidates cache entries containing it.
  bool erase(PointId global_id);

 private:
  struct Shard;

  void drop_index(Shard& sh) const;
  void rebuild_index(Shard& sh);
  void refresh_after_update(Shard& sh);
  void recompute_bounds(Shard& sh) const;
  void refresh_delegate();
  void compact(Shard& sh, std::size_t shard_idx);

  knn::QueryResult serve_query(std::span<const Scalar> q, simt::Metrics& m,
                               std::span<std::uint64_t> ev,
                               std::vector<simt::StepPhase>& steps);
  knn::QueryResult run_shard_pass(Shard& sh, std::span<const Scalar> q, Scalar shared_bound,
                                  simt::Metrics& m, std::span<std::uint64_t> ev,
                                  std::vector<simt::StepPhase>& steps);

  std::size_t dims_ = 0;
  ShardedEngineOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// global id -> (shard, local id); grows with insert(), never shrinks.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> locator_;
  PointId next_global_ = 0;
  std::unique_ptr<ResultCache> cache_;
  /// S=1 fast path: the whole batch runs through the shard's BatchEngine
  /// (bit-identical to unsharded serving). Dropped permanently after the
  /// first erase (the scatter path's alive-aware fallbacks take over) and
  /// never built while the cache is on.
  std::unique_ptr<engine::BatchEngine> delegate_;
  bool any_erased_ = false;
};

}  // namespace psb::shard
