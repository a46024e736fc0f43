#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "hilbert/hilbert.hpp"
#include "knn/brute_force.hpp"
#include "layout/implicit.hpp"
#include "layout/snapshot.hpp"
#include "obs/registry.hpp"
#include "shard/partition.hpp"
#include "simt/block.hpp"
#include "sstree/builders.hpp"
#include "sstree/update.hpp"

namespace psb::shard {
namespace {

/// Per-query degradation/behavior events, accumulated lock-free in disjoint
/// slots and folded into the obs registry on the merge thread (so totals are
/// independent of thread count). Indexes into the per-query ev array.
enum Ev : std::size_t {
  kEvVisits = 0,         ///< (query, shard) passes actually executed
  kEvBoundSkips,         ///< whole shards pruned by the shared bound
  kEvBoundSkipBytes,     ///< arena bytes of those shards ("saved accessed-bytes")
  kEvCacheHits,
  kEvCacheMisses,
  kEvCacheStores,
  kEvSliceDeaths,        ///< engine.shard.slice fired on a pass
  kEvSliceReruns,        ///< pass recovered by the one-shot rerun
  kEvSliceBrutes,        ///< rerun died too; exact shard scan answered
  kEvDataFaults,         ///< a fetch raised DataFault
  kEvRetries,            ///< recovered by the pointer-path restart retry
  kEvBruteFallbacks,     ///< recovered by the exact shard scan
  kEvBudgetExhausted,    ///< a pass stopped on its node budget
  kEvResumeFaults,       ///< exec.resume killed a pass's resume step
  kEvResumeReruns,       ///< pass recovered by a fresh-executor rerun
  kEvResumeBrutes,       ///< rerun died too; exact shard scan answered
  kNumEv,
};

constexpr std::string_view kEvCounter[kNumEv] = {
    "engine.shard.shard_visits",       "engine.shard.bound_skips",
    "engine.shard.bound_skip_saved_bytes", "engine.shard.cache_hits",
    "engine.shard.cache_misses",       "engine.shard.cache_stores",
    "engine.shard.slice_deaths",       "engine.shard.slice_reruns",
    "engine.shard.slice_brute_fallbacks", "engine.shard.data_faults",
    "engine.shard.retries",            "engine.shard.brute_fallbacks",
    "engine.shard.budget_exhausted",   "engine.shard.resume_faults",
    "engine.shard.resume_reruns",      "engine.shard.resume_brute_fallbacks",
};

/// locator_ row of a dead point that compact() packed out of its shard.
constexpr std::uint32_t kNoRow = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// One Hilbert range of the dataset: a private point copy, the shard's
/// SS-tree (built over exactly those points, in original dataset order), its
/// optional frozen arena, and the erase-support alive mask. Heap-allocated
/// via unique_ptr so the tree's PointSet pointer stays stable.
struct ShardedEngine::Shard {
  PointSet points;                 ///< local copy; append-only (erased rows stay)
  std::vector<PointId> to_global;  ///< local id -> global id, ascending
  std::vector<std::uint8_t> alive;
  std::size_t alive_count = 0;
  std::unique_ptr<sstree::SSTree> tree;  ///< null while the shard is empty
  /// The tree's persistent online writer, created by its first write and
  /// dropped with the tree (an Updater caches the tree's structure).
  std::unique_ptr<sstree::Updater> updater;
  std::unique_ptr<layout::TraversalSnapshot> snapshot;
  bool snapshot_ok = false;
  std::unique_ptr<layout::ImplicitLayout> implicit;
  bool implicit_ok = false;
  Sphere bounds;              ///< covers every alive point (the scatter-order surface)
  std::size_t arena_bytes = 0;  ///< tree footprint, credited on a bound skip

  sstree::Updater& writer() {
    if (updater == nullptr) updater = std::make_unique<sstree::Updater>(tree.get());
    return *updater;
  }
};

ShardedEngine::ShardedEngine(const PointSet& data, ShardedEngineOptions opts)
    : dims_(data.dims()), opts_(std::move(opts)) {
  PSB_REQUIRE(dims_ > 0, "dataset must have dims > 0");
  PSB_REQUIRE(opts_.num_shards > 0, "num_shards must be > 0");
  PSB_REQUIRE(opts_.engine.gpu.k > 0, "k must be > 0");
  PSB_REQUIRE(opts_.degree >= 2, "degree must be >= 2");
  require_finite(data, "dataset point");

  const Partition part = hilbert_partition(data, opts_.num_shards);
  locator_.resize(data.size());
  shards_.reserve(opts_.num_shards);
  for (std::size_t s = 0; s < opts_.num_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->points = data.subset(part.shards[s]);
    sh->to_global = part.shards[s];
    sh->alive.assign(sh->to_global.size(), 1);
    sh->alive_count = sh->to_global.size();
    for (std::size_t i = 0; i < sh->to_global.size(); ++i) {
      locator_[sh->to_global[i]] = {static_cast<std::uint32_t>(s),
                                    static_cast<std::uint32_t>(i)};
    }
    shards_.push_back(std::move(sh));
  }
  next_global_ = static_cast<PointId>(data.size());
  for (auto& sh : shards_) rebuild_index(*sh);

  if (opts_.cache_capacity > 0) {
    Rect bounds = data.empty()
                      ? Rect{std::vector<Scalar>(dims_, 0), std::vector<Scalar>(dims_, 0)}
                      : hilbert::bounding_rect(data);
    cache_ = std::make_unique<ResultCache>(opts_.cache_capacity, std::move(bounds));
  }
  refresh_delegate();
}

ShardedEngine::~ShardedEngine() = default;

std::size_t ShardedEngine::size() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->alive_count;
  return total;
}

std::size_t ShardedEngine::shard_size(std::size_t s) const {
  PSB_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->alive_count;
}

const sstree::SSTree* ShardedEngine::shard_tree(std::size_t s) const {
  PSB_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->tree.get();
}

void ShardedEngine::drop_index(Shard& sh) const {
  sh.updater.reset();
  sh.tree.reset();
  sh.snapshot.reset();
  sh.snapshot_ok = false;
  sh.implicit.reset();
  sh.implicit_ok = false;
  sh.arena_bytes = 0;
  sh.bounds = Sphere{std::vector<Scalar>(dims_, 0), 0};
}

void ShardedEngine::rebuild_index(Shard& sh) {
  drop_index(sh);
  if (sh.points.empty()) return;

  sstree::BuildOutput built = [&] {
    switch (opts_.builder) {
      case ShardTreeBuilder::kHilbert:
        return sstree::build_hilbert(sh.points, opts_.degree);
      case ShardTreeBuilder::kTopDown:
        return sstree::build_topdown(sh.points, opts_.degree);
      case ShardTreeBuilder::kKMeans:
        break;
    }
    return sstree::build_kmeans(sh.points, opts_.degree);
  }();
  sh.tree = std::make_unique<sstree::SSTree>(std::move(built.tree));
  refresh_after_update(sh);
}

void ShardedEngine::refresh_after_update(Shard& sh) {
  sh.arena_bytes = sh.tree->stats().total_bytes;
  if (opts_.engine.needs_snapshot()) {
    sh.snapshot = std::make_unique<layout::TraversalSnapshot>(*sh.tree);
    sh.snapshot_ok = true;
  }
  if (opts_.engine.needs_implicit_layout()) {
    sh.implicit = std::make_unique<layout::ImplicitLayout>(*sh.tree);
    sh.implicit_ok = true;
  }
  recompute_bounds(sh);
}

void ShardedEngine::recompute_bounds(Shard& sh) const {
  sh.bounds = Sphere{std::vector<Scalar>(dims_, 0), 0};
  if (sh.alive_count == 0) return;
  std::vector<double> centroid(dims_, 0);
  for (std::size_t i = 0; i < sh.to_global.size(); ++i) {
    if (!sh.alive[i]) continue;
    const std::span<const Scalar> p = sh.points[i];
    for (std::size_t t = 0; t < dims_; ++t) centroid[t] += p[t];
  }
  for (std::size_t t = 0; t < dims_; ++t) {
    sh.bounds.center[t] = static_cast<Scalar>(centroid[t] / static_cast<double>(sh.alive_count));
  }
  Scalar radius = 0;
  for (std::size_t i = 0; i < sh.to_global.size(); ++i) {
    if (!sh.alive[i]) continue;
    radius = std::max(radius, distance(sh.bounds.center, sh.points[i]));
  }
  // One ULP of slack absorbs the float rounding of the centroid distance, so
  // `mindist(q, bounds) <= true distance to every alive point` holds exactly.
  sh.bounds.radius = next_up(radius);
}

void ShardedEngine::refresh_delegate() {
  delegate_.reset();
  if (shards_.size() != 1 || cache_ != nullptr || any_erased_) return;
  Shard& sh = *shards_.front();
  if (sh.tree == nullptr) return;
  delegate_ = std::make_unique<engine::BatchEngine>(*sh.tree, opts_.engine);
}

void ShardedEngine::compact(Shard& sh, std::size_t shard_idx) {
  PointSet packed(dims_);
  std::vector<PointId> to_global;
  packed.reserve(sh.alive_count);
  to_global.reserve(sh.alive_count);
  for (std::size_t i = 0; i < sh.to_global.size(); ++i) {
    if (!sh.alive[i]) {
      // The row index is about to name another point: erase() of this dead
      // id must keep reporting false.
      locator_[sh.to_global[i]].second = kNoRow;
      continue;
    }
    const PointId local = packed.append(sh.points[i]);
    to_global.push_back(sh.to_global[i]);
    locator_[sh.to_global[i]] = {static_cast<std::uint32_t>(shard_idx),
                                 static_cast<std::uint32_t>(local)};
  }
  sh.points = std::move(packed);
  sh.to_global = std::move(to_global);
  sh.alive.assign(sh.to_global.size(), 1);
  sh.alive_count = sh.to_global.size();
}

knn::BatchResult ShardedEngine::run(const PointSet& queries) {
  PSB_REQUIRE(queries.dims() == dims_, "query dimensionality mismatch");
  require_finite(queries, "query");
  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.shard.batches", 1);
  reg.add("engine.shard.queries", queries.size());

  if (delegate_ != nullptr) return delegate_->run(queries);

  const std::size_t n = queries.size();

  // Arena integrity gates, per shard (mirrors BatchEngine): the corruption
  // faults may land on any shard's arena; a failed verify() drops that shard
  // to the pointer-walking fetch path until its arena is rebuilt. The
  // implicit downgrade is counted (engine.layout.fallback) — a requested
  // layout is never dropped silently.
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    if (sh.snapshot != nullptr) {
      fault::strike(sh.snapshot.get(), fault::kSiteSnapshotSegment);
      const bool ok = sh.snapshot->verify();
      if (sh.snapshot_ok && !ok) reg.add("engine.shard.snapshot_fallback", 1);
      sh.snapshot_ok = ok;
    }
    if (sh.implicit != nullptr) {
      fault::strike(sh.implicit.get(), fault::kSiteImplicitEscape);
      const bool ok = sh.implicit->verify();
      if (sh.implicit_ok && !ok) reg.add("engine.layout.fallback", 1);
      sh.implicit_ok = ok;
    }
  }
  // The task-parallel kernel has no implicit-arena path; the scatter passes
  // below serve it from the snapshot/pointer path — an explicit counted
  // downgrade, never silent.
  if (opts_.engine.algorithm == engine::Algorithm::kTaskParallel &&
      opts_.engine.needs_implicit_layout()) {
    reg.add("engine.layout.fallback", 1);
  }

  std::vector<knn::QueryResult> results(n);
  std::vector<simt::Metrics> metrics(n);
  std::vector<std::array<std::uint64_t, kNumEv>> events(n);
  for (auto& ev : events) ev.fill(0);
  // A query's shard passes serialize (the shared bound feeds forward), so
  // its resume steps across all passes concatenate into one per-query
  // stream; cross-query interleaving is where the modeled overlap comes
  // from, exactly as in BatchEngine.
  std::vector<std::vector<simt::StepPhase>> step_slots(n);

  const auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t q = begin; q < end; ++q) {
      results[q] = serve_query(queries[q], metrics[q], events[q], step_slots[q]);
    }
  };

  // Queries are independent (disjoint slots, registry folding deferred), so
  // static slices parallelize without changing any result. Cache-enabled
  // batches run serially: LRU state and hit/miss counters would otherwise
  // depend on thread interleaving.
  engine::run_slices(cache_ != nullptr ? 1 : opts_.engine.num_threads, n, work);

  knn::BatchResult out;
  out.queries = std::move(results);
  const bool traced = obs::enabled();
  const std::string_view name = engine::algorithm_name(opts_.engine.algorithm);
  std::uint64_t totals[kNumEv] = {};
  for (std::size_t q = 0; q < n; ++q) {
    out.stats.merge(out.queries[q].stats);
    out.metrics.merge(metrics[q]);
    if (traced) obs::emit(name, knn::make_query_trace(q, out.queries[q].stats, metrics[q]));
    for (std::size_t b = 0; b < kNumEv; ++b) totals[b] += events[q][b];
  }
  for (std::size_t b = 0; b < kNumEv; ++b) {
    if (totals[b] > 0) reg.add(kEvCounter[b], totals[b]);
  }
  // Overlap schedule over cohorts of warp_queries consecutive queries (batch
  // order; the scatter path never reorders). Computed on the merge thread
  // from the per-query step streams, so totals are worker-count independent.
  const std::size_t cohort = std::max<std::size_t>(opts_.engine.warp_queries, 1);
  std::vector<const std::vector<simt::StepPhase>*> cohort_steps;
  for (std::size_t begin = 0; begin < n; begin += cohort) {
    cohort_steps.clear();
    const std::size_t end = std::min(n, begin + cohort);
    for (std::size_t q = begin; q < end; ++q) cohort_steps.push_back(&step_slots[q]);
    out.exec.merge(simt::pipeline_schedule(opts_.engine.gpu.device, cohort_steps));
  }
  if (out.exec.steps > 0) {
    reg.add("engine.shard.exec_steps", out.exec.steps);
    reg.add("engine.shard.exec_serialized_cycles", out.exec.serialized_cycles);
    reg.add("engine.shard.exec_overlapped_cycles", out.exec.overlapped_cycles);
  }
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(std::max<std::size_t>(n, 1));
  cfg.threads_per_block =
      engine::block_threads_for(opts_.engine.algorithm, opts_.degree, opts_.engine.gpu);
  out.timing = simt::estimate(opts_.engine.gpu.device, out.metrics, cfg);
  return out;
}

ShardedEngine::TracedRun ShardedEngine::run_traced(const PointSet& queries) {
  obs::TraceSession session;
  TracedRun out;
  out.result = run(queries);
  out.trace = session.report();
  return out;
}

knn::QueryResult ShardedEngine::serve_query(std::span<const Scalar> q, simt::Metrics& m,
                                            std::span<std::uint64_t> ev,
                                            std::vector<simt::StepPhase>& steps) {
  const std::size_t k = opts_.engine.gpu.k;

  // Exact-match cache probe. Bypassed while fault injection is armed so
  // campaigns exercise the serving path, not a memoized answer.
  const bool use_cache = cache_ != nullptr && !fault::enabled();
  if (use_cache) {
    if (auto hit = cache_->lookup(q, k)) {
      ++ev[kEvCacheHits];
      knn::QueryResult out;
      out.neighbors = std::move(*hit);
      return out;
    }
    ++ev[kEvCacheMisses];
  }

  knn::QueryResult out;
  std::size_t total_alive = 0;
  for (const auto& sh : shards_) total_alive += sh->alive_count;
  if (total_alive == 0) return out;  // empty engine: empty exact answer

  // Scatter order: ascending MINDIST to the shard bounding sphere, shard
  // index breaking ties — the nearest region is searched first so the shared
  // bound tightens as early as possible.
  struct Visit {
    Scalar mind;
    std::size_t s;
  };
  std::vector<Visit> visits;
  visits.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    if (sh.tree == nullptr || sh.alive_count == 0) continue;
    visits.push_back({mindist(q, sh.bounds), s});
  }
  std::sort(visits.begin(), visits.end(), [](const Visit& a, const Visit& b) {
    return a.mind != b.mind ? a.mind < b.mind : a.s < b.s;
  });

  KnnHeap merged(std::min(k, total_alive));
  for (const Visit& v : visits) {
    Shard& sh = *shards_[v.s];
    if (opts_.share_bounds && merged.full() &&
        v.mind > next_up(merged.bound())) {
      // Every point of the shard is at least MINDIST away, strictly beyond
      // the current k-th (even under tie-breaking, hence the one-ULP guard):
      // the whole tree is pruned without a fetch.
      ++ev[kEvBoundSkips];
      ev[kEvBoundSkipBytes] += sh.arena_bytes;
      continue;
    }
    ++ev[kEvVisits];
    const Scalar bound =
        opts_.share_bounds && merged.full() ? merged.bound() : kInfinity;
    knn::QueryResult local = run_shard_pass(sh, q, bound, m, ev, steps);
    for (const KnnHeap::Entry& e : local.neighbors) {
      merged.offer(e.dist, sh.to_global[e.id]);
    }
    out.stats.merge(local.stats);
    out.status = std::max(out.status, local.status);
    out.budget_exhausted = out.budget_exhausted || local.budget_exhausted;
  }
  out.neighbors = merged.sorted();

  if (use_cache && out.status == knn::QueryStatus::kOk) {
    cache_->store(q, k, out.neighbors);
    ++ev[kEvCacheStores];
  }
  return out;
}

knn::QueryResult ShardedEngine::run_shard_pass(Shard& sh, std::span<const Scalar> q,
                                               Scalar shared_bound, simt::Metrics& m,
                                               std::span<std::uint64_t> ev,
                                               std::vector<simt::StepPhase>& steps) {
  // The shard's exact scan is alive-aware: erased rows stay in the local
  // PointSet (and in the coalesced stream) but are never answered.
  const auto scan = [&](const knn::GpuKnnOptions& gpu) {
    simt::Block block(gpu.device, knn::brute_force_threads(gpu), &m);
    return knn::filtered_scan(block, sh.points, q, std::min(gpu.k, sh.alive_count),
                              [&sh](PointId i) { return sh.alive[i] != 0; });
  };

  // engine.shard.slice: this (query, shard) pass died before producing a
  // result. Rerun it (injected faults are one-shot, so the rerun sees clean
  // state and its answer is exact — a masked fault); if the rerun dies too,
  // the exact alive-aware scan answers, flagged kDegradedFallback.
  if (fault::enabled() && fault::evaluate(fault::kSiteShardSlice)) {
    ++ev[kEvSliceDeaths];
    if (fault::evaluate(fault::kSiteShardSlice)) {
      ++ev[kEvSliceBrutes];
      knn::QueryResult r = scan(opts_.engine.gpu);
      r.status = knn::QueryStatus::kDegradedFallback;
      return r;
    }
    ++ev[kEvSliceReruns];
  }

  knn::GpuKnnOptions gpu = opts_.engine.gpu;
  gpu.initial_prune_bound = shared_bound;
  gpu.snapshot = sh.snapshot_ok ? sh.snapshot.get() : nullptr;
  gpu.implicit = sh.implicit_ok ? sh.implicit.get() : nullptr;
  gpu.fetch_session = nullptr;
  std::uint16_t pass_ev = 0;
  knn::QueryResult r = engine::run_pass(opts_.engine.algorithm, *sh.tree, q, std::move(gpu),
                                        /*deadline_cut=*/false, scan, &m, steps, pass_ev);
  // Unlike BatchEngine, the resume rung keeps its own rerun and scan counts.
  static constexpr std::pair<std::uint16_t, Ev> kPassCounter[] = {
      {engine::kPassDataFault, kEvDataFaults},
      {engine::kPassRetried, kEvRetries},
      {engine::kPassRetryScan | engine::kPassBudgetScan, kEvBruteFallbacks},
      {engine::kPassBudgetExhausted, kEvBudgetExhausted},
      {engine::kPassResumeFault, kEvResumeFaults},
      {engine::kPassResumeRerun, kEvResumeReruns},
      {engine::kPassResumeScan, kEvResumeBrutes},
  };
  for (const auto& [mask, e] : kPassCounter) {
    if ((pass_ev & mask) != 0) ++ev[e];
  }
  return r;
}

PointId ShardedEngine::insert(std::span<const Scalar> p) {
  PSB_REQUIRE(p.size() == dims_, "point dimensionality mismatch");
  require_finite(p, "inserted point");
  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.shard.inserts", 1);

  // Owner: the shard whose bounding-sphere center is nearest (lowest index
  // on ties). With every shard empty the first shard takes it.
  std::size_t best = 0;
  Scalar best_dist = kInfinity;
  bool found = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    if (sh.tree == nullptr || sh.alive_count == 0) continue;
    const Scalar d = distance(p, sh.bounds.center);
    if (!found || d < best_dist) {
      best = s;
      best_dist = d;
      found = true;
    }
  }

  Shard& sh = *shards_[best];
  if (sh.tree == nullptr && !sh.points.empty()) {
    // Emptied-by-erasure shard regaining a point: pack the dead rows out so
    // the from-scratch builder (which indexes every row) stays correct.
    compact(sh, best);
  }
  const PointId local = sh.points.append(p);
  const PointId global = next_global_++;
  sh.to_global.push_back(global);
  sh.alive.push_back(1);
  ++sh.alive_count;
  locator_.push_back({static_cast<std::uint32_t>(best), local});

  if (sh.tree == nullptr) {
    rebuild_index(sh);
  } else {
    sstree::Updater& updater = sh.writer();
    updater.insert(local);
    updater.commit();
    refresh_after_update(sh);
  }
  if (cache_ != nullptr) {
    reg.add("engine.shard.cache_invalidated", cache_->invalidate_insert(p));
  }
  refresh_delegate();
  return global;
}

bool ShardedEngine::erase(PointId global_id) {
  if (global_id >= locator_.size()) return false;
  const auto [s, local] = locator_[global_id];
  Shard& sh = *shards_[s];
  if (local == kNoRow || !sh.alive[local]) return false;

  if (sh.alive_count == 1) {
    // Last alive point: drop the index entirely (a tree cannot go empty
    // through commit()); the dead rows stay until a future insert compacts.
    drop_index(sh);
  } else {
    sstree::Updater& updater = sh.writer();
    const bool was_indexed = updater.erase(local);
    PSB_ASSERT(was_indexed, "alive point missing from its shard index");
    updater.commit();
  }
  sh.alive[local] = 0;
  --sh.alive_count;
  if (sh.tree != nullptr) refresh_after_update(sh);
  any_erased_ = true;

  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.shard.erases", 1);
  if (cache_ != nullptr) {
    reg.add("engine.shard.cache_invalidated", cache_->invalidate_erase(global_id));
  }
  refresh_delegate();
  return true;
}

}  // namespace psb::shard
