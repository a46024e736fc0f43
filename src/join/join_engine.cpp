#include "join/join_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/brute_force.hpp"
#include "knn/detail/traversal_common.hpp"
#include "knn/shared_heap.hpp"
#include "layout/fetch.hpp"
#include "layout/implicit.hpp"
#include "layout/snapshot.hpp"
#include "obs/registry.hpp"
#include "mbs/ritter.hpp"

namespace psb::join {
namespace {

/// Maximum queries per dual-walk cohort. A single home-leaf group wider
/// than the cap is never split.
constexpr std::size_t kCohortQueries = 128;

/// Per-cohort degradation/behavior events, accumulated lock-free in disjoint
/// slots and folded into the obs registry on the merge thread (so totals are
/// independent of thread count). Indexes into the per-cohort ev array.
enum Ev : std::size_t {
  kEvPairPrunes = 0,     ///< source subtrees pruned for a whole cohort
  kEvPruneSavedBytes,    ///< pointer-path bytes of those subtrees
  kEvMaxdistTightens,    ///< MAXDIST-eligible children applied to the bound vector
  kEvLeafRefineSkips,    ///< (query, leaf) refinements skipped by the bound
  kEvPairDeaths,         ///< engine.join.pair fired on a cohort walk
  kEvPairReruns,         ///< cohort recovered by the single-tree rerun
  kEvPairBrutes,         ///< rerun died too; exact brute-force join answered
  kEvDataFaults,         ///< a fetch raised DataFault mid-walk
  kEvSingleReruns,       ///< cohort recovered (flagged) by the single-tree path
  kNumEv,
};

constexpr std::string_view kEvCounter[kNumEv] = {
    "engine.join.pair_prunes",     "engine.join.prune_saved_bytes",
    "engine.join.maxdist_tightens", "engine.join.leaf_refine_skips",
    "engine.join.pair_deaths",     "engine.join.pair_reruns",
    "engine.join.pair_brute_fallbacks", "engine.join.data_faults",
    "engine.join.single_reruns",
};

/// MINDIST between node pairs (cohort sphere vs every child sphere of
/// internal node `n`), one lane per child — the dual-tree analogue of
/// knn::detail::child_bounds. Pair MINDIST is frontier ordering only (a
/// prune is decided per query against the exact single-tree bound math —
/// see survives in pair_walk), so its float rounding is harmless.
struct PairBounds {
  std::vector<Scalar> mind;
};

PairBounds pair_child_bounds(simt::Block& block, const sstree::SSTree& tree,
                             const sstree::Node& n, const Sphere& cohort) {
  const std::size_t c = n.children.size();
  const std::size_t d = tree.dims();
  PairBounds out;
  out.mind.resize(c);
  const std::uint64_t ops = static_cast<std::uint64_t>(d) * 3 + 4;
  block.par_for(c, ops, [&](std::size_t i) {
    double acc = 0;
    for (std::size_t t = 0; t < d; ++t) {
      const double diff = static_cast<double>(cohort.center[t]) - n.child_centers[t * c + i];
      acc += diff * diff;
    }
    const double cd = std::sqrt(acc);
    const double rr = static_cast<double>(n.child_radii[i]) + static_cast<double>(cohort.radius);
    out.mind[i] = std::max(Scalar{0}, static_cast<Scalar>(cd - rr));
  });
  return out;
}

/// Exclude `self` from a sorted neighbor list (at most one entry — ids are
/// unique) and truncate to k. Order statistics make this exact: the k+1
/// lexicographically smallest (dist, id) pairs minus the self entry contain
/// exactly the k smallest pairs over all other points.
void exclude_self(std::vector<KnnHeap::Entry>& v, PointId self, std::size_t k) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].id == self) {
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (v.size() > k) v.resize(k);
}

}  // namespace

std::string_view join_variant_name(JoinVariant v) noexcept {
  switch (v) {
    case JoinVariant::kDual: return "dual";
    case JoinVariant::kSingle: return "single";
    case JoinVariant::kBrute: return "brute";
  }
  return "unknown";
}

JoinVariant parse_join_variant(std::string_view name) {
  if (name == "dual") return JoinVariant::kDual;
  if (name == "single") return JoinVariant::kSingle;
  if (name == "brute") return JoinVariant::kBrute;
  throw InvalidArgument("unknown join variant: " + std::string(name));
}

/// One cohort's walk state: the queries (target rows), their k-lists, and
/// the cohort-shared fetch/stat accounting.
struct JoinEngine::Cohort {
  const PointSet& targets;
  std::span<const PointId> query_ids;  ///< rows of `targets` (= source ids on a self-join)
  const Sphere& sphere;                ///< Ritter sphere over the cohort's targets
  bool exclude = false;                ///< drop each query's own id (self-join)
  std::size_t k_eff = 0;
  std::span<knn::QueryResult> results;  ///< one slot per query, query_ids order
  std::span<std::uint64_t> ev;
  knn::TraversalStats shared;  ///< cohort-shared fetch counters (not per query)
};

JoinEngine::JoinEngine(const sstree::SSTree& tree, JoinOptions opts)
    : tree_(tree), opts_(std::move(opts)) {
  PSB_REQUIRE(opts_.k > 0, "k must be > 0");
  PSB_REQUIRE(!tree_.data().empty(), "join source tree must be non-empty");
  if (opts_.engine.needs_snapshot()) {
    snapshot_ = std::make_unique<layout::TraversalSnapshot>(tree_);
    snapshot_ok_ = true;
  }
  if (opts_.engine.needs_implicit_layout()) {
    implicit_ = std::make_unique<layout::ImplicitLayout>(tree_);
    implicit_ok_ = true;
  }
  // One DFS for the MAXDIST precondition (a subtree can only bound the k-th
  // distance if it holds at least k admissible points) and the saved-bytes
  // credit of a pair prune (the subtree's pointer-path footprint).
  subtree_points_.assign(tree_.num_nodes(), 0);
  subtree_bytes_.assign(tree_.num_nodes(), 0);
  std::vector<NodeId> stack{tree_.root()};
  std::vector<NodeId> order;
  order.reserve(tree_.num_nodes());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (const NodeId c : tree_.node(id).children) stack.push_back(c);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const sstree::Node& n = tree_.node(*it);
    std::uint64_t pts = n.points.size();
    std::uint64_t bytes = tree_.node_byte_size(n);
    for (const NodeId c : n.children) {
      pts += subtree_points_[c];
      bytes += subtree_bytes_[c];
    }
    subtree_points_[*it] = pts;
    subtree_bytes_[*it] = bytes;
  }
}

JoinEngine::~JoinEngine() = default;

engine::BatchEngine& JoinEngine::single_engine(std::size_t engine_k) {
  if (single_ == nullptr || single_k_ != engine_k) {
    engine::BatchEngineOptions e = opts_.engine;
    e.gpu.k = engine_k;
    single_ = std::make_unique<engine::BatchEngine>(tree_, e);
    single_k_ = engine_k;
  }
  return *single_;
}

knn::BatchResult JoinEngine::all_knn() { return run(tree_.data(), /*self_join=*/true); }

knn::BatchResult JoinEngine::knn_join(const PointSet& targets) {
  require_finite(targets, "target");
  return run(targets, /*self_join=*/false);
}

JoinEngine::TracedRun JoinEngine::all_knn_traced() {
  obs::TraceSession session;
  TracedRun out;
  out.result = all_knn();
  out.trace = session.report();
  return out;
}

JoinEngine::TracedRun JoinEngine::knn_join_traced(const PointSet& targets) {
  obs::TraceSession session;
  TracedRun out;
  out.result = knn_join(targets);
  out.trace = session.report();
  return out;
}

knn::BatchResult JoinEngine::run(const PointSet& targets, bool self_join) {
  PSB_REQUIRE(targets.dims() == tree_.dims(), "target dimensionality mismatch");
  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.join.batches", 1);
  reg.add("engine.join.queries", targets.size());

  switch (opts_.variant) {
    case JoinVariant::kDual: return run_dual(targets, self_join);
    case JoinVariant::kSingle: return run_single(targets, self_join);
    case JoinVariant::kBrute: return run_brute(targets, self_join);
  }
  throw InternalError("unreachable join variant dispatch");
}

knn::BatchResult JoinEngine::run_single(const PointSet& targets, bool self_join) {
  const bool exclude = self_join && !opts_.include_self;
  const std::size_t n = tree_.data().size();
  const std::size_t admissible = n - (exclude ? 1 : 0);
  const std::size_t k_eff = std::min(opts_.k, admissible);
  if (targets.empty() || k_eff == 0) {
    knn::BatchResult out;
    out.queries.resize(targets.size());
    return out;
  }
  // The self-exclusion list is one entry wider: the k_eff+1 smallest
  // (dist, id) pairs minus the query's own row are exactly the k_eff nearest
  // other points (see exclude_self).
  knn::BatchResult out = single_engine(exclude ? k_eff + 1 : k_eff).run(targets);
  for (std::size_t q = 0; q < out.queries.size(); ++q) {
    if (exclude) exclude_self(out.queries[q].neighbors, static_cast<PointId>(q), k_eff);
  }
  return out;
}

knn::BatchResult JoinEngine::run_brute(const PointSet& targets, bool self_join) {
  const bool exclude = self_join && !opts_.include_self;
  const std::size_t n = tree_.data().size();
  const std::size_t k_eff = std::min(opts_.k, n - (exclude ? 1 : 0));
  knn::BatchResult out;
  out.queries.resize(targets.size());
  if (targets.empty() || k_eff == 0) return out;

  const knn::GpuKnnOptions& gpu = opts_.engine.gpu;
  const int threads = knn::brute_force_threads(gpu);
  for (std::size_t q = 0; q < targets.size(); ++q) {
    simt::Metrics m;
    simt::Block block(gpu.device, threads, &m);
    const PointId self = exclude ? static_cast<PointId>(q) : kInvalidPoint;
    out.queries[q] = knn::filtered_scan(block, tree_.data(), targets[q], k_eff,
                                        [self](PointId id) { return id != self; });
    out.stats.merge(out.queries[q].stats);
    out.metrics.merge(m);
    if (obs::enabled()) {
      obs::emit("join_brute", knn::make_query_trace(q, out.queries[q].stats, m));
    }
  }
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(targets.size());
  cfg.threads_per_block = threads;
  out.timing = simt::estimate(gpu.device, out.metrics, cfg);
  return out;
}

knn::BatchResult JoinEngine::run_dual(const PointSet& targets, bool self_join) {
  obs::Registry& reg = obs::Registry::global();
  const bool exclude = self_join && !opts_.include_self;
  const std::size_t n_src = tree_.data().size();
  const std::size_t k_eff = std::min(opts_.k, n_src - (exclude ? 1 : 0));
  const std::size_t n = targets.size();

  knn::BatchResult out;
  out.queries.resize(n);
  if (n == 0 || k_eff == 0) return out;

  // Arena integrity gates (mirrors BatchEngine / ShardedEngine): the
  // corruption faults may land on the frozen arena; a failed verify() drops
  // the walk to the pointer-walking fetch path with the counted
  // engine.layout.fallback downgrade — never silently.
  if (snapshot_ != nullptr) {
    fault::strike(snapshot_.get(), fault::kSiteSnapshotSegment);
    const bool ok = snapshot_->verify();
    if (snapshot_ok_ && !ok) reg.add("engine.layout.fallback", 1);
    snapshot_ok_ = ok;
  }
  if (implicit_ != nullptr) {
    fault::strike(implicit_.get(), fault::kSiteImplicitEscape);
    const bool ok = implicit_->verify();
    if (implicit_ok_ && !ok) reg.add("engine.layout.fallback", 1);
    implicit_ok_ = ok;
  }

  // Target cohorts: queries are grouped with the source leaf that holds
  // their neighborhood (a self-join reads that off the leaf partition; a
  // kNN-join assigns each target to its nearest source leaf — MINDIST, then
  // center distance, then leaf order, fully deterministic), and consecutive
  // home-leaf groups are merged up to kCohortQueries queries. Home-leaf
  // alignment is what keeps the walk competitive on arena layouts, where
  // the single-tree path already amortizes fetches across its warp windows:
  // the cohort's home leaves pop first (pair MINDIST ~0), one refinement
  // snaps every query's bound to near-final, and the rest of the tree
  // prunes. Merging then amortizes the shared spine (root and near-top
  // nodes are fetched once per cohort, so fewer cohorts = fewer repeat
  // fetches); the cap keeps a cohort's k-list vector inside one modeled
  // block's shared memory and preserves cohort-level parallelism.
  const std::vector<NodeId>& src_leaves = tree_.leaves();
  std::vector<std::vector<PointId>> leaf_groups(src_leaves.size());
  if (self_join) {
    for (std::size_t l = 0; l < src_leaves.size(); ++l) {
      const std::span<const PointId> pts = tree_.node(src_leaves[l]).points;
      leaf_groups[l].assign(pts.begin(), pts.end());
    }
  } else {
    for (PointId t = 0; t < n; ++t) {
      const std::span<const Scalar> q = targets[t];
      std::size_t best = 0;
      Scalar best_md = kInfinity;
      Scalar best_cd = kInfinity;
      for (std::size_t l = 0; l < src_leaves.size(); ++l) {
        const Sphere& s = tree_.node(src_leaves[l]).sphere;
        const Scalar cd = distance(q, s.center);
        const Scalar md = std::max(Scalar{0}, cd - s.radius);
        if (md < best_md || (md == best_md && cd < best_cd)) {
          best = l;
          best_md = md;
          best_cd = cd;
        }
      }
      leaf_groups[best].push_back(t);
    }
  }
  std::vector<std::vector<PointId>> cohort_ids;
  for (std::vector<PointId>& g : leaf_groups) {
    if (g.empty()) continue;
    if (!cohort_ids.empty() && cohort_ids.back().size() + g.size() <= kCohortQueries) {
      cohort_ids.back().insert(cohort_ids.back().end(), g.begin(), g.end());
    } else {
      cohort_ids.push_back(std::move(g));
    }
  }
  std::vector<Sphere> cohort_spheres;
  cohort_spheres.reserve(cohort_ids.size());
  for (const std::vector<PointId>& g : cohort_ids) {
    cohort_spheres.push_back(mbs::ritter_points(targets, g));
  }
  const std::size_t num_cohorts = cohort_ids.size();
  reg.add("engine.join.cohorts", num_cohorts);

  std::vector<simt::Metrics> metrics(num_cohorts);
  std::vector<knn::TraversalStats> shared(num_cohorts);
  std::vector<std::array<std::uint64_t, kNumEv>> events(num_cohorts);
  for (auto& ev : events) ev.fill(0);

  const auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      Cohort cohort{targets,
                    cohort_ids[c],
                    cohort_spheres[c],
                    exclude,
                    k_eff,
                    {out.queries.data(), out.queries.size()},
                    events[c],
                    {}};
      run_cohort(cohort, metrics[c]);
      shared[c] = cohort.shared;
    }
  };

  // Cohorts are independent (disjoint result slots per target leaf, registry
  // folding deferred to the merge thread), so static slices parallelize
  // without changing any result. Fault campaigns run serially: the lazily
  // built fallback engine and the arena corruption hooks are not re-entrant.
  engine::run_slices(fault::enabled() ? 1 : opts_.engine.num_threads, num_cohorts, work);

  // Merge in cohort order on the calling thread: per-query stats, then the
  // cohort-shared fetch counters (a node fetch is paid once per cohort, so
  // out.stats is NOT the sum of per-query stats in dual mode), the event
  // counters, and one trace per cohort.
  const bool traced = obs::enabled();
  std::uint64_t totals[kNumEv] = {};
  for (const knn::QueryResult& q : out.queries) out.stats.merge(q.stats);
  for (std::size_t c = 0; c < num_cohorts; ++c) {
    out.stats.merge(shared[c]);
    out.metrics.merge(metrics[c]);
    if (traced) {
      knn::TraversalStats cohort_stats = shared[c];
      for (const PointId pid : cohort_ids[c]) {
        cohort_stats.merge(out.queries[pid].stats);
      }
      obs::emit("join_dual", knn::make_query_trace(c, cohort_stats, metrics[c]));
    }
    for (std::size_t b = 0; b < kNumEv; ++b) totals[b] += events[c][b];
  }
  for (std::size_t b = 0; b < kNumEv; ++b) {
    if (totals[b] > 0) reg.add(kEvCounter[b], totals[b]);
  }
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(num_cohorts);
  cfg.threads_per_block = knn::detail::resolve_block_threads(opts_.engine.gpu, tree_.degree());
  out.timing = simt::estimate(opts_.engine.gpu.device, out.metrics, cfg);
  return out;
}

void JoinEngine::run_cohort(Cohort& cohort, simt::Metrics& m) {
  // engine.join.pair ladder: a cohort whose pair walk died before producing
  // a result is rerun through the single-tree path (the injected kill is
  // one-shot, so the rerun sees a quiet site and its answer is exact — a
  // masked fault); if that leg dies too, the exact brute-force join answers,
  // flagged kDegradedFallback — counted, never silent.
  if (fault::enabled() && fault::evaluate(fault::kSiteJoinPair)) {
    ++cohort.ev[kEvPairDeaths];
    if (fault::evaluate(fault::kSiteJoinPair)) {
      ++cohort.ev[kEvPairBrutes];
      const knn::GpuKnnOptions& gpu = opts_.engine.gpu;
      simt::Block block(gpu.device, knn::brute_force_threads(gpu), &m);
      for (const PointId qid : cohort.query_ids) {
        const PointId self = cohort.exclude ? qid : kInvalidPoint;
        knn::QueryResult& slot = cohort.results[qid];
        slot = knn::filtered_scan(block, tree_.data(), cohort.targets[qid], cohort.k_eff,
                                  [self](PointId id) { return id != self; });
        slot.status = knn::QueryStatus::kDegradedFallback;
      }
      return;
    }
    ++cohort.ev[kEvPairReruns];
    single_rerun(cohort, m, knn::QueryStatus::kOk);
    return;
  }
  try {
    pair_walk(cohort, m);
  } catch (const DataFault&) {
    // A fetch raised mid-walk (node integrity). The single-tree rerun is
    // exact but the cohort is flagged: its answer came off the normal path.
    ++cohort.ev[kEvDataFaults];
    ++cohort.ev[kEvSingleReruns];
    single_rerun(cohort, m, knn::QueryStatus::kDegradedFallback);
  }
}

void JoinEngine::single_rerun(Cohort& cohort, simt::Metrics& m, knn::QueryStatus floor) {
  PointSet qs(cohort.targets.dims());
  qs.reserve(cohort.query_ids.size());
  for (const PointId qid : cohort.query_ids) qs.append(cohort.targets[qid]);
  knn::BatchResult br =
      single_engine(cohort.exclude ? cohort.k_eff + 1 : cohort.k_eff).run(qs);
  for (std::size_t i = 0; i < cohort.query_ids.size(); ++i) {
    const PointId qid = cohort.query_ids[i];
    knn::QueryResult r = std::move(br.queries[i]);
    if (cohort.exclude) exclude_self(r.neighbors, qid, cohort.k_eff);
    r.status = std::max(r.status, floor);
    cohort.results[qid] = std::move(r);
  }
  m.merge(br.metrics);
}

void JoinEngine::pair_walk(Cohort& cohort, simt::Metrics& m) {
  const std::size_t d = tree_.dims();
  const std::size_t cq = cohort.query_ids.size();
  const bool sphere_mode = tree_.bounds_mode() == sstree::BoundsMode::kSphere;
  const knn::GpuKnnOptions& base_gpu = opts_.engine.gpu;

  const int threads = knn::detail::resolve_block_threads(base_gpu, tree_.degree());
  simt::Block block(base_gpu.device, threads, &m);

  // Arena fetch view: one per cohort — the whole cohort shares one resident
  // window, so a source node's bytes are paid once per cohort instead of
  // once per query (the amortization BENCH_gate_join.json gates).
  knn::GpuKnnOptions fopts = base_gpu;
  fopts.snapshot = snapshot_ok_ ? snapshot_.get() : nullptr;
  fopts.implicit = implicit_ok_ ? implicit_.get() : nullptr;
  fopts.fetch_session = nullptr;
  knn::detail::SnapshotFetch snap(tree_, fopts);

  std::vector<knn::SharedKnnList> lists;
  lists.reserve(cq);
  for (std::size_t i = 0; i < cq; ++i) {
    lists.emplace_back(block, cohort.k_eff, base_gpu.spill_heap_to_global);
  }
  std::vector<knn::TraversalStats> qstats(cq);

  // A candidate prune from the pair-MINDIST heuristic is confirmed against
  // the exact per-query bound math — the same float expressions the
  // single-tree traversals prune with, strictly safer by the one-ULP
  // inflation. The sphere-pair triangle inequality does not survive float
  // rounding on duplicate-heavy data (cd can exceed r1+r2 by a few ULPs of
  // the center distance); the per-query form carries the same guarantee the
  // whole algorithm zoo already relies on.
  const auto survives = [&](const sstree::Node& child) -> bool {
    bool any = false;
    block.par_for(cq, static_cast<std::uint64_t>(d) * 3 + 2, [&](std::size_t i) {
      const std::span<const Scalar> q = cohort.targets[cohort.query_ids[i]];
      const Scalar md = sphere_mode ? mindist(q, child.sphere) : mindist(q, child.rect);
      if (md < lists[i].pruning_distance()) any = true;
    });
    return any;
  };

  struct Frame {
    NodeId id;
    Scalar pm;  ///< pair MINDIST(cohort sphere, this subtree's sphere)
  };
  // Best-first over the whole frontier (pair MINDIST, node id on ties), not
  // DFS: a depth-first walk drains the nearest child's far fringes before any
  // sibling tightens the bound vector, and every node it touches is a fetch
  // the cohort pays for. Globally-nearest-first matches the per-query
  // best-first engines' near-minimal visit sets, which is what keeps the
  // dual accessed-bytes ratio below the single-tree path on arena layouts.
  const auto frame_after = [](const Frame& a, const Frame& b) {
    return a.pm != b.pm ? a.pm > b.pm : a.id > b.id;
  };
  std::vector<Frame> frontier{{tree_.root(), 0}};
  std::vector<std::size_t> eligible;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), frame_after);
    const Frame f = frontier.back();
    frontier.pop_back();
    // Pair MINDIST orders the frontier but never decides it: it is not a
    // trusted lower bound under float rounding (see survives above), so it
    // cannot prune — and the cohort sphere over-approximates the queries, so
    // `pm < sup-of-bounds` must not force a fetch either (it drags in nodes
    // no individual query needs, every one a charged fetch). The per-query
    // exact bound math is the sole authority, evaluated at pop time when the
    // bound vector is at its tightest.
    if (!survives(tree_.node(f.id))) {
      ++cohort.ev[kEvPairPrunes];
      cohort.ev[kEvPruneSavedBytes] += subtree_bytes_[f.id];
      ++cohort.shared.backtracks;  // subtree skip, per docs/observability.md
      continue;
    }
    const sstree::Node& n = tree_.node(f.id);
    knn::detail::fetch_node(block, tree_, n, simt::Access::kRandom, &snap);
    ++cohort.shared.nodes_visited;
    if (n.is_leaf()) {
      ++cohort.shared.leaves_visited;
      const std::size_t pts = n.points.size();
      for (std::size_t i = 0; i < cq; ++i) {
        const std::span<const Scalar> q = cohort.targets[cohort.query_ids[i]];
        const Scalar md = sphere_mode ? mindist(q, n.sphere) : mindist(q, n.rect);
        if (!(md < lists[i].pruning_distance())) {
          ++cohort.ev[kEvLeafRefineSkips];
          continue;
        }
        qstats[i].points_examined += pts;
        qstats[i].heap_inserts += lists[i].scan_leaf(
            n, q, cohort.exclude ? cohort.query_ids[i] : kInvalidPoint);
      }
    } else {
      const PairBounds pb = pair_child_bounds(block, tree_, n, cohort.sphere);
      const std::size_t c = n.children.size();
      // Per-query MAXDIST tightening: a child subtree holding at least k_eff
      // admissible points puts each query's k-th distance within that query's
      // own MAXDIST to the child sphere. The per-query form is what makes
      // large cohorts viable — the pair form (cohort-center distance plus
      // BOTH radii) is slack by the whole cohort diameter, leaving every
      // bound loose until the home leaf happens to refine. Distances
      // accumulate in double; two extra ULPs of inflation (plus tighten's
      // one) absorb the cast and the radius rounding slop, preserving
      // exactness on adversarially tied data.
      const std::uint64_t need = cohort.k_eff + (cohort.exclude ? 1 : 0);
      eligible.clear();
      for (std::size_t i = 0; i < c; ++i) {
        if (subtree_points_[n.children[i]] >= need) eligible.push_back(i);
      }
      if (!eligible.empty()) {
        const std::uint64_t ops =
            (static_cast<std::uint64_t>(d) * 3 + 3) * eligible.size();
        block.par_for(cq, ops, [&](std::size_t i) {
          const std::span<const Scalar> q = cohort.targets[cohort.query_ids[i]];
          double best = static_cast<double>(kInfinity);
          for (const std::size_t j : eligible) {
            double acc = 0;
            for (std::size_t t = 0; t < d; ++t) {
              const double diff = static_cast<double>(q[t]) - n.child_centers[t * c + j];
              acc += diff * diff;
            }
            best = std::min(best, std::sqrt(acc) + static_cast<double>(n.child_radii[j]));
          }
          Scalar b = static_cast<Scalar>(best);
          b = next_up(next_up(b));
          lists[i].tighten(b);
        });
        cohort.ev[kEvMaxdistTightens] += eligible.size();
      }
      for (std::size_t i = 0; i < c; ++i) {
        frontier.push_back({n.children[i], pb.mind[i]});
        std::push_heap(frontier.begin(), frontier.end(), frame_after);
      }
    }
  }
  for (std::size_t i = 0; i < cq; ++i) {
    knn::QueryResult& slot = cohort.results[cohort.query_ids[i]];
    slot = {};
    slot.neighbors = lists[i].sorted();
    slot.stats = qstats[i];
  }
}

}  // namespace psb::join
