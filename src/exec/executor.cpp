#include "exec/executor.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/detail/traversal_common.hpp"
#include "knn/shared_heap.hpp"
#include "layout/implicit.hpp"

namespace psb::exec {
namespace {

using knn::GpuKnnOptions;
using knn::QueryResult;
using knn::SharedKnnList;

/// Record one completed resume step from three Metrics snapshots: step
/// start, the fetch/compute boundary (taken just before the leaf reduction;
/// equal to `end` for terminal steps with no reduction), and step end.
/// Steps that charged nothing (e.g. an immediate budget stop) are dropped —
/// a zero-width step is not schedulable work.
void record_step(std::vector<simt::StepPhase>& steps, const simt::DeviceSpec& device,
                 int threads, const simt::Metrics& start, const simt::Metrics& boundary,
                 const simt::Metrics& end) {
  if (end.node_fetches == start.node_fetches &&
      end.warp_instructions == start.warp_instructions) {
    return;
  }
  simt::StepPhase s;
  s.fetch_us = simt::phase_us(device, boundary, start, threads);
  s.compute_us = simt::phase_us(device, end, boundary, threads);
  steps.push_back(s);
}

// ---------------------------------------------------------------------------
// Stack-free preorder sweep (suspendable form of knn::skip_pointer_query)
// ---------------------------------------------------------------------------

static_assert(layout::ImplicitLayout::kInvalidSlot == kInvalidNode,
              "one end-of-sweep sentinel for both cursors");

/// One rope sweep whose cursor follows the layout: over the implicit arena it
/// is a slot (descend to slot + 1, escape via the precomputed escape index),
/// otherwise a node id (descend to the first child, escape via the Smits'98
/// skip link). The escape table is the preorder image of the skip chain, so
/// both visit the same nodes in the same order; fetches are charged through
/// SnapshotFetch either way.
class StacklessSkipExecutor final : public Executor {
 public:
  StacklessSkipExecutor(const sstree::SSTree& tree, std::span<const Scalar> query,
                        const GpuKnnOptions& opts, simt::Metrics* metrics, QueryResult& out)
      : tree_(tree),
        q_(query),
        opts_(opts),
        lay_(opts.implicit),
        metrics_(metrics != nullptr ? metrics : &local_),
        block_(opts.device, knn::detail::resolve_block_threads(opts, tree.degree()), metrics_),
        out_(out),
        list_(block_, std::min(opts.k, tree.data().size()), opts.spill_heap_to_global),
        snap_(tree, opts),
        cur_(lay_ != nullptr ? 0 : tree.root()) {  // the root is always slot 0
    knn::detail::seed_shared_bound(list_, opts_);
    ++out_.stats.restarts;  // one preorder sweep from the root
  }

  bool resume() override {
    if (finished_) return false;
    knn::TraversalStats& st = out_.stats;
    const simt::Metrics step_start = *metrics_;
    simt::Metrics pre_leaf = step_start;
    bool yielded = false;
    while (cur_ != kInvalidNode) {
      if (knn::detail::budget_exhausted(opts_, st)) {
        out_.budget_exhausted = true;
        break;
      }
      const sstree::Node& n = tree_.node(lay_ != nullptr ? lay_->node_at(cur_) : cur_);
      // Consecutive leaves are address-sequential; everything else in the
      // forward sweep is a dependent jump (same classification as the
      // run-to-completion loop). An arena session classifies by address
      // instead: slot -> slot+1 descents continue the preorder stream.
      const bool sequential =
          n.is_leaf() && static_cast<std::int64_t>(n.leaf_id) == last_fetched_leaf_ + 1;
      knn::detail::fetch_node(block_, tree_, n,
                              sequential ? simt::Access::kCoalesced : simt::Access::kRandom,
                              &snap_);
      ++st.nodes_visited;
      if (n.is_leaf()) last_fetched_leaf_ = n.leaf_id;

      const Scalar mind = mindist(q_, n.sphere);
      block_.par_for(1, tree_.dims() * 3 + 2, [](std::size_t) {});
      if (!(mind < list_.pruning_distance())) {
        cur_ = escape(n);
        ++st.backtracks;
        continue;
      }
      if (n.is_leaf()) {
        ++st.leaves_visited;
        pre_leaf = *metrics_;  // fetch phase ends; the leaf reduction is compute
        st.points_examined += n.points.size();
        st.heap_inserts += list_.scan_leaf(n, q_);
        cur_ = escape(n);
        ++st.leaf_scans;
        yielded = true;  // suspend after the leaf reduction
        break;
      }
      cur_ = lay_ != nullptr ? cur_ + 1 : n.children.front();  // first child
    }
    const simt::Metrics end = *metrics_;
    record_step(steps_, opts_.device, block_.threads(), step_start,
                yielded ? pre_leaf : end, end);
    if (!yielded || cur_ == kInvalidNode) {
      finished_ = true;
      out_.neighbors = list_.sorted();
      return false;
    }
    return true;
  }

 private:
  /// The next preorder position with `n`'s subtree skipped.
  std::uint32_t escape(const sstree::Node& n) const {
    return lay_ != nullptr ? lay_->escape(cur_) : n.skip;
  }

  const sstree::SSTree& tree_;
  std::span<const Scalar> q_;
  const GpuKnnOptions& opts_;
  const layout::ImplicitLayout* lay_;
  simt::Metrics local_;
  simt::Metrics* metrics_;
  simt::Block block_;
  QueryResult& out_;
  SharedKnnList list_;
  knn::detail::SnapshotFetch snap_;
  std::int64_t last_fetched_leaf_ = -2;
  std::uint32_t cur_;  ///< slot on the implicit arena, else node id
};

// ---------------------------------------------------------------------------
// Run-to-completion adapter
// ---------------------------------------------------------------------------

class LoopExecutor final : public Executor {
 public:
  LoopExecutor(std::function<void()> run, const simt::DeviceSpec& device,
               const simt::Metrics* metrics, int threads)
      : run_(std::move(run)), device_(device), metrics_(metrics), threads_(threads) {}

  bool resume() override {
    if (finished_) return false;
    const simt::Metrics start = metrics_ != nullptr ? *metrics_ : simt::Metrics{};
    run_();
    if (metrics_ != nullptr) {
      // One opaque step, all fetch phase: with no interior yield points the
      // overlap model has nothing to interleave, so the schedule degenerates
      // to the serialized sum (ratio exactly 1.0) — by design, not accident.
      record_step(steps_, device_, threads_, start, *metrics_, *metrics_);
    }
    finished_ = true;
    return false;
  }

 private:
  std::function<void()> run_;
  simt::DeviceSpec device_;  // by value: callers pass temporaries
  const simt::Metrics* metrics_;
  int threads_;
};

}  // namespace

std::unique_ptr<Executor> make_stackless_skip_executor(const sstree::SSTree& tree,
                                                       std::span<const Scalar> query,
                                                       const GpuKnnOptions& opts,
                                                       simt::Metrics* metrics,
                                                       knn::QueryResult& out) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  return std::make_unique<StacklessSkipExecutor>(tree, query, opts, metrics, out);
}

std::unique_ptr<Executor> make_loop_executor(std::function<void()> run,
                                             const simt::DeviceSpec& device,
                                             const simt::Metrics* metrics,
                                             int threads_per_block) {
  return std::make_unique<LoopExecutor>(std::move(run), device, metrics, threads_per_block);
}

void drive(Executor& ex) {
  while (!ex.finished()) {
    if (fault::enabled()) {
      if (fault::evaluate(fault::kSiteExecResume)) {
        throw ResumeFault("exec.resume: resume step killed by fault injection");
      }
    }
    if (!ex.resume()) break;
  }
}

}  // namespace psb::exec
