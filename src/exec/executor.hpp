// Resumable traversal executors: each per-query traversal loop restructured
// as a suspendable state machine that yields at every leaf reduction, so a
// scheduler holding a cohort of suspended queries can double-buffer one
// query's node fetching against another's leaf compute (simt/overlap.hpp
// models the resulting fetch/compute streams).
//
// State machine (docs/executor.md has the full diagram):
//
//           +---------------------- resume() ----------------------+
//           v                                                      |
//   [walk: fetch node -> prune] --leaf--> [reduce leaf] --yield----+
//           |      ^     |                                         |
//           |      +-----+ (descend / skip)                        |
//           +--budget / end of sweep--> [finalize] --done--> (false)
//
// Contract: driving an executor to completion performs *exactly* the charge
// sequence of the run-to-completion knn::*_query function it restructures —
// same Metrics, same TraversalStats, same FetchSession residency evolution,
// same answer. The metamorphic suite (tests/exec_metamorphic_test.cpp)
// checks the engines, which drive every query through an executor, against
// those free functions bit-for-bit.
//
// Each resume step records a simt::StepPhase: the fetch phase (node walk,
// prune math, leaf staging — everything up to the leaf reduction) and the
// compute phase (leaf distance evaluation + k-list insertion), measured as
// Metrics deltas and converted to modeled microseconds. Variants without a
// natural yield point run behind the LoopExecutor adapter as one opaque
// all-fetch step, which the overlap model schedules fully serialized (ratio
// exactly 1.0) — unexploitable structure is never credited.
//
// A suspended executor is also the serving layer's retry boundary: the
// engines evaluate the `exec.resume` fault site before every resume via
// drive(), and a fired site surfaces as ResumeFault (a DataFault), feeding
// the counted rerun -> brute-force -> flagged degradation policy.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "knn/result.hpp"
#include "simt/overlap.hpp"
#include "sstree/tree.hpp"

namespace psb::exec {

/// A resume step was killed by the exec.resume fault site (simulated
/// stream/queue failure). Derives from DataFault so the engines' existing
/// degradation policies compose.
class ResumeFault : public DataFault {
 public:
  using DataFault::DataFault;
};

/// A suspended per-query traversal. resume() advances to the next yield
/// point (a completed leaf reduction) or to completion; once it returns
/// false the query's QueryResult is finalized and steps() holds the full
/// phase record.
class Executor {
 public:
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run to the next suspension point. Returns true while the traversal has
  /// more work; false once finalized (idempotent afterwards).
  virtual bool resume() = 0;

  bool finished() const noexcept { return finished_; }

  /// Per-resume-step phase durations, appended as steps complete.
  const std::vector<simt::StepPhase>& steps() const noexcept { return steps_; }

 protected:
  Executor() = default;

  std::vector<simt::StepPhase> steps_;
  bool finished_ = false;
};

/// Suspendable form of the stack-free preorder sweep
/// (knn::skip_pointer_query). Walks escape indices over the implicit arena
/// when GpuKnnOptions::implicit is set, skip links otherwise; both visit the
/// same nodes with the same charges. Yields after each scanned leaf.
std::unique_ptr<Executor> make_stackless_skip_executor(const sstree::SSTree& tree,
                                                       std::span<const Scalar> query,
                                                       const knn::GpuKnnOptions& opts,
                                                       simt::Metrics* metrics,
                                                       knn::QueryResult& out);

/// Adapter for variants that keep their run-to-completion loops
/// (best-first's ordered frontier, PSB's fused descent+scan, brute force):
/// `run` executes the whole query on its first resume, recorded as a single
/// opaque fetch-phase step (no yield points -> no modeled overlap). The
/// Metrics delta is read from `*metrics` around the call.
std::unique_ptr<Executor> make_loop_executor(std::function<void()> run,
                                             const simt::DeviceSpec& device,
                                             const simt::Metrics* metrics,
                                             int threads_per_block);

/// Drive `ex` to completion. Before every resume step the exec.resume fault
/// site is evaluated (under an active injection scope only); a fired site
/// abandons the executor by throwing ResumeFault. The caller's degradation
/// policy owns recovery — typically a rerun on a fresh executor.
void drive(Executor& ex);

}  // namespace psb::exec
