// StreamingEngine: the SLO-aware serving front-end over the batch backends.
//
// Arrivals from an ArrivalStream are replayed on a virtual clock. Each
// admitted query lands in its Hilbert-cell buffer (buffer.hpp); a buffer
// flushes when it reaches capacity, when its oldest member's deadline budget
// drops below the flush horizon, or at end-of-stream drain. Flushed cohorts
// run through the wrapped BatchEngine / ShardedEngine; the service time of a
// cohort is derived from the backend's deterministic cost-model timing, so
// every latency, queue-depth and deadline statistic is a pure function of
// (stream, options) — independent of wall clock and host thread count.
//
// Queueing model: one replica::ReplicaRouter, built by every run() and
// dropped at its end, so a reused engine serves each stream from an idle,
// healthy fleet. It fronts opts.replica's replica groups when replication is
// configured, and otherwise one replica in one group: a single server. A
// flush issued at virtual time t starts at max(t, busy_until) on the server
// the router picks and, on a clean attempt, occupies it for
//   attempts * dispatch_overhead_us + round(wall_ms * 1000) * service_time_scale
// microseconds; each query's latency is its cohort's completion minus its own
// arrival. The integer service_time_scale exists for the metamorphic
// time-scaling test: scaling arrivals, deadline, horizon and overhead by an
// integer c while setting scale = c multiplies every completion by exactly c.
//
// Overload ladder (docs/serving.md): on-time exact answers are kOk; a backend
// that degraded (retry / brute force) stays kDegradedFallback; an answer
// completed past its deadline is flagged kDeadlinePartial (exact but late);
// an arrival finding the admission queue at its bound is shed — recorded,
// flagged and counted, never silently dropped. The engine.stream.flush fault
// site kills a flush dispatch: the flush is retried once and, failing that,
// answered by an exact per-query brute-force scan (kDegradedFallback).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/batch_engine.hpp"
#include "obs/histogram.hpp"
#include "replica/replica.hpp"
#include "serve/arrivals.hpp"
#include "serve/buffer.hpp"
#include "shard/sharded_engine.hpp"

namespace psb::serve {

enum class DispatchMode : std::uint8_t {
  kNaive,     ///< one backend dispatch per arrival (no buffering)
  kBuffered,  ///< per-cell buffers with capacity / deadline-horizon flushes
};

std::string_view dispatch_mode_name(DispatchMode m) noexcept;
DispatchMode parse_dispatch_mode(std::string_view name);

struct StreamingOptions {
  /// Backend configuration (algorithm, k, layout, reorder, warp cohorts).
  /// engine.deadline_ms must be 0 — the streaming layer owns all deadline
  /// semantics on the virtual clock; a wall-clock backend deadline would
  /// break the determinism contract.
  engine::BatchEngineOptions engine{};
  DispatchMode mode = DispatchMode::kBuffered;
  /// Buffered mode: flush a cell when it holds this many queries.
  std::size_t buffer_capacity = 32;
  /// Per-query SLO in virtual microseconds (latency above it is a miss).
  std::uint64_t deadline_us = 20000;
  /// Flush a buffer once its oldest member is within this margin of its
  /// deadline, i.e. at arrival + deadline - horizon.
  std::uint64_t flush_horizon_us = 2000;
  /// Backpressure bound on buffered + in-flight queries; an arrival finding
  /// the system at the bound is shed. 0 = unbounded.
  std::size_t admission_queue_bound = 4096;
  /// Hilbert bits per dimension of the buffer routing grid.
  int cell_bits = 4;
  /// Fixed per-dispatch cost in virtual microseconds (kernel launch, result
  /// gather) — the overhead buffering amortizes.
  std::uint64_t dispatch_overhead_us = 120;
  /// Integer multiplier on the cost-model service time (see file comment).
  std::uint64_t service_time_scale = 1;
  /// Replicated serving (src/replica/): replica.replicas >= 1 serves each
  /// Hilbert shard range from its own replica set (failover, backoff,
  /// hedging) and exports the router's accounting. replicas = 0 (the
  /// default) serves through one unexported replica in one group; the other
  /// replica fields are then ignored.
  replica::ReplicaOptions replica{};
};

/// One arrival's outcome, in arrival order.
struct StreamedQuery {
  std::vector<KnnHeap::Entry> neighbors;  ///< empty when shed
  knn::QueryStatus status = knn::QueryStatus::kOk;
  bool shed = false;             ///< rejected at admission; never dispatched
  bool deadline_missed = false;  ///< completed after arrival + deadline_us
  std::uint64_t latency_us = 0;  ///< completion - arrival (0 when shed)
  std::uint64_t flush_id = 0;    ///< which flush answered it (0 when shed)
  std::uint64_t cell = 0;        ///< Hilbert routing cell
};

struct StreamingReport {
  std::vector<StreamedQuery> queries;  ///< one per arrival, arrival order

  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t answered = 0;  ///< == admitted: every admitted query is answered
  std::uint64_t shed = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_full = 0;      ///< capacity-triggered
  std::uint64_t flush_deadline = 0;  ///< horizon-triggered
  std::uint64_t flush_drain = 0;     ///< end-of-stream drain
  std::uint64_t flush_faults = 0;    ///< dispatches killed by fault injection
  std::uint64_t flush_retries = 0;   ///< faulted flushes recovered by rerun
  std::uint64_t flush_brute_forced = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded = 0;  ///< answered queries not kOk
  std::uint64_t max_queue_depth = 0;
  std::uint64_t accessed_bytes = 0;  ///< backend bytes summed over flushes
  std::uint64_t span_us = 0;         ///< last completion time on the virtual clock
  /// Executor-schedule overlap totals merged over flushes (simt/overlap.hpp);
  /// flushes the front-end answers by brute force add nothing.
  simt::OverlapTotals exec;

  /// Replicated-serving accounting; all-zero (and absent from the JSON
  /// export) when replication is off.
  bool replicated = false;
  replica::ReplicaStats replica;        ///< this run's router counters
  obs::Histogram replica_dispatch_us;   ///< router dispatch latencies (per flush)

  obs::Histogram latency_us;  ///< answered queries only

  double throughput_qps() const noexcept {
    return span_us == 0 ? 0.0
                        : static_cast<double>(answered) * 1e6 / static_cast<double>(span_us);
  }
  std::uint64_t p50_us() const { return latency_us.percentile(50); }
  std::uint64_t p99_us() const { return latency_us.percentile(99); }
};

class StreamingEngine {
 public:
  /// Serve from a single tree through an engine-owned BatchEngine. The tree
  /// (and its data) must outlive the engine.
  StreamingEngine(const sstree::SSTree& tree, StreamingOptions opts);

  /// Serve through an externally owned ShardedEngine. `data` is the full
  /// dataset (routing grid bounds + exact brute-force fallback); both must
  /// outlive the engine.
  StreamingEngine(shard::ShardedEngine& sharded, const PointSet& data, StreamingOptions opts);

  const StreamingOptions& options() const noexcept { return opts_; }

  /// Replay the stream. Bumps the serve.* registry counters and, per the
  /// backend contract, emits per-query traces to any active obs session.
  /// Keeps no queueing state between calls: the same stream gives the same
  /// report on every call.
  StreamingReport run(const ArrivalStream& stream);

 private:
  struct FlushOutcome;
  FlushOutcome dispatch(const PointSet& cohort);

  StreamingOptions opts_;
  std::unique_ptr<engine::BatchEngine> batch_;  ///< tree-backed mode
  shard::ShardedEngine* sharded_ = nullptr;     ///< sharded mode
  const PointSet* data_ = nullptr;
  CellRouter router_;
};

/// Emit a report's fields (counters, derived rates, latency histogram) into
/// an open JSON object under `<label>.`-prefixed keys — the building block
/// psbtool uses to put several labeled reports in one flat document.
void streaming_report_fields(obs::JsonWriter& w, const StreamingReport& report,
                             std::string_view label);

/// Flat JSON export of a report (schema "psb.stream.v1"): counters, derived
/// rates and the latency histogram via Histogram::export_fields. Identical
/// reports export byte-identical text — the determinism-test artifact.
std::string streaming_report_to_json(const StreamingReport& report,
                                     std::string_view label = "stream");

}  // namespace psb::serve
