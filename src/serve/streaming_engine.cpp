#include "serve/streaming_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/brute_force.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace psb::serve {

std::string_view dispatch_mode_name(DispatchMode m) noexcept {
  switch (m) {
    case DispatchMode::kNaive: return "naive";
    case DispatchMode::kBuffered: return "buffered";
  }
  return "unknown";
}

DispatchMode parse_dispatch_mode(std::string_view name) {
  if (name == "naive") return DispatchMode::kNaive;
  if (name == "buffered") return DispatchMode::kBuffered;
  throw InvalidArgument("unknown dispatch mode: " + std::string(name));
}

namespace {

void validate(const StreamingOptions& opts) {
  PSB_REQUIRE(opts.engine.deadline_ms == 0,
              "StreamingOptions owns deadline semantics; engine.deadline_ms must be 0");
  PSB_REQUIRE(opts.buffer_capacity >= 1, "buffer_capacity must be >= 1");
  PSB_REQUIRE(opts.deadline_us > 0, "deadline_us must be > 0");
  PSB_REQUIRE(opts.service_time_scale >= 1, "service_time_scale must be >= 1");
  if (opts.replica.enabled()) replica::validate(opts.replica);
}

/// The exact last-resort answer for a cohort: a brute-force scan of the full
/// dataset at the engine's k, every answer flagged kDegradedFallback.
knn::BatchResult brute_force_cohort(const PointSet& data, const PointSet& cohort,
                                    const knn::GpuKnnOptions& engine_gpu) {
  knn::GpuKnnOptions g;
  g.k = engine_gpu.k;
  g.device = engine_gpu.device;
  knn::BatchResult out = knn::brute_force_batch(data, cohort, g);
  for (knn::QueryResult& q : out.queries) q.status = knn::QueryStatus::kDegradedFallback;
  return out;
}

}  // namespace

StreamingEngine::StreamingEngine(const sstree::SSTree& tree, StreamingOptions opts)
    : opts_(std::move(opts)),
      batch_(std::make_unique<engine::BatchEngine>(tree, opts_.engine)),
      data_(&tree.data()),
      router_(tree.data(), opts_.cell_bits) {
  validate(opts_);
}

StreamingEngine::StreamingEngine(shard::ShardedEngine& sharded, const PointSet& data,
                                 StreamingOptions opts)
    : opts_(std::move(opts)), sharded_(&sharded), data_(&data), router_(data, opts_.cell_bits) {
  validate(opts_);
  PSB_REQUIRE(sharded.options().engine.deadline_ms == 0,
              "StreamingOptions owns deadline semantics; engine.deadline_ms must be 0");
}

struct StreamingEngine::FlushOutcome {
  knn::BatchResult result;
  std::uint64_t kernel_us = 0;   ///< cost-model kernel time, pre-scaling
  std::uint64_t attempts = 1;    ///< stream.flush dispatch attempts
  bool faulted = false;
  bool retried = false;
  bool brute_forced = false;
};

StreamingEngine::FlushOutcome StreamingEngine::dispatch(const PointSet& cohort) {
  FlushOutcome out;
  // The engine.stream.flush fault kills a dispatch attempt. First fire:
  // retry the flush (the one-shot default leaves the retry clean — masked).
  // Second fire: answer the cohort by an exact per-query brute-force scan,
  // flagged kDegradedFallback. Every extra attempt costs one more
  // dispatch_overhead_us on the virtual clock.
  if (fault::evaluate(fault::kSiteStreamFlush)) {
    out.faulted = true;
    ++out.attempts;
    if (fault::evaluate(fault::kSiteStreamFlush)) {
      out.brute_forced = true;
      ++out.attempts;
    } else {
      out.retried = true;
    }
  }
  if (out.brute_forced) {
    out.result = brute_force_cohort(*data_, cohort, opts_.engine.gpu);
  } else {
    out.result = batch_ ? batch_->run(cohort) : sharded_->run(cohort);
  }
  out.kernel_us = static_cast<std::uint64_t>(std::llround(out.result.timing.wall_ms * 1000.0));
  return out;
}

namespace {

/// Serialize a cohort's answer (every query's sorted neighbor list) into the
/// byte image the replica layer CRC32-checks: the wire form a real reply
/// would travel in, so replica.corrupt_reply flips a bit something actually
/// depends on.
std::vector<unsigned char> serialize_reply(const knn::BatchResult& result) {
  std::vector<unsigned char> bytes;
  for (const knn::QueryResult& q : result.queries) {
    for (const KnnHeap::Entry& e : q.neighbors) {
      const auto* dist = reinterpret_cast<const unsigned char*>(&e.dist);
      bytes.insert(bytes.end(), dist, dist + sizeof(e.dist));
      const auto* id = reinterpret_cast<const unsigned char*>(&e.id);
      bytes.insert(bytes.end(), id, id + sizeof(e.id));
    }
  }
  return bytes;
}

}  // namespace

StreamingReport StreamingEngine::run(const ArrivalStream& stream) {
  StreamingReport report;
  // Exact-or-flagged at the entry: reject a malformed stream before any
  // arrival is routed (a NaN cell key is undefined).
  PSB_REQUIRE(stream.queries.size() == stream.time_us.size(),
              "stream needs exactly one arrival time per query");
  PSB_REQUIRE(std::is_sorted(stream.time_us.begin(), stream.time_us.end()),
              "stream arrival times must be nondecreasing");
  require_finite(stream.queries, "stream query");
  report.arrivals = stream.size();
  report.queries.resize(stream.size());
  if (stream.size() > 0) {
    PSB_REQUIRE(stream.queries.dims() == data_->dims(),
                "stream dimensionality must match the indexed dataset");
  }

  // The run's one queueing model: the configured replica groups, or one
  // replica in one group (a single server) when replication is off. Busy
  // windows and health start fresh on every run, as the virtual clock does.
  report.replicated = opts_.replica.enabled();
  replica::ReplicaRouter replicas(report.replicated
                                      ? opts_.replica
                                      : replica::ReplicaOptions{.replicas = 1, .groups = 1});

  CohortBuffers buffers;
  // Completion times of dispatched queries still counted as in-flight for the
  // backpressure depth (one entry per query).
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> inflight;
  std::uint64_t flush_seq = 0;

  enum class FlushKind { kFull, kDeadline, kDrain };
  const auto flush_cell = [&](std::uint64_t cell, std::uint64_t now, FlushKind kind) {
    const std::vector<CohortBuffers::Pending> pend = buffers.take(cell);
    PointSet cohort(stream.queries.dims());
    cohort.reserve(pend.size());
    for (const CohortBuffers::Pending& p : pend) cohort.append(stream.queries[p.arrival_index]);

    FlushOutcome out = dispatch(cohort);
    // The router adds the per-attempt dispatch overhead (every failover and
    // hedge pays it again); service_us carries the backend cost plus any
    // stream.flush retry overhead, so one clean attempt occupies a server
    // for attempts * dispatch_overhead_us + kernel_us * service_time_scale.
    const std::vector<unsigned char> reply = serialize_reply(out.result);
    replica::ReplicaRouter::Request rq;
    rq.group = replica::group_for_cell(cell, router_.key_bits(), replicas.options().groups);
    rq.now_us = now;
    rq.service_us = (out.attempts - 1) * opts_.dispatch_overhead_us +
                    out.kernel_us * opts_.service_time_scale;
    rq.overhead_us = opts_.dispatch_overhead_us;
    rq.reply = reply;
    const replica::ReplicaRouter::Outcome oc = replicas.dispatch(rq);
    std::uint64_t end = oc.completion_us;
    if (!oc.served) {
      // Ladder bottom: every replica down or out of attempts. The front-end
      // answers the cohort itself with an exact brute-force scan, flagged
      // kDegradedFallback — late and degraded, never lost.
      out.result = brute_force_cohort(*data_, cohort, opts_.engine.gpu);
      out.brute_forced = true;
      const auto brute_us =
          static_cast<std::uint64_t>(std::llround(out.result.timing.wall_ms * 1000.0));
      end += opts_.dispatch_overhead_us + brute_us * opts_.service_time_scale;
    }
    if (report.replicated) report.replica_dispatch_us.add(end - now);

    ++flush_seq;
    ++report.flushes;
    switch (kind) {
      case FlushKind::kFull: ++report.flush_full; break;
      case FlushKind::kDeadline: ++report.flush_deadline; break;
      case FlushKind::kDrain: ++report.flush_drain; break;
    }
    if (out.faulted) ++report.flush_faults;
    if (out.retried) ++report.flush_retries;
    if (out.brute_forced) ++report.flush_brute_forced;
    report.accessed_bytes += out.result.metrics.total_bytes();
    report.exec.merge(out.result.exec);
    report.span_us = std::max(report.span_us, end);

    for (std::size_t i = 0; i < pend.size(); ++i) {
      StreamedQuery& q = report.queries[pend[i].arrival_index];
      knn::QueryResult& r = out.result.queries[i];
      q.neighbors = std::move(r.neighbors);
      q.status = r.status;
      q.latency_us = end - pend[i].arrival_us;
      q.flush_id = flush_seq;
      q.cell = cell;
      if (q.latency_us > opts_.deadline_us) {
        q.deadline_missed = true;
        ++report.deadline_misses;
        if (q.status == knn::QueryStatus::kOk) q.status = knn::QueryStatus::kDeadlinePartial;
      }
      if (q.status != knn::QueryStatus::kOk) ++report.degraded;
      report.latency_us.add(q.latency_us);
      ++report.answered;
      inflight.push(end);
    }
  };

  std::uint64_t t_end = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::uint64_t t = stream.time_us[i];
    t_end = t;

    // Deadline flushes due before (or tied with) this arrival fire first.
    while (opts_.mode == DispatchMode::kBuffered && buffers.pending() > 0) {
      const CohortBuffers::NextDeadline nd =
          buffers.next_deadline(opts_.deadline_us, opts_.flush_horizon_us);
      if (nd.time_us > t) break;
      flush_cell(nd.cell, nd.time_us, FlushKind::kDeadline);
    }

    while (!inflight.empty() && inflight.top() <= t) inflight.pop();
    const std::uint64_t cell = router_.route(stream.queries[i]);

    const std::size_t depth = buffers.pending() + inflight.size();
    if (opts_.admission_queue_bound > 0 && depth >= opts_.admission_queue_bound) {
      StreamedQuery& q = report.queries[i];
      q.shed = true;
      q.cell = cell;
      // A shed arrival has no answer; flag it inexact so nothing downstream
      // can mistake the empty list for an exact result.
      q.status = knn::QueryStatus::kDeadlinePartial;
      ++report.shed;
      continue;
    }
    ++report.admitted;
    report.max_queue_depth = std::max<std::uint64_t>(report.max_queue_depth, depth + 1);

    const std::size_t size = buffers.admit(cell, {i, t});
    if (opts_.mode == DispatchMode::kNaive || size >= opts_.buffer_capacity) {
      flush_cell(cell, t, FlushKind::kFull);
    }
  }

  // End of stream: drain every remaining buffer at the final arrival time,
  // ascending cell-key order — deterministic, and nothing is left behind.
  for (const std::uint64_t cell : buffers.active_cells()) {
    flush_cell(cell, t_end, FlushKind::kDrain);
  }
  PSB_ASSERT(buffers.pending() == 0, "drain left queries buffered");
  PSB_ASSERT(report.answered == report.admitted, "admitted query lost without an answer");

  obs::Registry& reg = obs::Registry::global();
  reg.add("serve.streams", 1);
  reg.add("serve.arrivals", report.arrivals);
  reg.add("serve.admitted", report.admitted);
  reg.add("serve.answered", report.answered);
  reg.add("serve.shed", report.shed);
  reg.add("serve.flushes", report.flushes);
  reg.add("serve.flush_full", report.flush_full);
  reg.add("serve.flush_deadline", report.flush_deadline);
  reg.add("serve.flush_drain", report.flush_drain);
  reg.add("serve.flush_faults", report.flush_faults);
  reg.add("serve.flush_retries", report.flush_retries);
  reg.add("serve.flush_brute_forced", report.flush_brute_forced);
  reg.add("serve.deadline_misses", report.deadline_misses);
  reg.add("serve.degraded", report.degraded);
  if (report.exec.steps > 0) {
    reg.add("serve.exec_steps", report.exec.steps);
    reg.add("serve.exec_serialized_cycles", report.exec.serialized_cycles);
    reg.add("serve.exec_overlapped_cycles", report.exec.overlapped_cycles);
  }
  if (report.replicated) {
    report.replica = replicas.stats();
    const replica::ReplicaStats& rs = report.replica;
    if (rs.dispatches > 0) {
      reg.add("replica.dispatches", rs.dispatches);
      reg.add("replica.attempts", rs.attempts);
      reg.add("replica.crashes", rs.crashes);
      reg.add("replica.restarts", rs.restarts);
      reg.add("replica.straggles", rs.straggles);
      reg.add("replica.timeouts", rs.timeouts);
      reg.add("replica.corrupt_replies", rs.corrupt_replies);
      reg.add("replica.evictions", rs.evictions);
      reg.add("replica.failovers", rs.failovers);
      reg.add("replica.hedge_issued", rs.hedge_issued);
      reg.add("replica.hedge_won", rs.hedge_won);
      reg.add("replica.hedge_wasted", rs.hedge_wasted);
      reg.add("replica.exhausted", rs.exhausted);
    }
  }
  return report;
}

void streaming_report_fields(obs::JsonWriter& w, const StreamingReport& report,
                             std::string_view label) {
  const std::string pre(label);
  w.field(pre + ".arrivals", report.arrivals);
  w.field(pre + ".admitted", report.admitted);
  w.field(pre + ".answered", report.answered);
  w.field(pre + ".shed", report.shed);
  w.field(pre + ".flushes", report.flushes);
  w.field(pre + ".flush_full", report.flush_full);
  w.field(pre + ".flush_deadline", report.flush_deadline);
  w.field(pre + ".flush_drain", report.flush_drain);
  w.field(pre + ".flush_faults", report.flush_faults);
  w.field(pre + ".flush_retries", report.flush_retries);
  w.field(pre + ".flush_brute_forced", report.flush_brute_forced);
  w.field(pre + ".deadline_misses", report.deadline_misses);
  w.field(pre + ".degraded", report.degraded);
  w.field(pre + ".max_queue_depth", report.max_queue_depth);
  w.field(pre + ".accessed_bytes", report.accessed_bytes);
  w.field(pre + ".exec_steps", report.exec.steps);
  w.field(pre + ".exec_serialized_cycles", report.exec.serialized_cycles);
  w.field(pre + ".exec_overlapped_cycles", report.exec.overlapped_cycles);
  if (report.replicated) {
    // Replica fields only appear when replication is configured, so
    // unreplicated exports keep the pre-replica schema byte for byte.
    const replica::ReplicaStats& rs = report.replica;
    w.field(pre + ".replica.dispatches", rs.dispatches);
    w.field(pre + ".replica.attempts", rs.attempts);
    w.field(pre + ".replica.crashes", rs.crashes);
    w.field(pre + ".replica.restarts", rs.restarts);
    w.field(pre + ".replica.straggles", rs.straggles);
    w.field(pre + ".replica.timeouts", rs.timeouts);
    w.field(pre + ".replica.corrupt_replies", rs.corrupt_replies);
    w.field(pre + ".replica.evictions", rs.evictions);
    w.field(pre + ".replica.failovers", rs.failovers);
    w.field(pre + ".replica.backoff_wait_us", rs.backoff_wait_us);
    w.field(pre + ".replica.hedge_issued", rs.hedge_issued);
    w.field(pre + ".replica.hedge_won", rs.hedge_won);
    w.field(pre + ".replica.hedge_wasted", rs.hedge_wasted);
    w.field(pre + ".replica.exhausted", rs.exhausted);
    report.replica_dispatch_us.export_fields(w, pre + ".replica.dispatch_us");
  }
  w.field(pre + ".span_us", report.span_us);
  w.field(pre + ".throughput_qps", report.throughput_qps());
  report.latency_us.export_fields(w, pre + ".latency_us");
}

std::string streaming_report_to_json(const StreamingReport& report, std::string_view label) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "psb.stream.v1");
  streaming_report_fields(w, report, label);
  w.end_object();
  return w.str();
}

}  // namespace psb::serve
