// Names of every registered fault site. Call sites reference these constants
// (never string literals) so the registry in fault.cpp and the injection
// points cannot drift apart; docs/robustness.md documents each site's
// detection and fallback.
#pragma once

#include <string_view>

namespace psb::fault {

/// Drop the tail of a loaded file image before envelope verification
/// (simulates a truncated dataset/index file).
inline constexpr std::string_view kSiteEnvelopeTruncate = "io.envelope.truncate";

/// Flip one byte of a loaded file image before envelope verification
/// (simulates on-disk or in-transit corruption).
inline constexpr std::string_view kSiteEnvelopeByteflip = "io.envelope.byteflip";

/// Flip one bit of a fetched node's bounding-sphere fields (simulates a
/// device-memory bit flip caught by the per-node integrity word).
inline constexpr std::string_view kSiteNodeBoundsBitflip = "knn.node_bounds.bitflip";

/// Corrupt one span of the traversal snapshot's arena table (simulates
/// corruption of the frozen device arena, caught by the span-table CRC32).
inline constexpr std::string_view kSiteSnapshotSegment = "layout.snapshot.segment";

/// Flip one bit of one escape index of the pointer-free implicit layout
/// (simulates corruption of the precomputed rope table, caught by the
/// layout's per-segment checksums before serving).
inline constexpr std::string_view kSiteImplicitEscape = "layout.implicit.escape_bitflip";

/// Force a pathologically small node budget on one query (simulates a
/// runaway query hitting its work budget).
inline constexpr std::string_view kSiteQueryBudget = "engine.query_budget";

/// Fail one worker's slice of a batch (simulates a crashed worker thread).
inline constexpr std::string_view kSiteWorkerSlice = "engine.worker_slice";

/// Kill one (query, shard) pass of the sharded scatter-gather engine
/// (simulates a shard replica dying mid-query; recovered by a rerun and,
/// failing that, an exact per-shard brute-force fallback).
inline constexpr std::string_view kSiteShardSlice = "engine.shard.slice";

/// Kill one flush dispatch of the streaming serving layer (simulates a
/// backend failure mid-cohort; the flush is retried once and, failing that,
/// the cohort is answered by an exact brute-force scan, flagged
/// kDegradedFallback — never silently lost).
inline constexpr std::string_view kSiteStreamFlush = "engine.stream.flush";

/// Kill one resume step of a suspended traversal executor (simulates a
/// stream/queue failure at the scheduler's natural retry boundary; the
/// engine reruns the query on a fresh executor and, failing that, answers
/// it by an exact brute-force scan, flagged kDegradedFallback).
inline constexpr std::string_view kSiteExecResume = "exec.resume";

/// Kill one cohort's pair walk of the dual-tree join engine (simulates a
/// worker dying mid-walk; recovered by a counted single-tree rerun of the
/// cohort and, failing that, an exact brute-force join, flagged
/// kDegradedFallback — never silently lost).
inline constexpr std::string_view kSiteJoinPair = "engine.join.pair";

/// Crash one virtual replica server at dispatch (simulates a process or
/// machine death; the server stops answering until a counted restart after
/// ReplicaOptions::restart_us, and the router fails the request over to the
/// next-healthiest sibling).
inline constexpr std::string_view kSiteReplicaCrash = "replica.crash";

/// Multiply one replica dispatch's service time (simulates a straggling
/// server — page cache miss, noisy neighbor; absorbed by the per-replica
/// timeout and, when hedging is armed, by a tail-latency hedge to a
/// sibling).
inline constexpr std::string_view kSiteReplicaStraggle = "replica.straggle";

/// Flip one bit of a replica's serialized reply (simulates wire or
/// device-memory corruption of the answer; always caught by the per-reply
/// CRC32 — a single-bit error cannot pass — and punished with a counted
/// eviction before a sibling re-answers).
inline constexpr std::string_view kSiteReplicaCorruptReply = "replica.corrupt_reply";

}  // namespace psb::fault
