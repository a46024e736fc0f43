// Replicated per-shard serving: each contiguous Hilbert shard range (a
// "group") is served by R virtual replica servers that share the immutable
// arena but carry independent fault and latency state on the integer virtual
// clock. The ReplicaRouter in front does deadline-aware dispatch:
//
//   failover        a crashed / evicted / timed-out replica is skipped and the
//                   request moves to the next-healthiest sibling, after a
//                   capped exponential backoff;
//   retry-on-sibling a corrupt reply (caught by the per-reply CRC32 — a
//                   single-bit error cannot pass) evicts the offender for a
//                   counted window and the sibling re-answers;
//   hedging         once a group has hedge_warmup completed requests, a
//                   primary attempt projected past the group's seeded latency
//                   percentile triggers a duplicate dispatch to the
//                   next-healthiest sibling; the first exact answer wins
//                   (replica.hedge_{issued,won,wasted});
//   exhaustion      a request that runs out of attempts or live replicas is
//                   returned unserved — the caller finishes the ladder with an
//                   exact brute-force scan or a flagged partial, never a
//                   silent loss (mirrors engine::BatchEngine's policy).
//
// Everything is a pure function of (options, request sequence, armed fault
// specs): latencies are integer virtual microseconds, the straggler profile
// and all fault decisions are seeded, and no wall clock or host-thread state
// leaks in. With replicas = 1, groups = 1 and no hedging/timeout/straggling,
// the router's completion recurrence is a single server: a request at t
// starts at max(t, busy_until) and occupies overhead + service. That is the
// queueing model serve::StreamingEngine runs when replication is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/histogram.hpp"

namespace psb::replica {

struct ReplicaOptions {
  /// Virtual replica servers per group. 0 means replication is not
  /// configured: serve::StreamingEngine then serves through one unexported
  /// replica in one group. 1 is one replica per group with nobody to fail
  /// over to.
  std::size_t replicas = 0;
  /// Contiguous Hilbert shard ranges, each with its own replica set.
  std::size_t groups = 4;

  /// Tail-latency hedging: duplicate a slow primary dispatch onto the
  /// next-healthiest sibling once the group's latency history is warm.
  bool hedge = false;
  double hedge_percentile = 95.0;  ///< seeded percentile that arms a hedge
  std::size_t hedge_warmup = 16;   ///< completed requests before hedging arms

  /// Per-attempt timeout on the virtual clock; 0 = none. A timed-out replica
  /// keeps (wastefully) computing — its busy window stands — while the
  /// router fails over.
  std::uint64_t timeout_us = 0;
  /// Capped exponential backoff between failover attempts.
  std::uint64_t backoff_base_us = 100;
  std::uint64_t backoff_cap_us = 1600;
  /// A crashed replica restarts (counted) this long after the crash.
  std::uint64_t restart_us = 50000;
  /// A replica caught returning a corrupt reply is evicted for this long.
  std::uint64_t eviction_us = 200000;
  /// Dispatch attempts per request (failovers included, hedges excluded)
  /// before the router gives up and returns the request unserved.
  std::size_t max_attempts = 4;

  /// Seed of the health model: straggler-profile draws derive from it.
  std::uint64_t health_seed = 1;
  /// Seeded straggler profile: this percentage of attempts (per-attempt
  /// deterministic draw) run straggle_multiplier times slower. Independent
  /// of the replica.straggle fault site, which multiplies on top.
  std::uint32_t straggle_pct = 0;
  std::uint64_t straggle_multiplier = 8;

  bool enabled() const noexcept { return replicas >= 1; }
};

/// Monotone counters mirroring the replica.* registry names.
struct ReplicaStats {
  std::uint64_t dispatches = 0;       ///< requests routed
  std::uint64_t attempts = 0;         ///< dispatch attempts incl. hedges
  std::uint64_t crashes = 0;          ///< replica.crash firings
  std::uint64_t restarts = 0;         ///< crashed replicas returned to duty
  std::uint64_t straggles = 0;        ///< attempts slowed by profile or site
  std::uint64_t timeouts = 0;         ///< attempts abandoned past timeout_us
  std::uint64_t corrupt_replies = 0;  ///< CRC32 mismatches detected
  std::uint64_t evictions = 0;        ///< replicas evicted for corruption
  std::uint64_t failovers = 0;        ///< attempts redirected to a sibling
  std::uint64_t backoff_wait_us = 0;  ///< total backoff on the virtual clock
  std::uint64_t hedge_issued = 0;
  std::uint64_t hedge_won = 0;    ///< hedge completed before the primary
  std::uint64_t hedge_wasted = 0;  ///< hedge lost, crashed or corrupted
  std::uint64_t exhausted = 0;    ///< requests returned unserved
};

/// Throw InvalidArgument unless `opts` describes a router: replicas >= 1,
/// groups >= 1, max_attempts >= 1, hedge_percentile in (0, 100],
/// straggle_pct <= 100, straggle_multiplier >= 1 and backoff_cap_us >=
/// backoff_base_us.
void validate(const ReplicaOptions& opts);

/// Map a Hilbert cell key from a `key_bits`-wide key space onto one of
/// `groups` contiguous ranges (monotone in the cell key, so each group is a
/// contiguous Hilbert range). key_bits <= 0 — a collapsed cell router — maps
/// everything to group 0.
std::size_t group_for_cell(std::uint64_t cell, int key_bits, std::size_t groups) noexcept;

class ReplicaRouter {
 public:
  /// Every server starts idle and healthy. Throws what validate(opts) throws.
  explicit ReplicaRouter(ReplicaOptions opts);

  struct Request {
    std::size_t group = 0;
    /// Virtual time the request becomes dispatchable (arrival/flush time).
    std::uint64_t now_us = 0;
    /// Backend cost of one clean attempt, excluding the per-attempt
    /// dispatch overhead (the router adds overhead_us to every attempt, so
    /// retries and hedges each pay it again).
    std::uint64_t service_us = 0;
    std::uint64_t overhead_us = 0;
    /// Serialized exact reply; the per-reply CRC32 over these bytes is what
    /// catches replica.corrupt_reply bit flips.
    std::span<const unsigned char> reply{};
  };

  struct Outcome {
    bool served = false;  ///< false: caller must finish the ladder
    std::size_t replica = 0;  ///< group-local index of the winning replica
    /// Virtual completion time when served; when not served, the time the
    /// router gave up (the caller's fallback starts from here).
    std::uint64_t completion_us = 0;
    std::uint64_t attempts = 0;  ///< attempts spent on this request
    bool hedged = false;
    bool hedge_won = false;
    bool failed_over = false;  ///< at least one crash/timeout/corruption
  };

  /// Route one request. Deterministic: identical routers fed identical
  /// request sequences under identical fault specs produce identical
  /// outcomes and stats.
  Outcome dispatch(const Request& req);

  const ReplicaOptions& options() const noexcept { return opts_; }
  const ReplicaStats& stats() const noexcept { return stats_; }

 private:
  struct Server {
    std::uint64_t busy_until = 0;
    std::uint64_t down_until = 0;  ///< 0 = up; else crash/eviction window end
    std::uint64_t faults = 0;      ///< lifetime crash+timeout+corruption count
  };
  struct Group {
    std::vector<Server> servers;
    obs::Histogram latency;   ///< served latencies; drives the hedge threshold
    std::uint64_t draws = 0;  ///< straggler-profile draw counter
  };

  enum class AttemptResult : std::uint8_t { kCompleted, kCrashed, kTimedOut, kCorrupt };
  struct AttemptOutcome {
    AttemptResult result = AttemptResult::kCompleted;
    std::uint64_t end_us = 0;  ///< completion / detection time
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Healthiest replica available at time t (skips down replicas, restarting
  /// expired ones; orders by earliest possible start, then lifetime faults,
  /// then index). kNone when every replica is down.
  std::size_t select(Group& g, std::uint64_t t, std::size_t exclude);

  AttemptOutcome try_replica(Group& g, std::size_t group_index, std::size_t r, std::uint64_t t,
                             const Request& req);

  ReplicaOptions opts_;
  ReplicaStats stats_;
  std::vector<Group> groups_;
};

}  // namespace psb::replica
