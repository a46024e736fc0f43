#include "replica/replica.hpp"

#include <algorithm>
#include <tuple>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"

namespace psb::replica {

std::size_t group_for_cell(std::uint64_t cell, int key_bits, std::size_t groups) noexcept {
  if (groups <= 1 || key_bits <= 0) return 0;
  // Reduce to the top 32 key bits first so cell * groups cannot overflow;
  // the mapping stays monotone in the cell key, hence contiguous ranges.
  const int bits = std::min(key_bits, 32);
  const std::uint64_t c = key_bits > 32 ? cell >> (key_bits - 32) : cell;
  return static_cast<std::size_t>((c * groups) >> bits);
}

void validate(const ReplicaOptions& opts) {
  PSB_REQUIRE(opts.enabled(), "ReplicaRouter requires replicas >= 1");
  PSB_REQUIRE(opts.groups >= 1, "groups must be >= 1");
  PSB_REQUIRE(opts.max_attempts >= 1, "max_attempts must be >= 1");
  PSB_REQUIRE(opts.hedge_percentile > 0.0 && opts.hedge_percentile <= 100.0,
              "hedge_percentile must be in (0, 100]");
  PSB_REQUIRE(opts.straggle_pct <= 100, "straggle_pct is a percentage");
  PSB_REQUIRE(opts.straggle_multiplier >= 1, "straggle_multiplier must be >= 1");
  PSB_REQUIRE(opts.backoff_cap_us >= opts.backoff_base_us,
              "backoff_cap_us must be >= backoff_base_us");
}

ReplicaRouter::ReplicaRouter(ReplicaOptions opts) : opts_(opts) {
  validate(opts_);
  groups_.resize(opts_.groups);
  for (Group& g : groups_) g.servers.resize(opts_.replicas);
}

std::size_t ReplicaRouter::select(Group& g, std::uint64_t t, std::size_t exclude) {
  std::size_t best = kNone;
  std::tuple<std::uint64_t, std::uint64_t, std::size_t> best_key{};
  for (std::size_t r = 0; r < g.servers.size(); ++r) {
    if (r == exclude) continue;
    Server& sv = g.servers[r];
    if (sv.down_until != 0) {
      if (sv.down_until > t) continue;
      sv.down_until = 0;  // counted restart: the replica is back on duty
      ++stats_.restarts;
    }
    const std::tuple<std::uint64_t, std::uint64_t, std::size_t> key{
        std::max(t, sv.busy_until), sv.faults, r};
    if (best == kNone || key < best_key) {
      best = r;
      best_key = key;
    }
  }
  return best;
}

ReplicaRouter::AttemptOutcome ReplicaRouter::try_replica(Group& g, std::size_t group_index,
                                                         std::size_t r, std::uint64_t t,
                                                         const Request& req) {
  Server& sv = g.servers[r];
  ++stats_.attempts;

  if (fault::evaluate(fault::kSiteReplicaCrash)) {
    // The server dies taking the request with it; it stops answering until a
    // counted restart. The router notices after paying the dispatch overhead.
    ++stats_.crashes;
    ++sv.faults;
    sv.down_until = t + std::max<std::uint64_t>(opts_.restart_us, 1);
    return {AttemptResult::kCrashed, t + req.overhead_us};
  }

  std::uint64_t mult = 1;
  if (opts_.straggle_pct > 0) {
    // Seeded straggler profile: a pure function of (seed, group, replica,
    // draw index), so the same options replay the same slow attempts.
    const std::uint64_t draw = fault::mix(
        opts_.health_seed ^ fault::mix(group_index * opts_.replicas + r + 1) ^
        fault::mix(++g.draws));
    if (draw % 100 < opts_.straggle_pct) mult = opts_.straggle_multiplier;
  }
  if (const fault::Shot shot = fault::evaluate(fault::kSiteReplicaStraggle)) {
    mult *= 2 + shot.payload % 7;  // injected slowdown in [2x, 8x]
  }
  if (mult > 1) ++stats_.straggles;

  const std::uint64_t start = std::max(t, sv.busy_until);
  const std::uint64_t end = start + req.overhead_us + req.service_us * mult;

  if (opts_.timeout_us > 0 && end > t + opts_.timeout_us) {
    // The router abandons the attempt at the timeout; the replica keeps
    // (wastefully) computing, so its busy window stands.
    ++stats_.timeouts;
    ++sv.faults;
    sv.busy_until = end;
    return {AttemptResult::kTimedOut, t + opts_.timeout_us};
  }

  if (const fault::Shot shot = fault::evaluate(fault::kSiteReplicaCorruptReply);
      shot.fire && !req.reply.empty()) {
    // A bit flip in the serialized reply. CRC32 detects every single-bit
    // error, so detection is by construction, not by luck; the offender is
    // evicted for a counted window and the caller retries on a sibling.
    std::vector<unsigned char> corrupted(req.reply.begin(), req.reply.end());
    fault::flip_bit(corrupted.data(), corrupted.size(), shot.payload);
    const std::uint32_t expect = crc32(req.reply.data(), req.reply.size());
    const std::uint32_t got = crc32(corrupted.data(), corrupted.size());
    PSB_ASSERT(got != expect, "single-bit flip must change the reply CRC32");
    ++stats_.corrupt_replies;
    ++stats_.evictions;
    ++sv.faults;
    sv.busy_until = end;
    sv.down_until = end + std::max<std::uint64_t>(opts_.eviction_us, 1);
    return {AttemptResult::kCorrupt, end};
  }

  sv.busy_until = end;
  return {AttemptResult::kCompleted, end};
}

ReplicaRouter::Outcome ReplicaRouter::dispatch(const Request& req) {
  PSB_REQUIRE(req.group < groups_.size(), "request group out of range");
  Group& g = groups_[req.group];
  ++stats_.dispatches;

  Outcome out;
  std::uint64_t t = req.now_us;
  std::uint64_t backoff = opts_.backoff_base_us;

  for (std::size_t attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    const std::size_t r = select(g, t, kNone);
    if (r == kNone) break;  // every replica is down: finish the ladder below
    ++out.attempts;
    const AttemptOutcome a = try_replica(g, req.group, r, t, req);

    if (a.result == AttemptResult::kCompleted) {
      std::size_t winner = r;
      std::uint64_t completion = a.end_us;
      if (opts_.hedge && g.latency.count() >= opts_.hedge_warmup) {
        const std::uint64_t threshold = g.latency.percentile(opts_.hedge_percentile);
        if (completion - req.now_us > threshold) {
          // The primary is projected past the group's latency percentile:
          // hedge onto the next-healthiest sibling; first answer wins and
          // the loser's work is wasted but accounted.
          ++stats_.hedge_issued;
          out.hedged = true;
          const std::uint64_t hedge_at = std::max(t, req.now_us + threshold);
          const std::size_t hr = select(g, hedge_at, r);
          bool won = false;
          if (hr != kNone) {
            ++out.attempts;
            const AttemptOutcome h = try_replica(g, req.group, hr, hedge_at, req);
            if (h.result == AttemptResult::kCompleted && h.end_us < completion) {
              winner = hr;
              completion = h.end_us;
              won = true;
            }
          }
          if (won) {
            out.hedge_won = true;
            ++stats_.hedge_won;
          } else {
            ++stats_.hedge_wasted;
          }
        }
      }
      out.served = true;
      out.replica = winner;
      out.completion_us = completion;
      g.latency.add(completion - req.now_us);
      return out;
    }

    // Crash, timeout or corrupt reply: fail over to the next-healthiest
    // sibling after a capped exponential backoff. Selection naturally avoids
    // the offender — it is down (crash, eviction) or deep in a busy window
    // with a worse fault count (timeout).
    out.failed_over = true;
    ++stats_.failovers;
    t = a.end_us + backoff;
    stats_.backoff_wait_us += backoff;
    backoff = std::min(backoff * 2, opts_.backoff_cap_us);
  }

  ++stats_.exhausted;
  out.completion_us = t;  // when the router gave up, for the caller's ladder
  return out;  // unserved: the caller must brute-force or flag, never drop
}

}  // namespace psb::replica
