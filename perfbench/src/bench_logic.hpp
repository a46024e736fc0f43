// Pure bookkeeping of the repository benchmark: summary statistics with the
// percentile sample-count rule, the one per-answer unit, the span recorder
// with self times, and the exact oracle comparison. Header-only and free of
// wall-clock reads so the test binary can check it on fixed inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/geometry.hpp"

namespace perfbench {

// ---------------------------------------------------------------- statistics

/// Nearest rank ceil(p/100 * n), with the product rounded to 1e-9 first so
/// that 99.9% of 10,000 is rank 9,990 and not 9,991.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double x = p / 100.0 * static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(std::round(x * 1e9) / 1e9));
}

/// Exact nearest-rank percentile (the ceil(p/100 * n)-th smallest sample), the
/// rule obs::Histogram uses for the serving clock. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::clamp<std::size_t>(nearest_rank(p, v.size()), 1, v.size());
  return v[rank - 1];
}

/// A percentile is reportable only when at least ten samples lie beyond it:
/// n - ceil(p/100 * n) >= 10. Below that the value is one of the few largest
/// samples and says nothing about the tail.
inline bool percentile_reportable(double p, std::size_t n) {
  const std::size_t rank = nearest_rank(p, n);
  return n >= rank && n - rank >= 10;
}

/// The highest of p50/p90/p99/p99.9 that has ten samples beyond it; 0 when
/// even the median does not (fewer than 20 samples).
inline double highest_reportable_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (percentile_reportable(p, n)) best = p;
  }
  return best;
}

/// Median and quartiles of a host-clock sample, with its count.
struct Summary {
  std::size_t n = 0;
  double p25 = 0, p50 = 0, p75 = 0;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p25 = percentile(v, 25);
  s.p50 = percentile(v, 50);
  s.p75 = percentile(v, 75);
  return s;
}

/// The one per-answer unit of the benchmark: a total divided by the answers
/// it produced. Every engine's modeled time goes through this, never through
/// KernelTiming::avg_query_ms (which JoinEngine amortizes per cohort).
inline double per_answer(double total, std::uint64_t answers) {
  if (answers == 0) throw std::invalid_argument("per_answer: no answers");
  return total / static_cast<double>(answers);
}

/// Modeled device microseconds per answer: wall_ms * 1000 / answers.
inline double model_us_per_answer(double wall_ms, std::uint64_t answers) {
  return per_answer(wall_ms * 1000.0, answers);
}

// --------------------------------------------------------------------- spans

/// One span: a benchmark-side record around a public call into a layer.
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no parent)
  double start_s = 0;
  double end_s = 0;
  double duration() const { return end_s - start_s; }
};

/// In-memory span store. Spans nest by a begin/end stack on one thread; the
/// benchmark only calls into the layers from its main thread.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled = true) : enabled_(enabled), origin_(Clock::now()) {}

  /// Open a span at time `t` (seconds since the recorder's origin); returns
  /// its id, or 0 when recording is off.
  std::uint64_t begin_at(std::string name, std::string layer, double t) {
    if (!enabled_) return 0;
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.start_s = t;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void end_at(std::uint64_t id, double t) {
    if (!enabled_ || id == 0) return;
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("span closed out of order: " + spans_[id - 1].name);
    }
    spans_[id - 1].end_s = t;
    stack_.pop_back();
  }

  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }
  std::uint64_t begin(std::string name, std::string layer) {
    return begin_at(std::move(name), std::move(layer), now());
  }
  void end(std::uint64_t id) { end_at(id, now()); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (children clipped to the parent, overlaps merged).
/// Indexed like `spans`.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[i] = s.duration() - covered;
  }
  return self;
}

/// Self time summed per layer, layers in name order.
inline std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) by_layer[spans[i].layer] += self[i];
  return by_layer;
}

// -------------------------------------------------------------------- oracle

/// Exact answer check: same length, and every (id, distance) pair equal bit
/// for bit, in order.
inline bool same_answer(const std::vector<psb::KnnHeap::Entry>& got,
                        const std::vector<psb::KnnHeap::Entry>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].dist != want[i].dist) return false;
  }
  return true;
}

/// Failure tally behind `fail_frac`: an answer fails when it is shed, left
/// unanswered, flagged with a non-kOk status, or differs from the oracle.
/// Each answer counts at most once.
struct FailTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracle_checked = 0;
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t unanswered = 0;

  /// Record one attempted answer. `oracle` is null when the answer was not
  /// sampled for the oracle, else whether it matched.
  void record(bool answered, bool was_shed, bool ok_status, const bool* oracle_match) {
    ++attempted;
    bool fail = false;
    if (was_shed) {
      ++shed;
      fail = true;
    } else if (!answered) {
      ++unanswered;
      fail = true;
    } else if (!ok_status) {
      ++not_ok;
      fail = true;
    }
    if (oracle_match != nullptr) {
      ++oracle_checked;
      if (!*oracle_match) {
        ++oracle_mismatches;
        fail = true;
      }
    }
    if (fail) ++failed;
  }
  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace perfbench
