// perfbench: the repository benchmark. One process runs one workload from a
// seed, checks a seeded sample of its answers against knn::brute_force_batch,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1 (see perfbench/NOTES.md for every definition).
//
// Two clocks. Host seconds are the simulator's own run time, read here
// around each public call after one discarded warm-up call. The modeled
// device clock (simt::estimate) and the serving layer's virtual clock are
// deterministic: with one seed they repeat exactly.
//
//   perfbench --workload batch-knn|allknn-join|stream-churn --seed N
//             --seconds S --trace 0|1 [--spans-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "common/rng.hpp"
#include "data/noaa_synth.hpp"
#include "engine/batch_engine.hpp"
#include "join/join_engine.hpp"
#include "knn/brute_force.hpp"
#include "layout/snapshot.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"

namespace {

using namespace psb;
using perfbench::FailTally;
using perfbench::SpanRecorder;
using perfbench::Summary;

// ------------------------------------------------------------ configuration

/// Answers sampled per workload for the oracle check.
constexpr std::size_t kOracleSample = 256;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".bench_build/perfbench-spans";
};

/// splitmix64 finalizer: independent sub-seeds from (seed, tag).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stations of the indexed fixture: 2,000 x 50 readings = 100k points.
constexpr std::size_t kFixtureStations = 2000;
constexpr std::size_t kReadingsPerStation = 50;

/// The indexed dataset: NOAA-like readings from the generator's fixed
/// default seed, a fixture shared by every run; --seed draws the queries,
/// arrivals, writes and oracle samples. A per-seed dataset moved the modeled
/// per-answer figures by about 10% from seed to seed, which would hide the
/// changes the benchmark must resolve.
PointSet noaa_points() {
  data::NoaaSpec spec;
  spec.stations = kFixtureStations;
  spec.readings_per_station = kReadingsPerStation;
  return data::make_noaa_like(spec);
}

/// Data points plus isotropic Gaussian jitter (seeded).
PointSet jittered_queries(const PointSet& data, std::size_t n, double sigma, Rng& rng) {
  PointSet q(data.dims());
  q.reserve(n);
  std::vector<Scalar> p(data.dims());
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = data[rng.next_below(data.size())];
    for (std::size_t d = 0; d < p.size(); ++d) {
      p[d] = static_cast<Scalar>(src[d] + rng.normal(0.0, sigma));
    }
    q.append(p);
  }
  return q;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::vector<std::string> header;  ///< loop type, rate/batch, threads, scale
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  ///< percentile lines with sample counts
  FailTally tally;
  bool invariant_ok = true;  ///< self times cross-foot, counts consistent

  void e(const std::string& n, double v, const std::string& u) { e2e.push_back({n, v, u}); }
  void l(const std::string& n, double v, const std::string& u) { layer.push_back({n, v, u}); }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One host-clock sample line: median, quartiles and the highest reportable
/// percentile, always with its sample count.
std::string summary_line(const std::string& what, const std::vector<double>& v,
                         const std::string& unit) {
  const Summary s = perfbench::summarize(v);
  const double hp = perfbench::highest_reportable_percentile(s.n);
  char buf[320];
  std::snprintf(buf, sizeof buf, "%-28s n=%zu  p25=%.4g p50=%.4g p75=%.4g %s  [%s]",
                what.c_str(), s.n, s.p25, s.p50, s.p75,
                hp > 0 ? ("p" + fmt(hp) + "=" + fmt(perfbench::percentile(v, hp))).c_str()
                       : "(no percentile above the median has 10 samples beyond it)",
                unit.c_str());
  return buf;
}

/// Percentile line of a virtual-clock histogram, with its sample count and
/// the reportability of each percentile.
std::string hist_line(const std::string& what, const obs::Histogram& h) {
  char buf[320];
  const std::size_t n = h.count();
  std::snprintf(buf, sizeof buf,
                "%-28s n=%zu  p50=%" PRIu64 "%s p99=%" PRIu64 "%s max=%" PRIu64
                "  [virtual us]",
                what.c_str(), n, h.percentile(50),
                perfbench::percentile_reportable(50, n) ? "" : "(<10 beyond)", h.percentile(99),
                perfbench::percentile_reportable(99, n) ? "" : "(<10 beyond)", h.max());
  return buf;
}

// ------------------------------------------------------------- measurement

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Times one call on the host clock and, when tracing, records its span.
template <typename F>
double timed(SpanRecorder& rec, const std::string& name, const std::string& layer, F&& f) {
  const std::uint64_t id = rec.begin(name, layer);
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const double s = elapsed_s(t0);
  rec.end(id);
  return s;
}

using Counters = std::map<std::string, std::uint64_t>;

Counters registry_counters() {
  Counters c;
  for (auto& [name, v] : obs::Registry::global().snapshot().counters) c[name] = v;
  return c;
}

/// Add (after - before) into `acc`, counter by counter.
void add_delta(Counters& acc, const Counters& before, const Counters& after) {
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    acc[name] += v - (it == before.end() ? 0 : it->second);
  }
}

std::uint64_t get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(const std::vector<double>& v) { return perfbench::percentile(v, 50); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Device-side counters of one or more modeled kernel launches.
struct ModelTotals {
  simt::Metrics metrics;
  knn::TraversalStats stats;
  simt::OverlapTotals exec;
  double wall_ms = 0, compute_ms = 0, mem_ms = 0, latency_ms = 0, serial_ms = 0;
  double occupancy_sum = 0;
  std::uint64_t launches = 0;
  std::uint64_t answers = 0;

  void add(const knn::BatchResult& r) {
    metrics.merge(r.metrics);
    stats.merge(r.stats);
    exec.merge(r.exec);
    wall_ms += r.timing.wall_ms;
    compute_ms += r.timing.compute_ms;
    mem_ms += r.timing.mem_ms;
    latency_ms += r.timing.latency_ms;
    serial_ms += r.timing.serial_ms;
    occupancy_sum += r.timing.occupancy;
    ++launches;
    answers += r.queries.size();
  }
};

void report_simt(Report& rep, const ModelTotals& m) {
  rep.l("simt.compute_ms", m.compute_ms, "ms");
  rep.l("simt.mem_ms", m.mem_ms, "ms");
  rep.l("simt.latency_ms", m.latency_ms, "ms");
  rep.l("simt.serial_ms", m.serial_ms, "ms");
  rep.l("simt.occupancy", ratio(m.occupancy_sum, static_cast<double>(m.launches)), "fraction");
  rep.l("simt.bytes_coalesced", static_cast<double>(m.metrics.bytes_coalesced), "bytes");
  rep.l("simt.bytes_random", static_cast<double>(m.metrics.bytes_random), "bytes");
  rep.l("simt.bytes_cached", static_cast<double>(m.metrics.bytes_cached), "bytes");
  rep.l("simt.node_fetches", static_cast<double>(m.metrics.node_fetches), "count");
  rep.l("simt.divergent_steps", static_cast<double>(m.metrics.divergent_steps), "count");
}

void report_exec(Report& rep, const simt::OverlapTotals& exec) {
  rep.l("exec.steps", static_cast<double>(exec.steps), "count");
  rep.l("exec.overlap_ratio", exec.ratio(), "ratio");
}

void report_knn(Report& rep, const ModelTotals& m) {
  const double a = static_cast<double>(m.answers);
  const knn::TraversalStats& s = m.stats;
  rep.l("knn.nodes_per_answer", ratio(static_cast<double>(s.nodes_visited), a), "count");
  rep.l("knn.points_per_answer", ratio(static_cast<double>(s.points_examined), a), "count");
  rep.l("knn.heap_inserts_per_answer", ratio(static_cast<double>(s.heap_inserts), a), "count");
  rep.l("knn.offer_yield",
        ratio(static_cast<double>(s.heap_inserts), static_cast<double>(s.points_examined)),
        "ratio");
  rep.l("knn.backtracks_per_answer", ratio(static_cast<double>(s.backtracks), a), "count");
  rep.l("knn.restarts_per_answer", ratio(static_cast<double>(s.restarts), a), "count");
}

/// Modeled per-answer latency of a closed loop: every answer of a batch call
/// completes when the call's kernel does, so each answer's latency is the
/// call's wall time.
void add_call_latency(obs::Histogram& h, const knn::BatchResult& r) {
  const auto us = static_cast<std::uint64_t>(std::llround(r.timing.wall_ms * 1000.0));
  for (std::size_t i = 0; i < r.queries.size(); ++i) h.add(us);
}

/// The oracle: exact kNN by knn::brute_force_batch over `data`, with result
/// ids mapped through `ids` (identity when empty). `drop_self[i]` removes
/// that id from query i's list (self-join); brute force then runs at k + 1.
std::vector<std::vector<KnnHeap::Entry>> oracle_answers(const PointSet& data,
                                                        const PointSet& queries, std::size_t k,
                                                        const std::vector<PointId>& ids,
                                                        const std::vector<PointId>* drop_self) {
  knn::GpuKnnOptions g;
  g.k = drop_self != nullptr ? k + 1 : k;
  knn::BatchResult br = knn::brute_force_batch(data, queries, g);
  std::vector<std::vector<KnnHeap::Entry>> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (KnnHeap::Entry e : br.queries[i].neighbors) {
      if (!ids.empty()) e.id = ids[e.id];
      if (drop_self != nullptr && e.id == (*drop_self)[i]) continue;
      if (out[i].size() < k) out[i].push_back(e);
    }
  }
  return out;
}

/// Seeded sample of `count` distinct indices below n, ascending.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) std::swap(idx[i], idx[i + rng.next_below(n - i)]);
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Self-time ledger of a traced pass: per-layer self seconds, which must sum
/// to the root span's duration.
void report_self_times(Report& rep, const SpanRecorder& rec) {
  const auto by_layer = perfbench::layer_self_times(rec.spans());
  double sum = 0;
  for (const auto& [layer, s] : by_layer) {
    sum += s;
    rep.notes.push_back("self time " + layer + ": " + fmt(s) + " s");
  }
  const double total = rec.spans().front().duration();
  rep.notes.push_back("self times sum " + fmt(sum) + " s; traced host time " + fmt(total) +
                      " s");
  if (std::abs(sum - total) > 1e-6 * std::max(1.0, total)) rep.invariant_ok = false;
}

void write_spans(const Args& a, const SpanRecorder& rec) {
  namespace fs = std::filesystem;
  fs::create_directories(a.spans_dir);
  const std::string run_id = a.workload + "-seed" + std::to_string(a.seed);
  const fs::path path = fs::path(a.spans_dir) / (run_id + ".json");
  std::ofstream f(path);
  const std::vector<double> self = perfbench::self_times(rec.spans());
  f << "{\"run_id\": \"" << run_id << "\", \"spans\": [\n";
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const perfbench::Span& s = rec.spans()[i];
    f << (i ? ",\n" : "") << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"run_id\": \"" << run_id << "\", \"name\": \"" << s.name << "\", \"layer\": \""
      << s.layer << "\", \"start_s\": " << fmt(s.start_s) << ", \"end_s\": " << fmt(s.end_s)
      << ", \"self_s\": " << fmt(self[i]) << "}";
  }
  f << "\n]}\n";
}

/// Answers sampled for the oracle, in sample order, with their status.
struct SampledAnswers {
  std::vector<std::vector<KnnHeap::Entry>> neighbors;
  std::vector<char> ok;
  void keep(const knn::QueryResult& q) {
    neighbors.push_back(q.neighbors);
    ok.push_back(q.status == knn::QueryStatus::kOk);
  }
  /// Tally every sampled answer against the oracle's.
  void check(FailTally& tally, const std::vector<std::vector<KnnHeap::Entry>>& want) const {
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const bool match = perfbench::same_answer(neighbors[i], want[i]);
      tally.record(true, false, ok[i] != 0, &match);
    }
  }
};

// ------------------------------------------------------------ closed loops
//
// With --trace 1 every timed call is paired: the call runs untraced (the
// reference), then again under an obs::TraceSession. Pairing call by call
// keeps the tracing overhead free of the host's slow drift.

struct LoopOut {
  std::vector<double> call_s;    ///< untraced calls after the warm-up
  std::vector<double> traced_s;  ///< paired traced calls (--trace 1)
  ModelTotals model;             ///< the first pass over the inputs
  obs::Histogram model_lat;      ///< modeled per-answer latency, first pass
  Counters counters;             ///< registry deltas of the first pass
  std::uint64_t degraded = 0;
  SampledAnswers sampled;
};

/// Closed loop over `inputs` inputs of `per_input` answers each: `call(i)`
/// answers input i. One warm-up call is discarded; then the loop cycles
/// until every input ran once and `seconds` have passed. First-pass answers
/// at the flat indices in `sample` are kept for the oracle and tallied there.
template <typename Call>
LoopOut closed_loop(Call&& call, std::size_t inputs, std::size_t per_input, double seconds,
                    bool paired, const std::string& span, const std::string& layer,
                    SpanRecorder& rec, FailTally& tally,
                    const std::vector<std::size_t>& sample) {
  LoopOut p;
  std::vector<char> is_sampled(inputs * per_input, 0);
  for (const std::size_t s : sample) is_sampled[s] = 1;
  timed(rec, span + ".warmup", layer, [&] { (void)call(0); });
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < inputs || elapsed_s(t0) < seconds; ++i) {
    const std::size_t b = i % inputs;
    const bool first = i < inputs;
    const auto reference = [&] {
      const Counters before = first ? registry_counters() : Counters{};
      knn::BatchResult r;
      p.call_s.push_back(
          timed(rec, paired ? span + ".reference" : span, layer, [&] { r = call(b); }));
      if (first) {
        add_delta(p.counters, before, registry_counters());
        p.model.add(r);
        add_call_latency(p.model_lat, r);
        for (const std::size_t s : sample) {
          if (s / per_input == b) p.sampled.keep(r.queries[s % per_input]);
        }
      }
      for (std::size_t q = 0; q < r.queries.size(); ++q) {
        const bool ok = r.queries[q].status == knn::QueryStatus::kOk;
        if (!ok) ++p.degraded;
        if (!(first && is_sampled[b * per_input + q])) tally.record(true, false, ok, nullptr);
      }
    };
    const auto traced = [&] {
      const obs::TraceSession session;
      p.traced_s.push_back(timed(rec, span, layer, [&] { (void)call(b); }));
    };
    // Pairs alternate which side runs first, so cache warmth favors neither.
    if (paired && i % 2 == 1) {
      traced();
      reference();
    } else {
      reference();
      if (paired) traced();
    }
  }
  return p;
}

double sum(const std::vector<double>& v) {
  double t = 0;
  for (const double x : v) t += x;
  return t;
}

/// Tracing overhead of paired calls: (traced - untraced) / untraced.
double overhead(double traced, double untraced) { return (traced - untraced) / untraced; }

/// Set-up repetitions of a single-tree workload: build, then construct the
/// engine; the last pair is kept. Returns the host seconds of each part.
struct Setups {
  std::vector<double> setup_s, build_s, ctor_s;
};

template <typename Build, typename Ctor>
Setups repeat_setup(int reps, SpanRecorder& rec, const std::string& build_span,
                    const std::string& ctor_span, const std::string& ctor_layer, Build&& build,
                    Ctor&& ctor) {
  Setups s;
  for (int r = 0; r < reps; ++r) {
    const double b = timed(rec, build_span, "sstree", build);
    const double c = timed(rec, ctor_span, ctor_layer, ctor);
    s.build_s.push_back(b);
    s.ctor_s.push_back(c);
    s.setup_s.push_back(b + c);
  }
  return s;
}

// ---------------------------------------------------------------- batch-knn
//
// 100k NOAA-like readings, k-means SS-tree (degree 64), snapshot arena with
// Hilbert query reorder, PSB at k = 32. A closed loop of 1,024-query
// BatchEngine::run calls on 2 threads over a fixed, seeded list of batches;
// the first pass over the list is the deterministic (modeled) sample.

constexpr std::size_t kBatchSize = 1024;
constexpr std::size_t kBatchList = 16;
constexpr std::size_t kBatchK = 32;
constexpr std::size_t kThreads = 2;
constexpr int kBatchSetups = 9;

engine::BatchEngineOptions batch_options() {
  engine::BatchEngineOptions o;
  o.algorithm = engine::Algorithm::kPsb;
  o.gpu.k = kBatchK;
  o.num_threads = kThreads;
  o.layout = engine::NodeLayout::kSnapshot;
  o.reorder_queries = true;
  return o;
}

Report run_batch_knn(const Args& a) {
  Report rep;
  rep.header = {"workload batch-knn: closed loop, batch " + std::to_string(kBatchSize) +
                    " queries per BatchEngine::run call, " + std::to_string(kThreads) +
                    " engine threads",
                "scale: 100k NOAA-like 4-D points, k-means SS-tree degree 64, PSB k=32, "
                "snapshot arena + Hilbert reorder, queries = data + N(0, 0.5) jitter"};
  const PointSet data = noaa_points();
  Rng qrng(sub_seed(a.seed, 2));
  std::vector<PointSet> batches;
  for (std::size_t b = 0; b < kBatchList; ++b) {
    batches.push_back(jittered_queries(data, kBatchSize, 0.5, qrng));
  }
  const std::vector<std::size_t> sample =
      sample_indices(kBatchList * kBatchSize, kOracleSample, sub_seed(a.seed, 3));

  SpanRecorder rec(a.trace);
  const std::uint64_t root = rec.begin("run", "bench");
  std::unique_ptr<sstree::BuildOutput> built;
  std::unique_ptr<engine::BatchEngine> eng;
  const Setups setups = repeat_setup(
      kBatchSetups, rec, "sstree.build_kmeans", "engine.ctor", "engine",
      [&] {
        eng.reset();
        built = std::make_unique<sstree::BuildOutput>(sstree::build_kmeans(data, 64));
      },
      [&] { eng = std::make_unique<engine::BatchEngine>(built->tree, batch_options()); });
  std::uint64_t arena_bytes = 0;
  const double arena_s = timed(rec, "layout.snapshot_probe", "layout", [&] {
    arena_bytes = layout::TraversalSnapshot(built->tree).arena_bytes();
  });
  LoopOut L = closed_loop([&](std::size_t b) { return eng->run(batches[b]); }, kBatchList,
                          kBatchSize, a.seconds, a.trace, "engine.run", "engine", rec,
                          rep.tally, sample);
  timed(rec, "oracle", "oracle", [&] {
    PointSet q(data.dims());
    for (const std::size_t s : sample) q.append(batches[s / kBatchSize][s % kBatchSize]);
    L.sampled.check(rep.tally, oracle_answers(data, q, kBatchK, {}, nullptr));
  });
  rec.end(root);

  rep.e("setup_s", median(setups.setup_s), "s");
  rep.e("host_qps", static_cast<double>(kBatchSize * L.call_s.size()) / sum(L.call_s), "1/s");
  rep.e("model_us_per_answer", perfbench::model_us_per_answer(L.model.wall_ms, L.model.answers),
        "us");
  rep.e("model_bytes_per_answer",
        perfbench::per_answer(static_cast<double>(L.model.metrics.total_bytes()),
                              L.model.answers),
        "bytes");
  rep.e("warp_eff", L.model.metrics.warp_efficiency(), "fraction");
  rep.e("serve_p50_us", static_cast<double>(L.model_lat.percentile(50)), "us");
  rep.e("serve_p99_us", static_cast<double>(L.model_lat.percentile(99)), "us");
  rep.e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.notes.push_back(summary_line("setup", setups.setup_s, "s"));
  rep.notes.push_back(summary_line("BatchEngine::run call", L.call_s, "s"));
  rep.notes.push_back(hist_line("modeled answer latency", L.model_lat));

  // Per-layer host figures come from the traced calls when there are any.
  const std::vector<double>& calls = a.trace ? L.traced_s : L.call_s;
  std::vector<double> call_ms;
  for (const double s : calls) call_ms.push_back(s * 1000.0);
  rep.l("sstree.build_s", median(setups.build_s), "s");
  rep.l("sstree.nodes", static_cast<double>(built->tree.num_nodes()), "count");
  rep.l("sstree.height", built->tree.height(), "count");
  rep.l("layout.arena_build_s", arena_s, "s");
  rep.l("layout.arena_bytes", static_cast<double>(arena_bytes), "bytes");
  rep.l("engine.ctor_s", median(setups.ctor_s), "s");
  rep.l("engine.run_s", sum(calls), "s");
  rep.l("engine.call_ms_p50", perfbench::percentile(call_ms, 50), "ms");
  rep.l("engine.call_ms_p90", perfbench::percentile(call_ms, 90), "ms");
  rep.l("engine.degraded", static_cast<double>(L.degraded), "count");
  report_knn(rep, L.model);
  report_simt(rep, L.model);
  report_exec(rep, L.model.exec);
  if (a.trace) {
    rep.notes.push_back(summary_line("traced BatchEngine::run", call_ms, "ms"));
    rep.l("obs.trace_overhead_frac", overhead(sum(L.traced_s), sum(L.call_s)), "fraction");
    report_self_times(rep, rec);
    write_spans(a, rec);
  }
  return rep;
}

// ------------------------------------------------------------- allknn-join
//
// All-kNN self-join of a seeded 30k-point subset of the NOAA-like fixture:
// Hilbert SS-tree (degree 64), JoinEngine dual variant at k = 16 on the
// snapshot arena, 2 threads. Each timed call is one whole all_knn();
// BatchEngine is bypassed.

constexpr std::size_t kJoinPoints = 30000;
constexpr std::size_t kJoinK = 16;
constexpr int kJoinSetups = 15;

join::JoinOptions join_options() {
  join::JoinOptions o;
  o.k = kJoinK;
  o.variant = join::JoinVariant::kDual;
  o.engine.layout = engine::NodeLayout::kSnapshot;
  o.engine.num_threads = kThreads;
  o.engine.gpu.k = kJoinK;
  return o;
}

Report run_allknn_join(const Args& a) {
  Report rep;
  rep.header = {"workload allknn-join: closed loop, one all_knn() self-join of " +
                    std::to_string(kJoinPoints) + " points per call, " +
                    std::to_string(kThreads) + " engine threads",
                "scale: seeded 30k subset of the 100k NOAA-like 4-D points, Hilbert SS-tree "
                "degree 64, dual walk k=16, snapshot arena"};
  // The subset keeps the fixture's density while the input follows --seed.
  const PointSet data = [&] {
    const std::vector<std::size_t> pick =
        sample_indices(kFixtureStations * kReadingsPerStation, kJoinPoints,
                       sub_seed(a.seed, 1));
    const std::vector<PointId> ids(pick.begin(), pick.end());
    return noaa_points().subset(ids);
  }();
  const std::vector<std::size_t> sample =
      sample_indices(data.size(), kOracleSample, sub_seed(a.seed, 3));

  SpanRecorder rec(a.trace);
  const std::uint64_t root = rec.begin("run", "bench");
  std::unique_ptr<sstree::BuildOutput> built;
  std::unique_ptr<join::JoinEngine> eng;
  const Setups setups = repeat_setup(
      kJoinSetups, rec, "sstree.build_hilbert", "join.ctor", "join",
      [&] {
        eng.reset();
        built = std::make_unique<sstree::BuildOutput>(sstree::build_hilbert(data, 64));
      },
      [&] { eng = std::make_unique<join::JoinEngine>(built->tree, join_options()); });
  std::uint64_t arena_bytes = 0;
  const double arena_s = timed(rec, "layout.snapshot_probe", "layout", [&] {
    arena_bytes = layout::TraversalSnapshot(built->tree).arena_bytes();
  });
  LoopOut L = closed_loop([&](std::size_t) { return eng->all_knn(); }, 1, data.size(),
                          a.seconds, a.trace, "join.all_knn", "join", rec, rep.tally, sample);
  timed(rec, "oracle", "oracle", [&] {
    PointSet q(data.dims());
    std::vector<PointId> self_ids;
    for (const std::size_t s : sample) {
      q.append(data[s]);
      self_ids.push_back(static_cast<PointId>(s));
    }
    L.sampled.check(rep.tally, oracle_answers(data, q, kJoinK, {}, &self_ids));
  });
  rec.end(root);

  const ModelTotals& M = L.model;
  rep.e("setup_s", median(setups.setup_s), "s");
  rep.e("host_qps", static_cast<double>(data.size() * L.call_s.size()) / sum(L.call_s), "1/s");
  rep.e("model_us_per_answer", perfbench::model_us_per_answer(M.wall_ms, M.answers), "us");
  rep.e("model_bytes_per_answer",
        perfbench::per_answer(static_cast<double>(M.metrics.total_bytes()), M.answers),
        "bytes");
  rep.e("warp_eff", M.metrics.warp_efficiency(), "fraction");
  rep.e("serve_p50_us", static_cast<double>(L.model_lat.percentile(50)), "us");
  rep.e("serve_p99_us", static_cast<double>(L.model_lat.percentile(99)), "us");
  rep.e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.notes.push_back(summary_line("setup", setups.setup_s, "s"));
  rep.notes.push_back(summary_line("JoinEngine::all_knn call", L.call_s, "s"));
  rep.notes.push_back(hist_line("modeled answer latency", L.model_lat));
  rep.notes.push_back("JoinEngine's own timing.avg_query_ms is per cohort (blocks = cohorts) "
                      "and is not used; model_us_per_answer = wall_ms * 1000 / answers");

  const std::vector<double>& calls = a.trace ? L.traced_s : L.call_s;
  const Counters& C = L.counters;
  const double answers = static_cast<double>(M.answers);
  rep.l("sstree.build_s", median(setups.build_s), "s");
  rep.l("sstree.nodes", static_cast<double>(built->tree.num_nodes()), "count");
  rep.l("sstree.height", built->tree.height(), "count");
  rep.l("layout.arena_build_s", arena_s, "s");
  rep.l("layout.arena_bytes", static_cast<double>(arena_bytes), "bytes");
  rep.l("engine.degraded", static_cast<double>(L.degraded), "count");
  report_simt(rep, M);
  report_exec(rep, M.exec);
  rep.l("join.run_s", sum(calls), "s");
  rep.l("join.cohorts", static_cast<double>(get(C, "engine.join.cohorts")), "count");
  rep.l("join.answers_per_cohort",
        ratio(answers, static_cast<double>(get(C, "engine.join.cohorts"))), "count");
  rep.l("join.pair_prunes", static_cast<double>(get(C, "engine.join.pair_prunes")), "count");
  rep.l("join.prune_saved_bytes", static_cast<double>(get(C, "engine.join.prune_saved_bytes")),
        "bytes");
  rep.l("join.maxdist_tightens", static_cast<double>(get(C, "engine.join.maxdist_tightens")),
        "count");
  rep.l("join.leaf_refine_skips", static_cast<double>(get(C, "engine.join.leaf_refine_skips")),
        "count");
  rep.l("join.points_per_answer", ratio(static_cast<double>(M.stats.points_examined), answers),
        "count");
  if (a.trace) {
    rep.notes.push_back(summary_line("traced JoinEngine::all_knn", calls, "s"));
    rep.l("obs.trace_overhead_frac", overhead(sum(L.traced_s), sum(L.call_s)), "fraction");
    report_self_times(rep, rec);
    write_spans(a, rec);
  }
  return rep;
}

// ------------------------------------------------------------ stream-churn
//
// Reads and writes together: a 4-shard Hilbert ShardedEngine (snapshot arena,
// result cache) over 100k points behind a buffered StreamingEngine with
// 2 replicas x 4 groups, hedging and a seeded 10% x 8 straggler profile.
// Open-loop arrivals on the virtual clock (4,000 qps Poisson plus hotspot
// bursts sitting exactly on live data points) replay in segments, with a
// batch of inserts and erases between segments. The segment count is fixed
// from --seconds, so every virtual-clock figure and count is deterministic.
// With --trace 1 a second copy of the index replays every segment and write
// under an obs::TraceSession right after the untraced copy.

constexpr std::size_t kStreamK = 16;
constexpr double kSegmentVirtualS = 0.25;
constexpr std::size_t kWritesPerSegment = 16;  ///< inserts, and as many erases
constexpr int kStreamSetups = 7;
/// Unserved segments whose queries feed the offline ShardedEngine::run probe
/// (the modeled device figures of this workload).
constexpr std::size_t kProbeSegments = 12;

shard::ShardedEngineOptions shard_options() {
  shard::ShardedEngineOptions o;
  o.num_shards = 4;
  o.degree = 64;
  o.builder = shard::ShardTreeBuilder::kHilbert;
  o.engine.algorithm = engine::Algorithm::kPsb;
  o.engine.gpu.k = kStreamK;
  o.engine.layout = engine::NodeLayout::kSnapshot;
  o.engine.reorder_queries = true;
  o.engine.warp_queries = 16;
  o.engine.num_threads = kThreads;
  o.cache_capacity = 4096;
  return o;
}

serve::StreamingOptions stream_options(std::uint64_t seed) {
  serve::StreamingOptions o;
  o.engine = shard_options().engine;
  o.mode = serve::DispatchMode::kBuffered;
  o.buffer_capacity = 16;
  o.deadline_us = 6000;
  o.cell_bits = 1;
  o.replica.replicas = 2;
  o.replica.groups = 4;
  o.replica.hedge = true;
  o.replica.straggle_pct = 10;
  o.replica.straggle_multiplier = 8;
  o.replica.health_seed = seed;
  return o;
}

/// Segments replayed: two per second of --seconds (a segment takes about
/// half a host second here), so the virtual-clock sample is fixed by the run
/// length and never by host speed.
std::size_t stream_segments(double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(std::lround(seconds * 2)));
}

/// The benchmark's own mirror of which global ids are alive, with every
/// point ever indexed (global id = position).
struct LiveMirror {
  std::vector<std::vector<Scalar>> coords;
  std::vector<char> alive;
  std::size_t alive_count = 0;

  explicit LiveMirror(const PointSet& data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      coords.emplace_back(data[i].begin(), data[i].end());
    }
    alive.assign(data.size(), 1);
    alive_count = data.size();
  }
  /// Alive points in ascending global id, and their ids.
  PointSet live(std::size_t dims, std::vector<PointId>& ids) const {
    PointSet p(dims);
    p.reserve(alive_count);
    ids.clear();
    for (std::size_t g = 0; g < coords.size(); ++g) {
      if (!alive[g]) continue;
      p.append(coords[g]);
      ids.push_back(static_cast<PointId>(g));
    }
    return p;
  }
  std::size_t random_alive(Rng& rng) const {
    std::size_t g = 0;
    do g = rng.next_below(coords.size()); while (!alive[g]);
    return g;
  }
};

/// One copy of the stream-churn index and what its replays measured.
struct ChurnCopy {
  std::unique_ptr<shard::ShardedEngine> eng;
  bool traced = false;
  std::vector<double> run_s, seg_s, answers, insert_ms, erase_ms;  ///< per segment / write
  double timed_s = 0;  ///< serve construction + run + writes
  std::uint64_t answered = 0, arrivals = 0, shed = 0, misses = 0, bytes = 0;
  std::uint64_t flushes = 0, flush_full = 0, flush_deadline = 0, max_depth = 0;
  obs::Histogram latency, dispatch;
  replica::ReplicaStats replica;
  simt::OverlapTotals exec;
  Counters counters;  ///< registry deltas of this copy's replays and writes
  std::unique_ptr<serve::StreamingEngine> last;

  std::string span(const char* name) const {
    return traced ? std::string(name) : std::string(name) + ".reference";
  }

  /// Replay one segment through a fresh StreamingEngine over this index.
  serve::StreamingReport replay(const serve::ArrivalStream& stream, const PointSet& data,
                                const serve::StreamingOptions& so, SpanRecorder& rec) {
    std::optional<obs::TraceSession> session;
    if (traced) session.emplace();
    const Counters before = registry_counters();
    std::unique_ptr<serve::StreamingEngine> se;
    const double ctor = timed(rec, span("serve.ctor"), "serve", [&] {
      se = std::make_unique<serve::StreamingEngine>(*eng, data, so);
    });
    serve::StreamingReport r;
    const double run = timed(rec, span("serve.run"), "serve", [&] { r = se->run(stream); });
    add_delta(counters, before, registry_counters());
    timed_s += ctor + run;
    run_s.push_back(run);
    answers.push_back(static_cast<double>(r.answered));
    arrivals += r.arrivals;
    answered += r.answered;
    shed += r.shed;
    misses += r.deadline_misses;
    bytes += r.accessed_bytes;
    flushes += r.flushes;
    flush_full += r.flush_full;
    flush_deadline += r.flush_deadline;
    max_depth = std::max(max_depth, r.max_queue_depth);
    latency.merge(r.latency_us);
    dispatch.merge(r.replica_dispatch_us);
    exec.merge(r.exec);
    replica.dispatches += r.replica.dispatches;
    replica.attempts += r.replica.attempts;
    replica.failovers += r.replica.failovers;
    replica.hedge_issued += r.replica.hedge_issued;
    replica.hedge_won += r.replica.hedge_won;
    last = std::move(se);
    return r;
  }

  /// Apply one segment's writes; `run` is that segment's replay seconds.
  void write(const std::vector<std::vector<Scalar>>& inserts,
             const std::vector<PointId>& erases, PointId first_new_id, double run,
             SpanRecorder& rec) {
    std::optional<obs::TraceSession> session;
    if (traced) session.emplace();
    const Counters before = registry_counters();
    double write_s = 0;
    for (std::size_t i = 0; i < inserts.size(); ++i) {
      PointId id = 0;
      const double s =
          timed(rec, span("shard.insert"), "shard", [&] { id = eng->insert(inserts[i]); });
      if (id != first_new_id + i) throw std::runtime_error("insert returned an unexpected id");
      insert_ms.push_back(s * 1000.0);
      write_s += s;
    }
    for (const PointId g : erases) {
      bool ok = false;
      const double s = timed(rec, span("shard.erase"), "shard", [&] { ok = eng->erase(g); });
      if (!ok) throw std::runtime_error("erase of a live id failed");
      erase_ms.push_back(s * 1000.0);
      write_s += s;
    }
    add_delta(counters, before, registry_counters());
    timed_s += write_s;
    seg_s.push_back(run + write_s);
  }
};

/// Oracle over one segment: a seeded sample plus every answer completed past
/// its deadline. The serve layer flags a late answer kDeadlinePartial though
/// it is exact, so each one is verified here; a verified late answer is an
/// SLO miss (slo_miss_frac), not a failure. Returns the late exact count.
std::uint64_t check_segment(const serve::StreamingReport& r, const serve::ArrivalStream& stream,
                            const LiveMirror& mirror, std::size_t per_segment,
                            std::uint64_t seed, FailTally& tally) {
  std::vector<char> check(r.queries.size(), 0);
  for (const std::size_t i : sample_indices(r.queries.size(), per_segment, seed)) check[i] = 1;
  PointSet q(stream.queries.dims());
  std::vector<std::size_t> which;
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    if ((check[i] || r.queries[i].deadline_missed) && !r.queries[i].shed) {
      q.append(stream.queries[i]);
      which.push_back(i);
    }
  }
  std::vector<PointId> ids;
  const PointSet live = mirror.live(stream.queries.dims(), ids);
  const auto want = oracle_answers(live, q, kStreamK, ids, nullptr);
  std::vector<int> match(r.queries.size(), -1);
  for (std::size_t j = 0; j < which.size(); ++j) {
    match[which[j]] = perfbench::same_answer(r.queries[which[j]].neighbors, want[j]) ? 1 : 0;
  }
  std::uint64_t late_exact = 0;
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    const serve::StreamedQuery& sq = r.queries[i];
    const bool m = match[i] == 1;
    const bool late =
        sq.deadline_missed && sq.status == knn::QueryStatus::kDeadlinePartial && m;
    if (late) ++late_exact;
    tally.record(sq.flush_id != 0, sq.shed, sq.status == knn::QueryStatus::kOk || late,
                 match[i] >= 0 ? &m : nullptr);
  }
  return late_exact;
}

Report run_stream_churn(const Args& a) {
  Report rep;
  // With --trace 1 each segment is replayed twice (untraced, then traced).
  const std::size_t segments = stream_segments(a.trace ? a.seconds / 2 : a.seconds);
  rep.header = {"workload stream-churn: open loop on the virtual clock, 4000 qps Poisson + "
                "20 bursts/s x 32 on live points, " + std::to_string(segments) +
                    " segments of " + fmt(kSegmentVirtualS) + " virtual s, " +
                    std::to_string(kWritesPerSegment) + " inserts + " +
                    std::to_string(kWritesPerSegment) +
                    " erases between segments, " + std::to_string(kThreads) + " engine threads",
                "scale: 100k NOAA-like 4-D points, 4 Hilbert shards degree 64, PSB k=16, "
                "snapshot arena, result cache 4096, buffered cell_bits 1 capacity 16 deadline "
                "6 ms, 2 replicas x 4 groups, hedged, 10% x 8 stragglers"};
  const PointSet data = noaa_points();
  const serve::StreamingOptions so = stream_options(sub_seed(a.seed, 5));
  LiveMirror mirror(data);
  Rng wrng(sub_seed(a.seed, 7));
  const auto arrivals_for = [&](std::size_t seg) {
    std::vector<PointId> ids;
    const PointSet live = mirror.live(data.dims(), ids);
    serve::ArrivalSpec spec;
    spec.rate_qps = 4000;
    spec.duration_s = kSegmentVirtualS;
    spec.burst_rate_per_s = 20;
    spec.burst_size = 32;
    spec.burst_spread = 0.0;
    spec.query_jitter = 0.5;
    spec.seed = sub_seed(a.seed, 100 + seg);
    return serve::generate_arrivals(live, spec);
  };

  SpanRecorder rec(a.trace);
  const std::uint64_t root = rec.begin("run", "bench");
  std::vector<double> setup_s;
  std::vector<ChurnCopy> copies(a.trace ? 2 : 1);
  for (int r = 0; r < kStreamSetups; ++r) {
    copies[0].eng.reset();
    setup_s.push_back(timed(rec, "shard.ctor", "shard", [&] {
      copies[0].eng = std::make_unique<shard::ShardedEngine>(data, shard_options());
    }));
  }
  if (a.trace) {
    copies[1].traced = true;
    timed(rec, "shard.ctor", "shard", [&] {
      copies[1].eng = std::make_unique<shard::ShardedEngine>(data, shard_options());
    });
  }
  ChurnCopy& ref = copies[0];
  ChurnCopy& P = copies.back();  // the copy the per-layer host figures come from

  std::uint64_t late_exact = 0;
  serve::ArrivalStream last_stream;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    serve::ArrivalStream stream = arrivals_for(seg);
    // Copies alternate which replays first, so cache warmth favors neither.
    const bool flip = copies.size() == 2 && seg % 2 == 1;
    if (flip) (void)copies[1].replay(stream, data, so, rec);
    const serve::StreamingReport reference = copies[0].replay(stream, data, so, rec);
    if (copies.size() == 2 && !flip) (void)copies[1].replay(stream, data, so, rec);
    timed(rec, "oracle", "oracle", [&] {
      late_exact += check_segment(reference, stream, mirror, kOracleSample / segments + 1,
                                  sub_seed(a.seed, 300 + seg), rep.tally);
    });

    // Writes: inserts near live points, erases of live ids (same for every copy).
    std::vector<std::vector<Scalar>> inserts(kWritesPerSegment,
                                             std::vector<Scalar>(data.dims()));
    for (std::vector<Scalar>& pt : inserts) {
      const std::size_t g = mirror.random_alive(wrng);
      for (std::size_t d = 0; d < pt.size(); ++d) {
        pt[d] = static_cast<Scalar>(mirror.coords[g][d] + wrng.normal(0.0, 0.5));
      }
    }
    const auto first_new = static_cast<PointId>(mirror.coords.size());
    for (const std::vector<Scalar>& pt : inserts) {
      mirror.coords.push_back(pt);
      mirror.alive.push_back(1);
      ++mirror.alive_count;
    }
    std::vector<PointId> erases;
    for (std::size_t w = 0; w < kWritesPerSegment; ++w) {
      const std::size_t g = mirror.random_alive(wrng);
      mirror.alive[g] = 0;
      --mirror.alive_count;
      erases.push_back(static_cast<PointId>(g));
    }
    for (std::size_t k = 0; k < copies.size(); ++k) {
      ChurnCopy& c = copies[flip ? copies.size() - 1 - k : k];
      c.write(inserts, erases, first_new, c.run_s.back(), rec);
    }
    last_stream = std::move(stream);
  }

  // Probes on the final index state: a snapshot of every shard tree, and
  // kProbeSegments unserved segments of queries through ShardedEngine::run
  // offline (this workload's modeled device figures).
  std::uint64_t arena_bytes = 0, nodes = 0;
  int height = 0;
  const double arena_s = timed(rec, "layout.snapshot_probe", "layout", [&] {
    for (std::size_t s = 0; s < P.eng->num_shards(); ++s) {
      if (P.eng->shard_tree(s) != nullptr) {
        arena_bytes += layout::TraversalSnapshot(*P.eng->shard_tree(s)).arena_bytes();
      }
    }
  });
  for (std::size_t s = 0; s < P.eng->num_shards(); ++s) {
    if (P.eng->shard_tree(s) == nullptr) continue;
    nodes += P.eng->shard_tree(s)->num_nodes();
    height = std::max(height, P.eng->shard_tree(s)->height());
  }
  PointSet probe_queries(data.dims());
  for (std::size_t seg = segments; seg < segments + kProbeSegments; ++seg) {
    const serve::ArrivalStream next = arrivals_for(seg);
    for (std::size_t i = 0; i < next.size(); ++i) probe_queries.append(next.queries[i]);
  }
  ModelTotals probe;
  knn::BatchResult pr;
  const double probe_s =
      timed(rec, "shard.probe_run", "shard", [&] { pr = P.eng->run(probe_queries); });
  probe.add(pr);

  // Known serve defect, kept visible: replaying the last segment on the
  // reused replicated engine carries the replicas' busy windows into a
  // virtual clock that restarts at 0.
  std::uint64_t reuse_p50 = 0;
  if (a.trace) {
    serve::StreamingReport again;
    timed(rec, "serve.run.reuse", "serve", [&] { again = P.last->run(last_stream); });
    reuse_p50 = again.p50_us();
  }
  rec.end(root);

  // Host figures skip segment 0, the warm-up.
  const auto tail = [](const std::vector<double>& v) {
    return std::vector<double>(v.begin() + (v.size() > 1 ? 1 : 0), v.end());
  };
  const auto rate = [&](const ChurnCopy& c, const std::vector<double>& secs) {
    return sum(tail(c.answers)) / sum(tail(secs));
  };
  rep.e("setup_s", median(setup_s), "s");
  rep.e("host_qps", rate(ref, ref.seg_s), "1/s");
  rep.e("model_us_per_answer", perfbench::model_us_per_answer(probe.wall_ms, probe.answers),
        "us");
  rep.e("model_bytes_per_answer",
        perfbench::per_answer(static_cast<double>(ref.bytes), ref.answered), "bytes");
  rep.e("warp_eff", probe.metrics.warp_efficiency(), "fraction");
  rep.e("serve_p50_us", static_cast<double>(ref.latency.percentile(50)), "us");
  rep.e("serve_p99_us", static_cast<double>(ref.latency.percentile(99)), "us");
  rep.e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.notes.push_back(summary_line("setup", setup_s, "s"));
  rep.notes.push_back(summary_line("segment replay + writes", tail(ref.seg_s), "s"));
  rep.notes.push_back(summary_line("StreamingEngine::run", tail(ref.run_s), "s"));
  rep.notes.push_back(hist_line("virtual answer latency", ref.latency));
  rep.notes.push_back("deadline misses " + std::to_string(ref.misses) + " (verified exact: " +
                      std::to_string(late_exact) + "), sheds " + std::to_string(ref.shed) +
                      ", arrivals " + std::to_string(ref.arrivals));

  const Counters& C = ref.counters;
  std::vector<double> update_ms = P.insert_ms;
  update_ms.insert(update_ms.end(), P.erase_ms.begin(), P.erase_ms.end());
  rep.l("host_update_ms", sum(update_ms) / static_cast<double>(update_ms.size()), "ms");
  rep.l("slo_miss_frac",
        static_cast<double>(ref.misses + ref.shed) / static_cast<double>(ref.arrivals),
        "fraction");
  rep.l("sstree.nodes", static_cast<double>(nodes), "count");
  rep.l("sstree.height", height, "count");
  rep.l("layout.arena_build_s", arena_s, "s");
  rep.l("layout.arena_bytes", static_cast<double>(arena_bytes), "bytes");
  report_knn(rep, probe);
  report_simt(rep, probe);
  report_exec(rep, ref.exec);
  rep.l("shard.ctor_s", median(setup_s), "s");
  rep.l("shard.insert_ms_p50", perfbench::percentile(P.insert_ms, 50), "ms");
  rep.l("shard.insert_ms_p90", perfbench::percentile(P.insert_ms, 90), "ms");
  rep.l("shard.erase_ms_p50", perfbench::percentile(P.erase_ms, 50), "ms");
  rep.l("shard.erase_ms_p90", perfbench::percentile(P.erase_ms, 90), "ms");
  rep.l("shard.visits_per_answer",
        ratio(static_cast<double>(get(C, "engine.shard.shard_visits")),
              static_cast<double>(get(C, "engine.shard.queries"))),
        "count");
  rep.l("shard.bound_skips", static_cast<double>(get(C, "engine.shard.bound_skips")), "count");
  const double hits = static_cast<double>(get(C, "engine.shard.cache_hits"));
  rep.l("shard.cache_hit_ratio",
        ratio(hits, hits + static_cast<double>(get(C, "engine.shard.cache_misses"))), "ratio");
  rep.l("shard.cache_invalidated",
        static_cast<double>(get(C, "engine.shard.cache_invalidated")), "count");
  rep.l("shard.probe_run_s", probe_s, "s");
  rep.l("serve.run_s", sum(P.run_s), "s");
  rep.l("serve.host_qps", rate(P, P.run_s), "1/s");
  rep.l("serve.flushes", static_cast<double>(ref.flushes), "count");
  rep.l("serve.answers_per_flush",
        ratio(static_cast<double>(ref.answered), static_cast<double>(ref.flushes)), "count");
  rep.l("serve.flush_full", static_cast<double>(ref.flush_full), "count");
  rep.l("serve.flush_deadline", static_cast<double>(ref.flush_deadline), "count");
  rep.l("serve.max_queue_depth", static_cast<double>(ref.max_depth), "count");
  if (a.trace) rep.l("serve.reuse_p50_us", static_cast<double>(reuse_p50), "us");
  rep.l("replica.dispatch_us_p50", static_cast<double>(ref.dispatch.percentile(50)), "us");
  rep.l("replica.dispatch_us_p99", static_cast<double>(ref.dispatch.percentile(99)), "us");
  rep.l("replica.attempts_per_dispatch",
        ratio(static_cast<double>(ref.replica.attempts),
              static_cast<double>(ref.replica.dispatches)),
        "count");
  rep.l("replica.hedge_issued", static_cast<double>(ref.replica.hedge_issued), "count");
  rep.l("replica.hedge_yield",
        ratio(static_cast<double>(ref.replica.hedge_won),
              static_cast<double>(ref.replica.hedge_issued)),
        "ratio");
  rep.l("replica.failovers", static_cast<double>(ref.replica.failovers), "count");
  const std::string pass_name = a.trace ? "traced " : "";
  rep.notes.push_back(summary_line(pass_name + "ShardedEngine::insert", P.insert_ms, "ms"));
  rep.notes.push_back(summary_line(pass_name + "ShardedEngine::erase", P.erase_ms, "ms"));
  rep.notes.push_back(hist_line("replica dispatch", ref.dispatch));
  if (a.trace) {
    rep.l("obs.trace_overhead_frac", overhead(P.timed_s, ref.timed_s), "fraction");
    if (P.counters != ref.counters) rep.invariant_ok = false;  // tracing must not move a count
    rep.notes.push_back("serve.reuse_p50_us: known defect - a second run() on a reused "
                        "replicated StreamingEngine keeps replica busy windows from the first");
    report_self_times(rep, rec);
    write_spans(a, rec);
  }
  return rep;
}

// --------------------------------------------------------------- command line

/// The per-layer metric set every workload prints (0 where the layer does
/// no work on that workload), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> c = {
      {"host_update_ms", "ms"},
      {"slo_miss_frac", "fraction"},
      {"fail_frac", "fraction"},
      {"sstree.build_s", "s"},
      {"sstree.nodes", "count"},
      {"sstree.height", "count"},
      {"layout.arena_build_s", "s"},
      {"layout.arena_bytes", "bytes"},
      {"engine.ctor_s", "s"},
      {"engine.run_s", "s"},
      {"engine.call_ms_p50", "ms"},
      {"engine.call_ms_p90", "ms"},
      {"engine.degraded", "count"},
      {"knn.nodes_per_answer", "count"},
      {"knn.points_per_answer", "count"},
      {"knn.heap_inserts_per_answer", "count"},
      {"knn.offer_yield", "ratio"},
      {"knn.backtracks_per_answer", "count"},
      {"knn.restarts_per_answer", "count"},
      {"simt.compute_ms", "ms"},
      {"simt.mem_ms", "ms"},
      {"simt.latency_ms", "ms"},
      {"simt.serial_ms", "ms"},
      {"simt.occupancy", "fraction"},
      {"simt.bytes_coalesced", "bytes"},
      {"simt.bytes_random", "bytes"},
      {"simt.bytes_cached", "bytes"},
      {"simt.node_fetches", "count"},
      {"simt.divergent_steps", "count"},
      {"exec.steps", "count"},
      {"exec.overlap_ratio", "ratio"},
      {"join.run_s", "s"},
      {"join.cohorts", "count"},
      {"join.answers_per_cohort", "count"},
      {"join.pair_prunes", "count"},
      {"join.prune_saved_bytes", "bytes"},
      {"join.maxdist_tightens", "count"},
      {"join.leaf_refine_skips", "count"},
      {"join.points_per_answer", "count"},
      {"shard.ctor_s", "s"},
      {"shard.insert_ms_p50", "ms"},
      {"shard.insert_ms_p90", "ms"},
      {"shard.erase_ms_p50", "ms"},
      {"shard.erase_ms_p90", "ms"},
      {"shard.visits_per_answer", "count"},
      {"shard.bound_skips", "count"},
      {"shard.cache_hit_ratio", "ratio"},
      {"shard.cache_invalidated", "count"},
      {"shard.probe_run_s", "s"},
      {"serve.run_s", "s"},
      {"serve.host_qps", "1/s"},
      {"serve.flushes", "count"},
      {"serve.answers_per_flush", "count"},
      {"serve.flush_full", "count"},
      {"serve.flush_deadline", "count"},
      {"serve.max_queue_depth", "count"},
      {"serve.reuse_p50_us", "us"},
      {"replica.dispatch_us_p50", "us"},
      {"replica.dispatch_us_p99", "us"},
      {"replica.attempts_per_dispatch", "count"},
      {"replica.hedge_issued", "count"},
      {"replica.hedge_yield", "ratio"},
      {"replica.failovers", "count"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  return c;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload batch-knn|allknn-join|stream-churn "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      return usage(("unknown flag " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!have_workload) return usage("--workload is required");
  if (!(a.seconds > 0)) return usage("--seconds must be > 0");

  Report rep;
  if (a.workload == "batch-knn") {
    rep = run_batch_knn(a);
  } else if (a.workload == "allknn-join") {
    rep = run_allknn_join(a);
  } else if (a.workload == "stream-churn") {
    rep = run_stream_churn(a);
  } else {
    return usage(("unknown workload " + a.workload).c_str());
  }

  const FailTally& t = rep.tally;
  std::map<std::string, double> layer;
  for (const Metric& m : rep.layer) layer[m.name] = m.value;
  layer["fail_frac"] = t.fail_frac();

  std::printf("# perfbench %s seed=%" PRIu64 " seconds=%s trace=%d\n", a.workload.c_str(),
              a.seed, fmt(a.seconds).c_str(), a.trace ? 1 : 0);
  for (const std::string& h : rep.header) std::printf("# %s\n", h.c_str());
  std::printf("# answers attempted %" PRIu64 ", failed %" PRIu64 " (oracle checked %" PRIu64
              ", mismatches %" PRIu64 "; non-ok %" PRIu64 "; shed %" PRIu64
              "; unanswered %" PRIu64 ")\n",
              t.attempted, t.failed, t.oracle_checked, t.oracle_mismatches, t.not_ok, t.shed,
              t.unanswered);
  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : rep.e2e) {
    std::printf("e2e   %-30s %-22s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
  }
  for (const auto& [name, unit] : layer_catalog()) {
    const auto it = layer.find(name);
    std::printf("layer %-30s %-22s %s%s\n", name.c_str(),
                it == layer.end() ? "0" : fmt(it->second).c_str(), unit.c_str(),
                it == layer.end() ? "  (not measured on this workload)" : "");
  }

  // Wrong answers and a broken span ledger make the run incorrect; flagged,
  // shed or unanswered answers are failures counted in `failed`.
  const bool correct = t.oracle_mismatches == 0 && rep.invariant_ok;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  bool first = true;
  const auto add = [&](const std::string& name, double v, const std::string& unit) {
    json += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": " + fmt(v) +
                                   ", \"unit\": \"" + unit + "\"}");
    first = false;
  };
  if (a.trace) {
    for (const auto& [name, unit] : layer_catalog()) {
      const auto it = layer.find(name);
      add(name, it == layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const Metric& m : rep.e2e) add(m.name, m.value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
