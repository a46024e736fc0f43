// psbtool — command-line front end for the PSB library: generate datasets,
// build and persist indexes, run exact kNN / radius / join queries, serve
// arrival streams, write the gated bench JSON and run the fault campaigns.
// Everything a user needs to drive the system without writing C++; usage()
// below lists every command and flag.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "psb.hpp"

namespace {

using namespace psb;

[[noreturn]] void usage(const std::string& err = "") {
  if (!err.empty()) std::cerr << "error: " << err << "\n\n";
  std::cerr <<
      R"(usage: psbtool <command> [options]

commands:
  generate  --out FILE [--type clustered|uniform|noaa] [--dims N] [--count N]
            [--clusters N] [--stddev X] [--extent X] [--seed N]
            (noaa also takes --stations N --readings N, or --points N as the
             total reading count; --points/--count divide by --readings)
  build     --data FILE --out FILE [--builder kmeans|hilbert|topdown]
            [--degree N] [--bounds sphere|rect]
  info      --data FILE --index FILE
  query     --data FILE --index FILE [--k N] [--num-queries N]
            [--algo psb|bnb|brute|bestfirst|stackless_restart|stackless_skip|
                    task_parallel_sstree] [--seed N]
            [--snapshot 0|1] [--layout pointer|snapshot|implicit]
            [--reorder 0|1] [--warp-queries N]
            [--shards N] [--degree N] [--trace-out FILE.json]
            [--trace-csv FILE.csv]
            (every --algo, short or full engine name, is served through the
             BatchEngine; --algo stackless_skip --layout implicit is the
             stack-free escape-index sweep over the pointer-free arena;
             --shards serves through the scatter-gather ShardedEngine, which
             partitions --data itself; --index is then not required)
  radius    --data FILE --index FILE --radius X [--num-queries N] [--seed N]
  serve     --data FILE (--index FILE | --shards N [--degree N]) [--algo ...]
            [--k N] [--mode naive|buffered|both] [--rate QPS] [--duration-s S]
            [--deadline-ms X] [--horizon-ms X] [--capacity N] [--queue-bound N]
            [--cell-bits N] [--overhead-us N] [--diurnal-amplitude X]
            [--diurnal-period-s S] [--burst-rate X] [--burst-size N]
            [--seed N] [--out FILE.json] [--snapshot 0|1 (default 1)]
            [--layout pointer|snapshot|implicit] [--reorder 0|1]
            [--replicas R] [--replica-groups N] [--hedge 0|1] [--hedge-pct P]
            [--hedge-warmup N] [--replica-timeout-us N] [--straggle-pct P]
            [--straggle-mult M] [--replica-seed N]
            (replays a seeded arrival stream on the virtual clock through the
             streaming front-end and reports p50/p99 latency, throughput,
             deadline misses and sheds; --out writes the flat stream JSON;
             --replicas >= 1 serves each Hilbert shard range from R virtual
             replicas behind the failover/hedging router — --hedge-pct alone
             implies --hedge 1)
  bench     --out FILE.json [--type clustered|noaa] [--dims N] [--count N]
            [--clusters N] [--stddev X] [--stations N] [--readings N]
            [--points N] [--num-queries N | --queries N]
            [--k N] [--degree N] [--seed N] [--algos a,b,...]
            [--variants base,snapshot,snapshot_reorder,implicit,
             sharded,sharded_nobound,
             stream_naive,stream_buffered,replicated,replicated_hedged,
             join_single,join_dual]
            [--warp-queries N] [--shards N]
            [--stream-rate QPS] [--stream-duration-s S] [--stream-deadline-ms X]
            [--stream-horizon-ms X] [--stream-capacity N] [--stream-cell-bits N]
            [--stream-queue-bound N] [--stream-overhead-us N]
            [--stream-diurnal-amplitude X] [--stream-diurnal-period-s S]
            [--stream-burst-rate X] [--stream-burst-size N]
            [--replicas R] [--replica-groups N] [--hedge-pct P]
            [--hedge-warmup N] [--straggle-pct P] [--straggle-mult M]
            [--construction-points N] [--construction-degree N]
            [--construction-readings N] [--construction-budget-ms X]
            (--construction-points > 0 appends a Hilbert bulk-load bench of an
             N-reading noaa_synth set: node/arena metrics are deterministic
             and gated; host_build_seconds is informational, but exceeding
             --construction-budget-ms is a hard error)
            (replicated/replicated_hedged serve the stream through R virtual
             replicas under a seeded straggler profile, without and with
             tail-latency hedging; listing replicated first adds the hedged
             run's p99_latency_vs_unhedged_ratio gate field)
            (join_single/join_dual run the all-kNN self-join over the whole
             dataset through the per-point and dual-tree join engines;
             listing join_single first adds the dual run's
             accessed_bytes_vs_single_ratio gate field)
  allknn    --data FILE [--k N] [--builder kmeans|hilbert|topdown] [--degree N]
            [--bounds sphere|rect] [--variant dual|single|brute]
            [--include-self 0|1] [--algo ...] [--snapshot 0|1]
            [--layout pointer|snapshot|implicit] [--threads N]
            [--warp-queries N] [--print N] [--out FILE.json]
            (all-kNN self-join: every point's k nearest other points, via the
             dual-tree pair-pruning walk by default; --out writes a flat,
             byte-stable JSON summary with a per-query result digest)
  join      --data FILE --targets FILE [--k N] [... same knobs as allknn]
            (kNN-join: each target point's k nearest source points; neighbor
             ids index --data)
  faultcamp [--iterations N] [--seed N] [--out FILE.json] [--workdir DIR]
            (single-fault campaign; defaults to 1000 iterations round-robined
             over the registered sites, reported as the stable per-site
             fired/detected/masked/flagged table)
  chaoscamp [--iterations N] [--seed N] [--out FILE.json] [--workdir DIR]
            (multi-fault campaign: every iteration arms 2-3 concurrent seeded
             sites and serves through the replicated streaming front-end; the
             exact-or-flagged oracle must hold under overlapping failures)

exit codes: 0 ok, 2 usage error, 3 corrupt or unreadable input, 4 internal error
)";
  std::exit(2);
}

/// Minimal --key value parser for one command. A flag outside the command's
/// `accepted` list is a usage error, raised before the command does any work;
/// reading a flag the list omits is a psbtool bug (InternalError), so a list
/// cannot drift from the flags its command reads.
class Args {
 public:
  Args(int argc, char** argv, int first, std::string command, std::set<std::string> accepted)
      : command_(std::move(command)), accepted_(std::move(accepted)) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage("unexpected token: " + key);
      if (i + 1 >= argc) usage("missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
    for (const auto& [key, value] : values_) {
      if (accepted_.count(key) == 0) usage("unknown option --" + key + " for " + command_);
    }
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = find(key);
    if (it == values_.end()) {
      if (fallback.empty()) usage("missing required option --" + key);
      return fallback;
    }
    return it->second;
  }
  /// A non-negative decimal count: digits only, in range.
  std::size_t num(const std::string& key, std::size_t fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
        errno == ERANGE) {
      usage("--" + key + " takes a non-negative integer, got '" + v + "'");
    }
    return n;
  }
  /// A finite decimal number, nothing after it.
  double real(const std::string& key, double fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x)) {
      usage("--" + key + " takes a finite number, got '" + v + "'");
    }
    return x;
  }
  bool has(const std::string& key) const { return find(key) != values_.end(); }

 private:
  std::map<std::string, std::string>::const_iterator find(const std::string& key) const {
    PSB_ASSERT(accepted_.count(key) > 0,
               "psbtool " + command_ + " reads --" + key + " but does not accept it");
    return values_.find(key);
  }

  std::string command_;
  std::set<std::string> accepted_;
  std::map<std::string, std::string> values_;
};

int cmd_generate(const Args& args) {
  const std::string type = args.str("type", "clustered");
  const std::string out = args.str("out");
  PointSet points(1);
  if (type == "clustered") {
    data::ClusteredSpec spec;
    spec.dims = args.num("dims", 16);
    spec.num_clusters = args.num("clusters", 100);
    spec.points_per_cluster = args.num("count", 100000) / std::max<std::size_t>(1, spec.num_clusters);
    spec.stddev = args.real("stddev", 160.0);
    spec.seed = args.num("seed", 2016);
    points = data::make_clustered(spec);
  } else if (type == "uniform") {
    points = data::make_uniform(args.num("dims", 16), args.num("count", 100000),
                                args.real("extent", 65536.0), args.num("seed", 2016));
  } else if (type == "noaa") {
    data::NoaaSpec spec;
    spec.readings_per_station = args.num("readings", spec.readings_per_station);
    const std::size_t total = args.num("points", args.num("count", 100000));
    spec.stations = args.num(
        "stations", total / std::max<std::size_t>(1, spec.readings_per_station));
    spec.seed = args.num("seed", 1973);
    points = data::make_noaa_like(spec);
  } else {
    usage("unknown --type " + type);
  }
  data::write_binary(points, out);
  std::cout << "wrote " << points.size() << " x " << points.dims() << "-d points to " << out
            << "\n";
  return 0;
}

/// The SS-tree that --builder, --bounds and --degree ask for over `points`.
sstree::BuildOutput build_tree(const PointSet& points, const Args& args,
                               std::size_t default_degree) {
  const std::size_t degree = args.num("degree", default_degree);
  const std::string builder = args.str("builder", "kmeans");
  const sstree::BoundsMode bounds = args.str("bounds", "sphere") == "rect"
                                        ? sstree::BoundsMode::kRect
                                        : sstree::BoundsMode::kSphere;
  if (builder == "kmeans") {
    sstree::KMeansBuildOptions opts;
    opts.bounds = bounds;
    return sstree::build_kmeans(points, degree, opts);
  }
  if (builder == "hilbert") {
    sstree::HilbertBuildOptions opts;
    opts.bounds = bounds;
    return sstree::build_hilbert(points, degree, opts);
  }
  if (builder == "topdown") {
    if (bounds == sstree::BoundsMode::kRect) usage("topdown supports sphere bounds only");
    return sstree::build_topdown(points, degree);
  }
  usage("unknown --builder " + builder);
}

/// One "query i: (id, dist) ..." line for each of the first `n` answers.
void print_neighbors(const knn::BatchResult& r, std::size_t n) {
  for (std::size_t i = 0; i < std::min(n, r.queries.size()); ++i) {
    std::cout << "query " << i << ":";
    for (const auto& e : r.queries[i].neighbors) {
      std::cout << " (" << e.id << ", " << e.dist << ")";
    }
    std::cout << "\n";
  }
}

int cmd_build(const Args& args) {
  const PointSet points = data::read_binary(args.str("data"));
  const sstree::BuildOutput built = build_tree(points, args, 128);
  built.tree.validate();
  sstree::write_index(built.tree, args.str("out"));

  const auto s = built.tree.stats();
  std::cout << "built " << args.str("builder", "kmeans") << " SS-tree ("
            << args.str("bounds", "sphere") << " bounds) in "
            << built.host_build_seconds << " s: " << s.nodes << " nodes, " << s.leaves
            << " leaves, height " << s.height << ", leaf fill " << s.leaf_utilization * 100
            << "%\nindex written to " << args.str("out") << "\n";
  return 0;
}

int cmd_info(const Args& args) {
  const PointSet points = data::read_binary(args.str("data"));
  const sstree::SSTree tree = sstree::read_index(&points, args.str("index"));
  const auto s = tree.stats();
  std::cout << "dataset: " << points.size() << " x " << points.dims() << "-d ("
            << points.byte_size() / 1024 << " KiB)\n"
            << "index:   degree " << tree.degree() << ", "
            << (tree.bounds_mode() == sstree::BoundsMode::kSphere ? "sphere" : "rect")
            << " bounds, " << s.nodes << " nodes (" << s.leaves << " leaves), height "
            << s.height << "\n"
            << "         leaf fill " << s.leaf_utilization * 100 << "%, internal fill "
            << s.internal_utilization * 100 << "%, " << s.total_bytes / 1024
            << " KiB simulated device size\n";
  return 0;
}

/// Map psbtool's short --algo names (and, as a fallback, the full registry
/// names bench uses) onto the engine's algorithm enum.
engine::Algorithm algo_from_flag(const std::string& algo) {
  if (algo == "psb") return engine::Algorithm::kPsb;
  if (algo == "bnb") return engine::Algorithm::kBranchAndBound;
  if (algo == "brute") return engine::Algorithm::kBruteForce;
  if (algo == "bestfirst") return engine::Algorithm::kBestFirst;
  return engine::parse_algorithm(algo);
}

/// The serving layout from --layout and --snapshot 0|1, the latter being
/// shorthand for --layout snapshot; a non-pointer --layout wins. With neither
/// flag given, --snapshot takes `snapshot_default`.
engine::NodeLayout layout_from_flags(const Args& args, std::size_t snapshot_default = 0) {
  const engine::NodeLayout layout = engine::parse_node_layout(args.str("layout", "pointer"));
  if (layout != engine::NodeLayout::kPointer) return layout;
  const std::size_t snapshot = args.num("snapshot", args.has("layout") ? 0 : snapshot_default);
  return snapshot != 0 ? engine::NodeLayout::kSnapshot : layout;
}

int cmd_query(const Args& args) {
  const PointSet points = data::read_binary(args.str("data"));
  const std::size_t k = args.num("k", 8);
  const std::size_t nq = args.num("num-queries", 8);
  const PointSet queries = data::sample_queries(points, nq, 0.0, args.num("seed", 7));
  const std::string algo = args.str("algo", "psb");
  engine::BatchEngineOptions eo;
  eo.algorithm = algo_from_flag(algo);
  eo.gpu.k = k;
  eo.layout = layout_from_flags(args);
  eo.reorder_queries = args.num("reorder", 0) != 0;
  eo.warp_queries = args.num("warp-queries", 32);

  // Collect per-query traces when an export was requested; the session also
  // demonstrates the obs path the benches and tests share.
  const std::string trace_out = args.str("trace-out", "-");
  const std::string trace_csv = args.str("trace-csv", "-");
  std::optional<obs::TraceSession> session;
  if (trace_out != "-" || trace_csv != "-") session.emplace();

  knn::BatchResult r;
  std::string served = algo;
  if (args.has("shards")) {
    // Scatter-gather serving: partition the dataset and answer through the
    // ShardedEngine (the engine builds its own per-shard trees, so no
    // --index file is involved).
    shard::ShardedEngineOptions sopts;
    sopts.num_shards = args.num("shards", 4);
    sopts.degree = args.num("degree", 64);
    sopts.engine = eo;
    shard::ShardedEngine eng(points, sopts);
    r = eng.run(queries);
    served += " over " + std::to_string(eng.num_shards()) + " shards";
  } else {
    const sstree::SSTree tree = sstree::read_index(&points, args.str("index"));
    r = engine::BatchEngine(tree, eo).run(queries);
  }

  print_neighbors(r, r.queries.size());
  std::cout << "\n" << served << ": " << r.timing.avg_query_ms << " ms/query, "
            << r.accessed_mb() / static_cast<double>(queries.size()) << " MB/query, warp eff "
            << r.metrics.warp_efficiency() * 100 << "%\n";
  if (session) {
    const obs::TraceReport report = session->report();
    if (trace_out != "-") {
      obs::write_text_file(trace_out, obs::trace_to_json(report));
      std::cout << "trace json written: " << trace_out << "\n";
    }
    if (trace_csv != "-") {
      obs::write_text_file(trace_csv, obs::trace_to_csv(report));
      std::cout << "trace csv written: " << trace_csv << "\n";
    }
  }
  return 0;
}

// Join front end (`allknn` / `join`): build the source tree, run the
// requested join variant, and report deterministic counters plus a CRC32
// digest over every (id, dist, status) in query order — the compact
// bit-identity witness the metamorphic battery compares across variants,
// layouts and thread counts. With --out the flat JSON summary is byte-stable:
// two invocations with the same arguments write identical files.
int cmd_join_like(const Args& args, bool self_join) {
  const PointSet points = data::read_binary(args.str("data"));
  PointSet targets(points.dims());
  if (!self_join) targets = data::read_binary(args.str("targets"));

  const sstree::BuildOutput built = build_tree(points, args, 64);

  join::JoinOptions jo;
  jo.k = args.num("k", 8);
  jo.variant = join::parse_join_variant(args.str("variant", "dual"));
  jo.include_self = args.num("include-self", 0) != 0;
  jo.engine.algorithm = algo_from_flag(args.str("algo", "psb"));
  jo.engine.gpu.k = jo.k;
  jo.engine.layout = layout_from_flags(args);
  jo.engine.num_threads = args.num("threads", 0);
  jo.engine.warp_queries = args.num("warp-queries", 32);

  join::JoinEngine eng(built.tree, jo);
  const knn::BatchResult r = self_join ? eng.all_knn() : eng.knn_join(targets);

  Crc32 digest;
  std::uint64_t flagged = 0;
  for (const knn::QueryResult& q : r.queries) {
    for (const auto& e : q.neighbors) {
      digest.update_value(e.id);
      digest.update_value(e.dist);
    }
    digest.update_value(static_cast<std::uint8_t>(q.status));
    if (q.status != knn::QueryStatus::kOk) ++flagged;
  }

  print_neighbors(r, args.num("print", 0));

  const char* kind = self_join ? "allknn" : "join";
  std::printf(
      "%s %s: %zu queries, k=%zu, digest %08x, flagged %llu, %.4f ms/query, "
      "%.3f MB accessed\n",
      kind, join_variant_name(jo.variant).data(), r.queries.size(), jo.k,
      digest.value(), static_cast<unsigned long long>(flagged),
      r.timing.avg_query_ms, r.accessed_mb());

  const std::string out = args.str("out", "-");
  if (out != "-") {
    obs::JsonWriter w;
    w.begin_object();
    w.field("schema", "psb.join.v1");
    w.field("join.kind", std::string(kind));
    w.field("join.variant", std::string(join_variant_name(jo.variant)));
    w.field("join.queries", static_cast<std::uint64_t>(r.queries.size()));
    w.field("join.k", static_cast<std::uint64_t>(jo.k));
    w.field("join.include_self", static_cast<std::uint64_t>(jo.include_self ? 1 : 0));
    w.field("join.digest", static_cast<std::uint64_t>(digest.value()));
    w.field("join.flagged", flagged);
    w.field("join.nodes_visited", r.stats.nodes_visited);
    w.field("join.leaves_visited", r.stats.leaves_visited);
    w.field("join.points_examined", r.stats.points_examined);
    w.field("join.heap_inserts", r.stats.heap_inserts);
    w.field("join.accessed_bytes", r.metrics.total_bytes());
    w.field("join.avg_query_ms", r.timing.avg_query_ms);
    w.field("join.warp_efficiency", r.metrics.warp_efficiency());
    w.end_object();
    obs::write_text_file(out, w.str());
    std::cout << "join json written: " << out << "\n";
  }
  return 0;
}

// Streaming serving demo / measurement: replay a seeded arrival stream on the
// virtual clock through the streaming front-end. Everything printed (and
// written with --out) is a pure function of the dataset and the flags — two
// invocations with the same arguments produce byte-identical JSON.
int cmd_serve(const Args& args) {
  const PointSet points = data::read_binary(args.str("data"));

  serve::StreamingOptions so;
  so.engine.algorithm = algo_from_flag(args.str("algo", "psb"));
  so.engine.gpu.k = args.num("k", 8);
  so.engine.layout = layout_from_flags(args, 1);
  so.engine.reorder_queries = args.num("reorder", 1) != 0;
  so.buffer_capacity = args.num("capacity", 32);
  so.engine.warp_queries = so.buffer_capacity;
  so.deadline_us = static_cast<std::uint64_t>(args.real("deadline-ms", 20.0) * 1000.0);
  so.flush_horizon_us = static_cast<std::uint64_t>(args.real("horizon-ms", 2.0) * 1000.0);
  so.admission_queue_bound = args.num("queue-bound", 4096);
  so.cell_bits = static_cast<int>(args.num("cell-bits", 4));
  so.dispatch_overhead_us = args.num("overhead-us", 120);
  so.replica.replicas = args.num("replicas", 0);
  so.replica.groups = args.num("replica-groups", 4);
  so.replica.hedge = args.num("hedge", args.has("hedge-pct") ? 1 : 0) != 0;
  so.replica.hedge_percentile = args.real("hedge-pct", 95.0);
  so.replica.hedge_warmup = args.num("hedge-warmup", 16);
  so.replica.timeout_us = args.num("replica-timeout-us", 0);
  so.replica.straggle_pct = static_cast<std::uint32_t>(args.num("straggle-pct", 0));
  so.replica.straggle_multiplier = args.num("straggle-mult", 8);
  so.replica.health_seed = args.num("replica-seed", args.num("seed", 2016) + 3);

  serve::ArrivalSpec aspec;
  aspec.rate_qps = args.real("rate", 2000.0);
  aspec.duration_s = args.real("duration-s", 1.0);
  aspec.diurnal_amplitude = args.real("diurnal-amplitude", 0.5);
  aspec.diurnal_period_s = args.real("diurnal-period-s", 0.25);
  aspec.burst_rate_per_s = args.real("burst-rate", 20.0);
  aspec.burst_size = args.num("burst-size", 32);
  aspec.seed = args.num("seed", 2016);
  const serve::ArrivalStream stream = serve::generate_arrivals(points, aspec);

  // Backend: a persisted tree index, or the scatter-gather ShardedEngine
  // (which partitions --data itself, mirroring `query --shards`).
  std::optional<sstree::SSTree> tree;
  std::unique_ptr<shard::ShardedEngine> sharded;
  if (args.has("shards")) {
    shard::ShardedEngineOptions sopts;
    sopts.num_shards = args.num("shards", 4);
    sopts.degree = args.num("degree", 64);
    sopts.engine = so.engine;
    sharded = std::make_unique<shard::ShardedEngine>(points, sopts);
  } else {
    tree.emplace(sstree::read_index(&points, args.str("index")));
  }

  const std::string mode = args.str("mode", "buffered");
  std::vector<std::string> modes;
  if (mode == "both") {
    modes = {"naive", "buffered"};
  } else {
    modes = {mode};
  }

  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "psb.stream.v1");
  for (const std::string& m : modes) {
    serve::StreamingOptions run_opts = so;
    run_opts.mode = serve::parse_dispatch_mode(m);
    serve::StreamingReport rep =
        sharded ? serve::StreamingEngine(*sharded, points, run_opts).run(stream)
                : serve::StreamingEngine(*tree, run_opts).run(stream);
    serve::streaming_report_fields(w, rep, "stream_" + m);

    const double miss_pct = rep.answered == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(rep.deadline_misses) /
                                      static_cast<double>(rep.answered);
    std::printf(
        "%-9s arrivals %llu  answered %llu  shed %llu  flushes %llu  "
        "p50 %.3f ms  p99 %.3f ms  miss %.1f%%  depth %llu  %.0f qps\n",
        m.c_str(), static_cast<unsigned long long>(rep.arrivals),
        static_cast<unsigned long long>(rep.answered),
        static_cast<unsigned long long>(rep.shed),
        static_cast<unsigned long long>(rep.flushes),
        static_cast<double>(rep.p50_us()) / 1000.0,
        static_cast<double>(rep.p99_us()) / 1000.0, miss_pct,
        static_cast<unsigned long long>(rep.max_queue_depth), rep.throughput_qps());
    if (rep.replicated) {
      const replica::ReplicaStats& rs = rep.replica;
      std::printf(
          "          replicas: attempts %llu  failovers %llu  crashes %llu  "
          "straggles %llu  corrupt %llu  hedges %llu/%llu/%llu  exhausted %llu\n",
          static_cast<unsigned long long>(rs.attempts),
          static_cast<unsigned long long>(rs.failovers),
          static_cast<unsigned long long>(rs.crashes),
          static_cast<unsigned long long>(rs.straggles),
          static_cast<unsigned long long>(rs.corrupt_replies),
          static_cast<unsigned long long>(rs.hedge_issued),
          static_cast<unsigned long long>(rs.hedge_won),
          static_cast<unsigned long long>(rs.hedge_wasted),
          static_cast<unsigned long long>(rs.exhausted));
    }
  }
  w.end_object();

  const std::string out = args.str("out", "-");
  if (out != "-") {
    obs::write_text_file(out, w.str());
    std::cout << "stream json written: " << out << "\n";
  }
  return 0;
}

// Deterministic micro-benchmark for the regression gate: a seeded clustered
// workload, a kmeans tree, and one engine run per requested algorithm. Every
// exported number is derived from simulator counters (no wall clock), so the
// same binary and seed always write byte-identical JSON — which is what lets
// bench_gate run with zero tolerance in CI.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    if (next > pos) out.push_back(list.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

int cmd_bench(const Args& args) {
  const std::string out = args.str("out");
  const std::string type = args.str("type", "clustered");

  std::uint64_t seed = 0;
  PointSet points(1);
  if (type == "clustered") {
    data::ClusteredSpec spec;
    spec.dims = args.num("dims", 8);
    spec.num_clusters = args.num("clusters", 50);
    spec.points_per_cluster =
        args.num("count", 20000) / std::max<std::size_t>(1, spec.num_clusters);
    spec.stddev = args.real("stddev", 160.0);
    spec.seed = args.num("seed", 2016);
    seed = spec.seed;
    points = data::make_clustered(spec);
  } else if (type == "noaa") {
    data::NoaaSpec spec;
    spec.readings_per_station = args.num("readings", 40);
    // --points scales the workload by total reading count (satellite knob for
    // the large-scale configs); --stations keeps the legacy station-count
    // interface. The 150 x 40 = 6k default is the cheap tier-2 gate config.
    spec.stations = args.has("points")
                        ? args.num("points", 6000) /
                              std::max<std::size_t>(1, spec.readings_per_station)
                        : args.num("stations", 150);
    spec.seed = args.num("seed", 1973);
    seed = spec.seed;
    points = data::make_noaa_like(spec);
  } else {
    usage("unknown --type " + type);
  }
  const PointSet queries = data::sample_queries(
      points, args.num("queries", args.num("num-queries", 64)), 0.0, seed + 1);
  const std::size_t degree = args.num("degree", 64);
  sstree::KMeansBuildOptions build_opts;
  const sstree::BuildOutput built = sstree::build_kmeans(points, degree, build_opts);

  const std::vector<std::string> algos = split_list(
      args.str("algos", "psb,branch_and_bound,stackless_restart,stackless_skip"));
  const std::vector<std::string> variants = split_list(args.str("variants", "base"));

  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "psb.bench.v1");
  w.field("config.type", type);
  w.field("config.dims", static_cast<std::uint64_t>(points.dims()));
  w.field("config.points", static_cast<std::uint64_t>(points.size()));
  w.field("config.num_queries", static_cast<std::uint64_t>(queries.size()));
  w.field("config.k", static_cast<std::uint64_t>(args.num("k", 16)));
  w.field("config.degree", static_cast<std::uint64_t>(degree));
  w.field("config.seed", seed);

  knn::GpuKnnOptions gpu;
  gpu.k = args.num("k", 16);

  // Arrival stream for the stream_* variants, generated once so the naive and
  // buffered runs replay the identical workload.
  std::optional<serve::ArrivalStream> stream_cache;
  const auto arrival_stream = [&]() -> const serve::ArrivalStream& {
    if (!stream_cache) {
      serve::ArrivalSpec aspec;
      aspec.rate_qps = args.real("stream-rate", 3000.0);
      aspec.duration_s = args.real("stream-duration-s", 0.25);
      aspec.diurnal_amplitude = args.real("stream-diurnal-amplitude", 0.5);
      aspec.diurnal_period_s = args.real("stream-diurnal-period-s", 0.1);
      aspec.burst_rate_per_s = args.real("stream-burst-rate", 40.0);
      aspec.burst_size = args.num("stream-burst-size", 24);
      aspec.seed = seed + 2;
      stream_cache = serve::generate_arrivals(points, aspec);
    }
    return *stream_cache;
  };

  for (const std::string& name : algos) {
    // base accessed_bytes of this algorithm, for the arena ratio fields;
    // snapshot bytes for the implicit-vs-snapshot gate ratio; nobound bytes
    // for the bound-sharing ratio (the sharded gate metric).
    double base_bytes = -1.0;
    double snapshot_bytes = -1.0;
    double nobound_bytes = -1.0;
    // stream_naive's p99 / accessed bytes, for the buffered gate ratios.
    double stream_naive_p99 = -1.0;
    double stream_naive_bytes = -1.0;
    // unhedged replicated p99, for the hedging gate ratio.
    double replicated_p99 = -1.0;
    // single-tree join accessed bytes, for the dual-walk gate ratio.
    double join_single_bytes = -1.0;
    for (const std::string& variant : variants) {
      engine::BatchEngineOptions eng_opts;
      eng_opts.algorithm = engine::parse_algorithm(name);
      eng_opts.gpu = gpu;
      eng_opts.warp_queries = args.num("warp-queries", 32);
      const bool sharded = variant == "sharded" || variant == "sharded_nobound";
      std::string prefix = name;
      if (variant == "snapshot") {
        eng_opts.layout = engine::NodeLayout::kSnapshot;
        prefix += "_snapshot";
      } else if (variant == "snapshot_reorder") {
        eng_opts.layout = engine::NodeLayout::kSnapshot;
        eng_opts.reorder_queries = true;
        prefix += "_snapshot_reorder";
      } else if (variant == "implicit") {
        // Fetches charged through the pointer-free preorder arena. The
        // stack-free sweep walks its escape indices; for the link-walking
        // algorithms it is an accounting ablation (same traversal).
        eng_opts.layout = engine::NodeLayout::kImplicit;
        prefix += "_implicit";
      } else if (sharded) {
        prefix += "_" + variant;
      } else if (variant == "stream_naive" || variant == "stream_buffered" ||
                 variant == "replicated" || variant == "replicated_hedged") {
        // Streaming front-end variants: replay the shared arrival stream
        // through the StreamingEngine. Every mode serves snapshot cohorts with
        // Hilbert reordering; naive dispatches one cohort per arrival (so its
        // warp cohorts never exceed one query), buffered amortizes dispatch
        // overhead and shares fetch windows across each flushed cell cohort.
        // The replicated variants serve buffered cohorts from per-shard-range
        // replica sets (src/replica/) under a seeded straggler profile; the
        // hedged twin re-issues slow primaries against the next-healthiest
        // sibling.
        const bool replicated = variant == "replicated" || variant == "replicated_hedged";
        serve::StreamingOptions so;
        so.engine = eng_opts;
        so.engine.layout = engine::NodeLayout::kSnapshot;
        so.engine.reorder_queries = true;
        so.mode = variant == "stream_naive" ? serve::DispatchMode::kNaive
                                            : serve::DispatchMode::kBuffered;
        so.buffer_capacity = args.num("stream-capacity", 16);
        so.engine.warp_queries = so.buffer_capacity;
        so.deadline_us =
            static_cast<std::uint64_t>(args.real("stream-deadline-ms", 20.0) * 1000.0);
        so.flush_horizon_us =
            static_cast<std::uint64_t>(args.real("stream-horizon-ms", 2.0) * 1000.0);
        so.admission_queue_bound = args.num("stream-queue-bound", 4096);
        so.cell_bits = static_cast<int>(args.num("stream-cell-bits", 3));
        so.dispatch_overhead_us = args.num("stream-overhead-us", 120);
        if (replicated) {
          so.replica.replicas = args.num("replicas", 3);
          so.replica.groups = args.num("replica-groups", 4);
          so.replica.health_seed = seed + 5;
          so.replica.straggle_pct = static_cast<std::uint32_t>(args.num("straggle-pct", 10));
          so.replica.straggle_multiplier = args.num("straggle-mult", 8);
          so.replica.hedge = variant == "replicated_hedged";
          so.replica.hedge_percentile = args.real("hedge-pct", 95.0);
          so.replica.hedge_warmup = args.num("hedge-warmup", 16);
        }

        serve::StreamingEngine seng(built.tree, so);
        const serve::StreamingReport rep = seng.run(arrival_stream());
        prefix = name + "_" + variant;
        w.field(prefix + ".arrivals", rep.arrivals);
        w.field(prefix + ".answered", rep.answered);
        w.field(prefix + ".shed", rep.shed);
        w.field(prefix + ".flushes", rep.flushes);
        w.field(prefix + ".deadline_misses", rep.deadline_misses);
        w.field(prefix + ".max_queue_depth", rep.max_queue_depth);
        w.field(prefix + ".accessed_bytes", rep.accessed_bytes);
        if (replicated) {
          w.field(prefix + ".replica_attempts", rep.replica.attempts);
          w.field(prefix + ".replica_straggles", rep.replica.straggles);
          w.field(prefix + ".replica_failovers", rep.replica.failovers);
          w.field(prefix + ".hedge_issued", rep.replica.hedge_issued);
          w.field(prefix + ".hedge_won", rep.replica.hedge_won);
          w.field(prefix + ".hedge_wasted", rep.replica.hedge_wasted);
        } else if (rep.exec.steps > 0) {
          w.field(prefix + ".exec_steps", rep.exec.steps);
          w.field(prefix + ".exec_serialized_cycles", rep.exec.serialized_cycles);
          w.field(prefix + ".exec_overlapped_cycles", rep.exec.overlapped_cycles);
          w.field(prefix + ".exec_overlap_ratio", rep.exec.ratio());
        }
        w.field(prefix + ".p50_latency_us", rep.p50_us());
        w.field(prefix + ".p99_latency_us", rep.p99_us());
        w.field(prefix + ".throughput_qps", rep.throughput_qps());
        if (variant == "stream_naive") {
          stream_naive_p99 = static_cast<double>(rep.p99_us());
          stream_naive_bytes = static_cast<double>(rep.accessed_bytes);
        } else if (variant == "stream_buffered" && stream_naive_p99 > 0.0 &&
                   stream_naive_bytes > 0.0) {
          // The streaming gate metrics: < 1.0 means buffered cohort dispatch
          // beat per-arrival dispatch on tail latency and on global-memory
          // bytes. List stream_naive before stream_buffered to get them.
          w.field(prefix + ".p99_latency_ratio",
                  static_cast<double>(rep.p99_us()) / stream_naive_p99);
          w.field(prefix + ".accessed_bytes_ratio",
                  static_cast<double>(rep.accessed_bytes) / stream_naive_bytes);
        } else if (variant == "replicated") {
          replicated_p99 = static_cast<double>(rep.p99_us());
        } else if (variant == "replicated_hedged" && replicated_p99 > 0.0) {
          // The hedging gate metric: < 1.0 means tail hedging beat the
          // unhedged replica set on p99 under the same straggler profile.
          // List replicated before replicated_hedged to get it.
          w.field(prefix + ".p99_latency_vs_unhedged_ratio",
                  static_cast<double>(rep.p99_us()) / replicated_p99);
        }
        continue;
      } else if (variant == "join_single" || variant == "join_dual") {
        // Dual-tree join variants: the all-kNN self-join over the whole
        // dataset, answered per point through the single-tree engine and by
        // the pair-pruning dual walk. Both are exact and bit-identical; the
        // dual walk pays each source-node fetch once per cohort instead of
        // once per query, and its accessed-bytes ratio against the
        // single-tree run is the BENCH_gate_join headline (< 1.0 = the
        // cohort amortization paid). Both run on the snapshot arena — the
        // single-tree path's strongest configuration, where its warp windows
        // already share one fetch session across consecutive queries — so
        // the gated ratio measures the dual walk against the best per-point
        // baseline, not the refetch-heavy pointer path. List join_single
        // before join_dual to get the ratio field.
        const bool dual = variant == "join_dual";
        join::JoinOptions jo;
        jo.k = gpu.k;
        jo.variant = dual ? join::JoinVariant::kDual : join::JoinVariant::kSingle;
        jo.engine = eng_opts;
        jo.engine.layout = engine::NodeLayout::kSnapshot;
        join::JoinEngine jeng(built.tree, jo);
        const knn::BatchResult jr = jeng.all_knn();
        const std::uint64_t jbytes = jr.metrics.total_bytes();
        prefix = name + "_" + variant;
        w.field(prefix + ".queries", static_cast<std::uint64_t>(jr.queries.size()));
        w.field(prefix + ".nodes_visited", jr.stats.nodes_visited);
        w.field(prefix + ".leaves_visited", jr.stats.leaves_visited);
        w.field(prefix + ".points_examined", jr.stats.points_examined);
        w.field(prefix + ".heap_inserts", jr.stats.heap_inserts);
        w.field(prefix + ".accessed_bytes", jbytes);
        w.field(prefix + ".avg_query_ms", jr.timing.avg_query_ms);
        w.field(prefix + ".warp_efficiency", jr.metrics.warp_efficiency());
        if (!dual) {
          join_single_bytes = static_cast<double>(jbytes);
        } else if (join_single_bytes > 0.0) {
          w.field(prefix + ".accessed_bytes_vs_single_ratio",
                  static_cast<double>(jbytes) / join_single_bytes);
        }
        continue;
      } else if (variant != "base") {
        usage("unknown --variants entry " + variant);
      }

      knn::BatchResult result;
      obs::TraceReport report;
      if (sharded) {
        // Scatter-gather serving over Hilbert-range shards; the nobound twin
        // searches every shard with an infinite initial bound, isolating the
        // bytes that cross-shard bound sharing saves.
        shard::ShardedEngineOptions sopts;
        sopts.num_shards = args.num("shards", 4);
        sopts.degree = degree;
        sopts.engine = eng_opts;
        sopts.share_bounds = variant == "sharded";
        shard::ShardedEngine eng(points, sopts);
        shard::ShardedEngine::TracedRun run = eng.run_traced(queries);
        result = std::move(run.result);
        report = std::move(run.trace);
      } else {
        const engine::BatchEngine eng(built.tree, eng_opts);
        engine::BatchEngine::TracedRun run = eng.run_traced(queries);
        result = std::move(run.result);
        report = std::move(run.trace);
      }
      const obs::AlgorithmTrace* trace = report.find(name);
      PSB_ASSERT(trace != nullptr, "engine produced no trace for " + name);
      const obs::QueryTrace totals = trace->totals();

      using obs::TraceCounter;
      const auto col = [&](TraceCounter c) { return totals[c]; };
      const std::uint64_t accessed = col(TraceCounter::kBytesCoalesced) +
                                     col(TraceCounter::kBytesRandom) +
                                     col(TraceCounter::kBytesCached);
      w.field(prefix + ".nodes_visited", col(TraceCounter::kNodesVisited));
      w.field(prefix + ".points_examined", col(TraceCounter::kPointsExamined));
      w.field(prefix + ".backtracks", col(TraceCounter::kBacktracks));
      w.field(prefix + ".restarts", col(TraceCounter::kRestarts));
      w.field(prefix + ".heap_inserts", col(TraceCounter::kHeapInserts));
      w.field(prefix + ".accessed_bytes", accessed);
      w.field(prefix + ".node_fetches", col(TraceCounter::kNodeFetches));
      w.field(prefix + ".warp_instructions", col(TraceCounter::kWarpInstructions));
      w.field(prefix + ".divergent_steps", col(TraceCounter::kDivergentSteps));
      w.field(prefix + ".avg_query_ms", result.timing.avg_query_ms);
      w.field(prefix + ".warp_efficiency", result.metrics.warp_efficiency());
      if (result.exec.steps > 0) {
        // Stream-overlap totals from the resumable-executor schedule
        // (src/exec/). The ratio is gated in BENCH_gate_implicit: < 1.0 means
        // the double-buffered fetch/compute pipeline beat the serialized
        // run-to-completion cost on this cohort mix; gated lower-is-better.
        w.field(prefix + ".exec_steps", result.exec.steps);
        w.field(prefix + ".exec_serialized_cycles", result.exec.serialized_cycles);
        w.field(prefix + ".exec_overlapped_cycles", result.exec.overlapped_cycles);
        w.field(prefix + ".exec_overlap_ratio", result.exec.ratio());
      }
      if (variant == "base") {
        base_bytes = static_cast<double>(accessed);
      } else if (variant == "sharded_nobound") {
        nobound_bytes = static_cast<double>(accessed);
      } else if (variant == "sharded") {
        if (nobound_bytes > 0.0) {
          // < 1.0 means bound sharing pruned shard visits the nobound run
          // paid for; gated lower-is-better. List sharded_nobound before
          // sharded in --variants to get this field.
          w.field(prefix + ".accessed_bytes_vs_nobound_ratio",
                  static_cast<double>(accessed) / nobound_bytes);
        }
      } else {
        if (base_bytes > 0.0) {
          // < 1.0 means the arena variant moved fewer global-memory bytes than
          // the pointer walk; gated lower-is-better like every byte metric.
          w.field(prefix + ".accessed_bytes_ratio",
                  static_cast<double>(accessed) / base_bytes);
        }
        if (variant == "snapshot") snapshot_bytes = static_cast<double>(accessed);
        if (variant == "implicit" && snapshot_bytes > 0.0) {
          // The implicit-layout headline: pointer-free records vs the
          // pointer-carrying snapshot arena; < 1.0 is the implicit gate. List
          // snapshot before implicit in --variants to get it.
          w.field(prefix + ".accessed_bytes_vs_snapshot_ratio",
                  static_cast<double>(accessed) / snapshot_bytes);
        }
      }
    }
  }

  // Optional construction bench (--construction-points > 0): Hilbert
  // bulk-load of a scaled noaa_synth set — the 1M-point configuration
  // stresses the Hilbert/radix-sort path — plus the pointer-free arena
  // placement over the result. Node counts and arena bytes are deterministic
  // and gated; wall time is exported for the candidate only (bench_gate
  // treats candidate-only fields as ungated notes) but blowing
  // --construction-budget-ms fails the run outright.
  const std::size_t cons_points = args.num("construction-points", 0);
  if (cons_points > 0) {
    data::NoaaSpec cspec;
    cspec.readings_per_station = args.num("construction-readings", 50);
    cspec.stations =
        cons_points / std::max<std::size_t>(1, cspec.readings_per_station);
    cspec.seed = args.num("seed", 1973);
    const PointSet cons = data::make_noaa_like(cspec);
    const std::size_t cons_degree = args.num("construction-degree", 128);
    sstree::HilbertBuildOptions hopts;
    const sstree::BuildOutput cbuilt = sstree::build_hilbert(cons, cons_degree, hopts);
    cbuilt.tree.validate();
    const double budget_ms = args.real("construction-budget-ms", 0.0);
    if (budget_ms > 0.0 && cbuilt.host_build_seconds * 1000.0 > budget_ms) {
      throw InternalError("construction budget exceeded: " +
                          std::to_string(cbuilt.host_build_seconds * 1000.0) + " ms > " +
                          std::to_string(budget_ms) + " ms for " +
                          std::to_string(cons.size()) + " points");
    }
    const layout::ImplicitLayout clay(cbuilt.tree);
    const auto s = cbuilt.tree.stats();
    const layout::ImplicitLayout::Stats ls = clay.stats();
    w.field("construction.points", static_cast<std::uint64_t>(cons.size()));
    w.field("construction.degree", static_cast<std::uint64_t>(cons_degree));
    w.field("construction.nodes", static_cast<std::uint64_t>(s.nodes));
    w.field("construction.height", static_cast<std::uint64_t>(s.height));
    w.field("construction.implicit_arena_bytes", static_cast<std::uint64_t>(ls.arena_bytes));
    w.field("construction.pointer_arena_bytes",
            static_cast<std::uint64_t>(ls.pointer_arena_bytes));
    w.field("construction.arena_bytes_ratio",
            static_cast<double>(ls.arena_bytes) / static_cast<double>(ls.pointer_arena_bytes));
    w.field("construction.host_build_seconds", cbuilt.host_build_seconds);
  }
  w.end_object();
  obs::write_text_file(out, w.str());
  std::cout << "bench json written: " << out << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Fault campaigns — faultcamp and chaoscamp (also the tier-2 ctest targets
// and the CI fault-campaign / chaos-campaign jobs).
//
// Both run seeded fault experiments over one deterministic workload and hold
// every iteration to one oracle: each answer is bit-exact against the
// brute-force truth or carries a non-kOk flag, and each fired fault is either
// *detected* (typed error from a loader, or a flagged answer) or *masked*
// (exact and unflagged) — never a crash, hang, or silently wrong answer. Any
// other outcome throws InternalError (exit 4). faultcamp arms one site per
// iteration, round-robin over the registry, and serves through the site's
// own harness; chaoscamp arms 2-3 sites at once and serves through the
// replicated hedged front-end.
//
// A new fault site gets its trigger row in campaign_spec and its route in
// kSiteRoutes; both campaigns pick it up from there.
// ---------------------------------------------------------------------------

constexpr std::size_t kCampaignK = 8;
constexpr std::size_t kCampaignQueries = 12;

/// One engine configuration the campaigns rotate through.
struct CampaignSlot {
  engine::Algorithm algo;
  engine::NodeLayout layout;
};

/// The slots, one per iteration: five traversals on the snapshot arena, then
/// the stack-free sweep again on the implicit arena, where its cursor walks
/// escape indices instead of skip links.
constexpr CampaignSlot kCampaignSlots[] = {
    {engine::Algorithm::kPsb, engine::NodeLayout::kSnapshot},
    {engine::Algorithm::kBestFirst, engine::NodeLayout::kSnapshot},
    {engine::Algorithm::kBranchAndBound, engine::NodeLayout::kSnapshot},
    {engine::Algorithm::kStacklessRestart, engine::NodeLayout::kSnapshot},
    {engine::Algorithm::kStacklessSkip, engine::NodeLayout::kSnapshot},
    {engine::Algorithm::kStacklessSkip, engine::NodeLayout::kImplicit}};
constexpr std::size_t kNumCampaignSlots = std::size(kCampaignSlots);

knn::GpuKnnOptions campaign_gpu() {
  knn::GpuKnnOptions gpu;
  gpu.k = kCampaignK;
  return gpu;
}

PointSet campaign_points(std::uint64_t seed) {
  data::ClusteredSpec spec;
  spec.dims = 8;
  spec.num_clusters = 20;
  spec.points_per_cluster = 100;
  spec.stddev = 160.0;
  spec.seed = seed;
  return data::make_clustered(spec);
}

/// The deterministic workload both campaigns judge against, built once: a
/// clustered 2,000-point dataset, 12 queries, a kmeans tree, the brute-force
/// truth, the dataset and index on disk for the io.envelope.* sites (removed
/// again on destruction), and the queries replayed as an arrival stream at a
/// fixed 200 us cadence.
struct CampaignWorkload {
  CampaignWorkload(std::uint64_t seed, const std::string& workdir, const std::string& name)
      : points(campaign_points(seed)),
        queries(data::sample_queries(points, kCampaignQueries, 0.0, seed + 1)),
        built(sstree::build_kmeans(points, 32)),
        truth(knn::brute_force_batch(points, queries, campaign_gpu())),
        data_path(workdir + "/" + name + "_data.psb"),
        index_path(workdir + "/" + name + "_index.psbt") {
    data::write_binary(points, data_path);
    sstree::write_index(built.tree, index_path);
    stream.queries = queries;
    for (std::size_t i = 0; i < queries.size(); ++i) stream.time_us.push_back(i * 200);
  }
  ~CampaignWorkload() {
    std::remove(data_path.c_str());
    std::remove(index_path.c_str());
  }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;

  PointSet points;
  PointSet queries;
  sstree::BuildOutput built;
  knn::BatchResult truth;
  std::string data_path;
  std::string index_path;
  serve::ArrivalStream stream;
};

/// Every campaign engine serves its slot's arena with one worker, so a seed
/// fixes which query each trigger lands on.
engine::BatchEngineOptions campaign_engine(const CampaignSlot& slot) {
  engine::BatchEngineOptions eo;
  eo.algorithm = slot.algo;
  eo.gpu = campaign_gpu();
  eo.layout = slot.layout;
  eo.num_threads = 1;
  return eo;
}

shard::ShardedEngineOptions campaign_sharded(const CampaignSlot& slot) {
  shard::ShardedEngineOptions sopts;
  sopts.num_shards = 4;
  sopts.degree = 32;
  sopts.engine = campaign_engine(slot);
  return sopts;
}

/// A kNN-join of the workload queries against the tree answers the same
/// question as a batch run, so the brute-force truth carries over; the 12
/// targets pack into a single cohort.
join::JoinOptions campaign_join(const CampaignSlot& slot) {
  join::JoinOptions jo;
  jo.k = kCampaignK;
  jo.engine = campaign_engine(slot);
  return jo;
}

/// The buffered front-end the campaign stream replays through: capacity-4
/// cohorts, a far-away deadline and no admission bound, so every arrival is
/// admitted and answered and the answers stay comparable with the truth.
serve::StreamingOptions campaign_stream(const CampaignSlot& slot) {
  serve::StreamingOptions so;
  so.engine = campaign_engine(slot);
  so.mode = serve::DispatchMode::kBuffered;
  so.buffer_capacity = 4;
  so.engine.warp_queries = so.buffer_capacity;
  so.deadline_us = 1'000'000'000;
  so.admission_queue_bound = 0;
  so.cell_bits = 2;
  return so;
}

/// The engine in `slot`, built from `ctor_args` on first use and reused
/// after.
template <typename Engine, typename... CtorArgs>
Engine& pooled(std::unique_ptr<Engine>& slot, CtorArgs&&... ctor_args) {
  if (slot == nullptr) slot = std::make_unique<Engine>(std::forward<CtorArgs>(ctor_args)...);
  return *slot;
}

/// Where a campaign serves the workload while a site is armed.
enum class Harness : std::uint8_t {
  kLoader,      // reload the on-disk artifacts; no query is served
  kBatch,       // BatchEngine over the slot's arena
  kImplicit,    // BatchEngine over the implicit arena
  kSharded,     // 4-shard ShardedEngine
  kJoin,        // JoinEngine kNN-join
  kStream,      // buffered StreamingEngine
  kReplicated,  // buffered StreamingEngine behind R = 3 replicas per group
};

constexpr std::uint8_t on(Harness h) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(h));
}

/// The harnesses chaoscamp serves through: replicated by default, the
/// implicit, sharded and join backends when their own site is the primary.
constexpr std::uint8_t kAnyChaosHarness = on(Harness::kReplicated) | on(Harness::kImplicit) |
                                          on(Harness::kSharded) | on(Harness::kJoin);

/// One site's route: the harness that serves it (faultcamp's harness for
/// it, chaoscamp's when it is the primary) and the chaoscamp harnesses where
/// it may ride along as a partner. A partner must be able to fire there, and
/// the sharded harness takes no in-place arena corruption: its backends
/// persist across iterations, so a corrupted shard arena would leak into
/// later ones.
struct SiteRoute {
  std::string_view site;
  Harness harness;
  std::uint8_t partners_on;
};

constexpr SiteRoute kSiteRoutes[] = {
    {fault::kSiteEnvelopeTruncate, Harness::kLoader, kAnyChaosHarness},
    {fault::kSiteEnvelopeByteflip, Harness::kLoader, kAnyChaosHarness},
    {fault::kSiteNodeBoundsBitflip, Harness::kBatch, kAnyChaosHarness},
    {fault::kSiteQueryBudget, Harness::kBatch, kAnyChaosHarness},
    {fault::kSiteSnapshotSegment, Harness::kBatch,
     on(Harness::kReplicated) | on(Harness::kJoin)},
    {fault::kSiteWorkerSlice, Harness::kBatch, kAnyChaosHarness & ~on(Harness::kSharded)},
    {fault::kSiteExecResume, Harness::kBatch, kAnyChaosHarness & ~on(Harness::kSharded)},
    {fault::kSiteImplicitEscape, Harness::kImplicit, on(Harness::kImplicit)},
    {fault::kSiteShardSlice, Harness::kSharded, on(Harness::kSharded)},
    {fault::kSiteJoinPair, Harness::kJoin, on(Harness::kJoin)},
    {fault::kSiteStreamFlush, Harness::kStream, kAnyChaosHarness & ~on(Harness::kJoin)},
    {fault::kSiteReplicaCrash, Harness::kReplicated,
     kAnyChaosHarness & ~on(Harness::kJoin)},
    {fault::kSiteReplicaStraggle, Harness::kReplicated,
     kAnyChaosHarness & ~on(Harness::kJoin)},
    {fault::kSiteReplicaCorruptReply, Harness::kReplicated,
     kAnyChaosHarness & ~on(Harness::kJoin)},
};

const SiteRoute& route_of(std::string_view site) {
  for (const SiteRoute& r : kSiteRoutes) {
    if (r.site == site) return r;
  }
  throw InternalError("no campaign route for fault site " + std::string(site));
}

std::size_t site_index(std::string_view site) {
  const std::span<const fault::SiteInfo> sites = fault::sites();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].name == site) return i;
  }
  throw InternalError("unregistered fault site " + std::string(site));
}

/// The trigger rows whose evaluation cadence differs between the campaigns.
struct CadenceOverrides {
  /// engine.query_budget / engine.worker_slice pick their query / cohort by
  /// iteration (true) or by the Spec seed (false).
  bool pick_by_iteration;
  /// engine.shard.slice fires within this many slice evaluations.
  std::uint64_t shard_slices;
};

/// The per-site trigger table: on which evaluation of its site a Spec fires,
/// spread over the site's evaluation cadence on the 12-query workload, and
/// for how many. The count parity flips every full rotation of the registry,
/// alternating recoverable one-shot faults with bursts that force the next
/// rung of the ladder.
fault::Spec campaign_spec(std::string_view site, std::uint64_t seed, std::size_t iter,
                          const CadenceOverrides& cadence) {
  fault::Spec s;
  s.site = std::string(site);
  s.seed = seed;
  const std::uint64_t parity = (iter / fault::sites().size()) % 2;
  const std::uint64_t pick = cadence.pick_by_iteration ? iter : seed;
  if (site == fault::kSiteEnvelopeTruncate || site == fault::kSiteEnvelopeByteflip) {
    s.trigger = iter % 2;  // one evaluation per file read; a reload reads two
  } else if (site == fault::kSiteNodeBoundsBitflip) {
    s.trigger = seed % 100;  // somewhere inside the batch's fetch stream
  } else if (site == fault::kSiteQueryBudget) {
    s.trigger = pick % kCampaignQueries;
  } else if (site == fault::kSiteWorkerSlice) {
    s.trigger = pick % 3;
  } else if (site == fault::kSiteShardSlice) {
    // One-shot deaths (the rerun masks them) alternate with double deaths
    // (the rerun dies too, forcing the flagged brute-force fallback).
    s.trigger = seed % cadence.shard_slices;
    s.count = 1 + parity;
  } else if (site == fault::kSiteStreamFlush) {
    // One evaluation per flush attempt; the 12-query capacity-4 stream
    // issues a handful of flushes. A second death fails the retry and forces
    // the flagged brute-force cohort answer.
    s.trigger = seed % 6;
    s.count = 1 + parity;
  } else if (site == fault::kSiteExecResume) {
    // One evaluation per executor resume step: at least 12 for the
    // single-step loop adapters (one per query), hundreds for the stackless
    // walkers. A second death kills the fresh-executor rerun too.
    s.trigger = seed % 12;
    s.count = 1 + parity;
  } else if (site == fault::kSiteReplicaCrash || site == fault::kSiteReplicaCorruptReply) {
    // One evaluation per replica dispatch attempt. One-shot faults (the
    // sibling failover masks them) alternate with count-8 bursts that
    // exhaust the 4-attempt dispatch and force the flagged brute-force rung.
    s.trigger = seed % 4;
    s.count = parity == 0 ? 1 : 8;
  } else if (site == fault::kSiteReplicaStraggle) {
    // A straggler inflates its service time but, with no per-attempt timeout
    // and a far-away deadline, still completes exactly: always masked.
    s.trigger = seed % 4;
  } else if (site == fault::kSiteJoinPair) {
    // One evaluation per target cohort and the 12 targets pack one, so
    // trigger 0 always lands; a second death kills the single-tree rerun.
    s.trigger = 0;
    s.count = 1 + parity;
  } else {
    s.trigger = 0;  // snapshot.segment / implicit.escape: one per-batch evaluation
  }
  return s;
}

/// A campaign report with an empty per-site table in registry order.
fault::CampaignSummary new_summary(std::string schema, std::size_t iterations,
                                   std::uint64_t seed) {
  fault::CampaignSummary summary;
  summary.schema = std::move(schema);
  summary.iterations = iterations;
  summary.seed = seed;
  for (const fault::SiteInfo& si : fault::sites()) summary.sites.emplace_back().site = si.name;
  return summary;
}

/// Reload the on-disk artifacts under the armed plan: a typed CorruptInput
/// if and only if an io.envelope.* site fired.
void check_reload(const CampaignWorkload& w, const fault::InjectionScope& scope,
                  const std::string& context) {
  bool caught = false;
  try {
    const PointSet loaded = data::read_binary(w.data_path);
    const sstree::SSTree reloaded = sstree::read_index(&loaded, w.index_path);
    PSB_ASSERT(reloaded.num_nodes() == w.built.tree.num_nodes(),
               context + ": clean reload diverged");
  } catch (const CorruptInput&) {
    caught = true;
  }
  std::uint64_t io_fired = 0;
  for (const SiteRoute& r : kSiteRoutes) {
    if (r.harness == Harness::kLoader) io_fired += scope.fired(r.site);
  }
  if (io_fired > 0 && !caught) {
    throw InternalError(context + ": corruption fired but the loader accepted the file");
  }
  if (io_fired == 0 && caught) {
    throw InternalError(context + ": loader rejected an uncorrupted file");
  }
}

/// A served campaign stream's per-arrival answers (arrival order == workload
/// query order) as a BatchResult for the oracle below. The campaign streams
/// are unbounded, so none may be shed.
knn::BatchResult stream_answers(serve::StreamingReport rep, const std::string& context) {
  knn::BatchResult got;
  got.queries.resize(rep.queries.size());
  for (std::size_t q = 0; q < rep.queries.size(); ++q) {
    PSB_ASSERT(!rep.queries[q].shed, context + ": unbounded stream shed a query");
    got.queries[q].neighbors = std::move(rep.queries[q].neighbors);
    got.queries[q].status = rep.queries[q].status;
  }
  return got;
}

/// Exact-match check against the ground truth. kDeadlinePartial lists are
/// exempt (they are flagged as best-effort); everything else must agree.
void check_exact_or_flagged(const knn::BatchResult& got, const knn::BatchResult& truth,
                            const std::string& context) {
  PSB_ASSERT(got.queries.size() == truth.queries.size(), context + ": result count diverged");
  for (std::size_t q = 0; q < got.queries.size(); ++q) {
    const knn::QueryResult& g = got.queries[q];
    if (g.status == knn::QueryStatus::kDeadlinePartial) continue;
    const auto& want = truth.queries[q].neighbors;
    if (g.neighbors.size() != want.size()) {
      throw InternalError(context + ": query " + std::to_string(q) + " wrong neighbor count");
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (g.neighbors[i].id != want[i].id || g.neighbors[i].dist != want[i].dist) {
        throw InternalError(context + ": query " + std::to_string(q) +
                            " returned a wrong neighbor without a degraded flag");
      }
    }
  }
}

/// Attribute one iteration's fired faults: an io.envelope.* fire was
/// detected by the loader's typed error (check_reload); any other fire was
/// detected if the served answers carry a flag and masked if they are exact
/// and unflagged. Under simultaneous faults the flags cannot be split per
/// site, so attribution is iteration-granular; the exact-or-flagged oracle
/// is per answer regardless.
void attribute(fault::CampaignSummary& summary, std::span<const std::string_view> armed,
               const fault::InjectionScope& scope, bool flagged, const std::string& context) {
  for (const std::string_view s : armed) {
    if (scope.fired(s) == 0) continue;
    fault::SiteTally& t = summary.sites[site_index(s)];
    ++t.fired;
    if (route_of(s).harness == Harness::kLoader) {
      ++t.detected;
    } else if (flagged) {
      ++t.detected;
      ++t.flagged;
    } else {
      ++t.masked;
      // A corrupted node fetch is always caught by the integrity word, so a
      // fired bit flip must surface as a degraded (but exact) status.
      if (s == fault::kSiteNodeBoundsBitflip) {
        throw InternalError(context + ": bit flip fired without a degraded status");
      }
    }
  }
}

/// The closing checks and output of both campaigns: every site rotated in
/// (and, over 20 full rotations, fired), every fired fault was detected or
/// masked, the JSON report is written and the totals printed. `detail`
/// follows the iteration count on the summary line.
int finish_campaign(const std::string& name, const fault::CampaignSummary& summary,
                    const std::string& out, const std::string& detail) {
  std::uint64_t total_fired = 0;
  std::uint64_t total_detected = 0;
  std::uint64_t total_masked = 0;
  for (const fault::SiteTally& t : summary.sites) {
    if (summary.iterations >= summary.sites.size()) {
      PSB_ASSERT(t.iterations > 0, name + ": site " + t.site + " never entered the rotation");
    }
    if (summary.iterations >= summary.sites.size() * 20) {
      PSB_ASSERT(t.fired > 0, name + ": site " + t.site + " never fired over a full campaign");
    }
    total_fired += t.fired;
    total_detected += t.detected;
    total_masked += t.masked;
  }
  const std::string json = fault::campaign_report_json(summary);
  if (out != "-") {
    obs::write_text_file(out, json);
    std::cout << name << " report written: " << out << "\n";
  }
  std::cout << name << ": " << summary.iterations << " iterations" << detail << ", "
            << total_fired << " faults fired, " << total_detected << " detected, "
            << total_masked << " masked by exact fallback, 0 crashes\n";
  PSB_ASSERT(total_fired > 0, "campaign armed no faults");
  PSB_ASSERT(total_detected + total_masked == total_fired,
             "some fired fault was neither detected nor masked");
  return 0;
}

// faultcamp — single-fault campaign: `--iterations` experiments round-robin
// over every registered site, each served through the site's own harness.
int cmd_faultcamp(const Args& args) {
  const std::size_t iterations = args.num("iterations", 1000);
  const std::uint64_t base_seed = args.num("seed", 2016);
  const std::string out = args.str("out", "-");
  const CampaignWorkload w(base_seed, args.str("workdir", "."), "faultcamp");
  // Every iteration serves one full batch: the budget and worker sites step
  // through the queries and cohorts by iteration, and the shard slice site
  // sees ~48 evaluations (12 queries x 4 shards).
  constexpr CadenceOverrides kCadence{.pick_by_iteration = true, .shard_slices = 40};

  // The sharded, join and streaming engines are built once per slot:
  // their sites kill passes, pair walks and flushes without corrupting
  // state. The batch engine is fresh every iteration (its arena sites corrupt
  // the engine-owned arena in place), and so is the replicated front-end,
  // though its router's crash/eviction windows already end with each run().
  std::unique_ptr<shard::ShardedEngine> sharded[kNumCampaignSlots];
  std::unique_ptr<join::JoinEngine> joins[kNumCampaignSlots];
  std::unique_ptr<serve::StreamingEngine> streamers[kNumCampaignSlots];

  fault::CampaignSummary summary = new_summary("psb.faultcamp.v2", iterations, base_seed);
  const std::span<const fault::SiteInfo> sites = fault::sites();
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::string_view site = sites[iter % sites.size()].name;
    const Harness harness = route_of(site).harness;
    ++summary.sites[iter % sites.size()].iterations;
    const std::string context =
        "faultcamp iter " + std::to_string(iter) + " site " + std::string(site);
    const fault::InjectionScope scope(
        campaign_spec(site, fault::mix(base_seed ^ (iter * 2654435761u)), iter, kCadence));

    const std::size_t a = iter % kNumCampaignSlots;
    const CampaignSlot& slot = kCampaignSlots[a];
    knn::BatchResult got;
    switch (harness) {
      case Harness::kLoader:
        check_reload(w, scope, context);
        break;
      case Harness::kBatch:
      case Harness::kImplicit: {
        engine::BatchEngineOptions eo = campaign_engine(slot);
        if (harness == Harness::kImplicit) eo.layout = engine::NodeLayout::kImplicit;
        eo.warp_queries = 4;
        got = engine::BatchEngine(w.built.tree, eo).run(w.queries);
        break;
      }
      case Harness::kSharded:
        got = pooled(sharded[a], w.points, campaign_sharded(slot)).run(w.queries);
        break;
      case Harness::kJoin:
        got = pooled(joins[a], w.built.tree, campaign_join(slot)).knn_join(w.queries);
        break;
      case Harness::kStream:
        got = stream_answers(
            pooled(streamers[a], w.built.tree, campaign_stream(slot)).run(w.stream), context);
        break;
      case Harness::kReplicated: {
        serve::StreamingOptions so = campaign_stream(slot);
        so.replica.replicas = 3;
        so.replica.groups = 2;
        so.replica.health_seed = base_seed + 7;
        got = stream_answers(serve::StreamingEngine(w.built.tree, so).run(w.stream), context);
        break;
      }
    }
    if (harness != Harness::kLoader) check_exact_or_flagged(got, w.truth, context);
    attribute(summary, {&site, 1}, scope, !got.all_ok(), context);
  }
  return finish_campaign("faultcamp", summary, out, "");
}

// chaoscamp — multi-fault campaign: every iteration arms a primary
// (round-robin over the registry) plus 1-2 seeded partners drawn from the
// sites that may ride along on the primary's harness, reloads the on-disk
// artifacts, then serves through the replicated hedged front-end (R = 3
// replicas per group) over the primary's backend — or, for the join pair
// site, through a kNN-join. Faults may compound, but they may never produce
// a silently wrong answer.
int cmd_chaoscamp(const Args& args) {
  const std::size_t iterations = args.num("iterations", 650);
  const std::uint64_t base_seed = args.num("seed", 2016);
  const std::string out = args.str("out", "-");
  const CampaignWorkload w(base_seed, args.str("workdir", "."), "chaoscamp");
  // The seed picks the budget query and the worker cohort. The streamed
  // capacity-4 cohorts see far fewer shard slice evaluations than
  // faultcamp's full batches (cross-shard bound sharing prunes most shard
  // visits), so the slice trigger range is tighter.
  constexpr CadenceOverrides kCadence{.pick_by_iteration = false, .shard_slices = 12};

  // The sharded backends persist across iterations (kSiteRoutes keeps the
  // in-place arena corruption sites off them); every other engine is fresh.
  std::unique_ptr<shard::ShardedEngine> sharded[kNumCampaignSlots];

  fault::CampaignSummary summary = new_summary("psb.chaoscamp.v1", iterations, base_seed);
  const std::span<const fault::SiteInfo> sites = fault::sites();
  std::uint64_t combos_two = 0;
  std::uint64_t combos_three = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::string_view primary = sites[iter % sites.size()].name;
    // A primary without a backend of its own serves through the replicated
    // snapshot front-end.
    Harness harness = route_of(primary).harness;
    if ((kAnyChaosHarness & on(harness)) == 0) harness = Harness::kReplicated;
    std::vector<std::string_view> pool;
    for (const fault::SiteInfo& si : sites) {
      if (si.name != primary && (route_of(si.name).partners_on & on(harness)) != 0) {
        pool.push_back(si.name);
      }
    }

    // 1-2 seeded partners drawn without replacement: 2-3 simultaneous sites.
    std::uint64_t draw = fault::mix(base_seed ^ fault::mix(iter * 0x9e3779b97f4a7c15ull + 1));
    const std::size_t partners = 1 + draw % 2;
    std::vector<std::string_view> armed{primary};
    for (std::size_t p = 0; p < partners; ++p) {
      draw = fault::mix(draw);
      const std::size_t pick = draw % pool.size();
      armed.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ++(armed.size() == 2 ? combos_two : combos_three);

    std::vector<fault::Spec> specs;
    for (const std::string_view s : armed) {
      const std::uint64_t seed = fault::mix(base_seed ^ fault::mix((iter + 1) * 2654435761u) ^
                                            fault::mix(site_index(s) + 1));
      specs.push_back(campaign_spec(s, seed, iter, kCadence));
      ++summary.sites[site_index(s)].iterations;
    }
    const std::string context =
        "chaoscamp iter " + std::to_string(iter) + " primary " + std::string(primary);
    const fault::InjectionScope scope(std::move(specs));
    check_reload(w, scope, context);

    const std::size_t a = iter % kNumCampaignSlots;
    const CampaignSlot& slot = kCampaignSlots[a];
    knn::BatchResult got;
    if (harness == Harness::kJoin) {
      got = join::JoinEngine(w.built.tree, campaign_join(slot)).knn_join(w.queries);
    } else {
      serve::StreamingOptions so = campaign_stream(slot);
      if (harness == Harness::kImplicit) so.engine.layout = engine::NodeLayout::kImplicit;
      so.replica.replicas = 3;
      so.replica.groups = 2;
      so.replica.max_attempts = 4;
      so.replica.restart_us = 2000;  // crashed replicas return within the run
      so.replica.hedge = true;
      so.replica.hedge_percentile = 90.0;
      so.replica.hedge_warmup = 4;
      so.replica.health_seed = base_seed + 11;
      got = stream_answers(
          harness == Harness::kSharded
              ? serve::StreamingEngine(pooled(sharded[a], w.points, campaign_sharded(slot)),
                                       w.points, so)
                    .run(w.stream)
              : serve::StreamingEngine(w.built.tree, so).run(w.stream),
          context);
    }
    check_exact_or_flagged(got, w.truth, context);
    attribute(summary, armed, scope, !got.all_ok(), context);
  }
  summary.extra = {{"combos.two", combos_two}, {"combos.three", combos_three}};
  return finish_campaign("chaoscamp", summary, out,
                         " (" + std::to_string(combos_two) + " double-fault, " +
                             std::to_string(combos_three) + " triple-fault)");
}

int cmd_radius(const Args& args) {
  const PointSet points = data::read_binary(args.str("data"));
  const sstree::SSTree tree = sstree::read_index(&points, args.str("index"));
  const auto radius = static_cast<Scalar>(args.real("radius", -1));
  if (radius < 0) usage("--radius is required and must be >= 0");
  const std::size_t nq = args.num("num-queries", 4);
  const PointSet queries = data::sample_queries(points, nq, 0.0, args.num("seed", 7));

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const knn::RadiusResult r = knn::radius_query(tree, queries[i], radius);
    std::cout << "query " << i << ": " << r.matches.size() << " points within " << radius
              << " (examined " << r.stats.points_examined << " of " << points.size() << ")\n";
  }
  return 0;
}

/// A command, its entry point and every flag it reads (helpers included:
/// build_tree reads kBuildFlags, layout_from_flags kLayoutFlags).
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

std::optional<Command> find_command(const std::string& name) {
  using Flags = std::set<std::string>;
  const auto with = [](Flags a, const Flags& b) {
    a.insert(b.begin(), b.end());
    return a;
  };
  const Flags kBuildFlags = {"builder", "degree", "bounds"};
  const Flags kLayoutFlags = {"layout", "snapshot"};
  const Flags kJoinFlags = with(with({"data", "k", "variant", "include-self", "algo", "threads",
                                      "warp-queries", "print", "out"},
                                     kBuildFlags),
                                kLayoutFlags);
  const Flags kCampaignFlags = {"iterations", "seed", "out", "workdir"};
  const std::vector<Command> kCommands = {
      {"generate", cmd_generate,
       {"out", "type", "dims", "count", "clusters", "stddev", "extent", "seed", "stations",
        "readings", "points"}},
      {"build", cmd_build, with({"data", "out"}, kBuildFlags)},
      {"info", cmd_info, {"data", "index"}},
      {"query", cmd_query,
       with({"data", "index", "k", "num-queries", "algo", "seed", "reorder", "warp-queries",
             "shards", "degree", "trace-out", "trace-csv"},
            kLayoutFlags)},
      {"radius", cmd_radius, {"data", "index", "radius", "num-queries", "seed"}},
      {"allknn", [](const Args& args) { return cmd_join_like(args, /*self_join=*/true); },
       kJoinFlags},
      {"join", [](const Args& args) { return cmd_join_like(args, /*self_join=*/false); },
       with(kJoinFlags, {"targets"})},
      {"serve", cmd_serve,
       with({"data", "index", "shards", "degree", "algo", "k", "mode", "rate", "duration-s",
             "deadline-ms", "horizon-ms", "capacity", "queue-bound", "cell-bits",
             "overhead-us", "diurnal-amplitude", "diurnal-period-s", "burst-rate",
             "burst-size", "seed", "out", "reorder", "replicas", "replica-groups", "hedge",
             "hedge-pct", "hedge-warmup", "replica-timeout-us", "straggle-pct",
             "straggle-mult", "replica-seed"},
            kLayoutFlags)},
      {"bench", cmd_bench,
       {"out", "type", "dims", "count", "clusters", "stddev", "stations", "readings", "points",
        "num-queries", "queries", "k", "degree", "seed", "algos", "variants", "warp-queries",
        "shards", "replicas", "replica-groups", "hedge-pct", "hedge-warmup", "straggle-pct",
        "straggle-mult", "stream-rate", "stream-duration-s", "stream-deadline-ms",
        "stream-horizon-ms", "stream-capacity", "stream-queue-bound", "stream-cell-bits",
        "stream-overhead-us", "stream-diurnal-amplitude", "stream-diurnal-period-s",
        "stream-burst-rate", "stream-burst-size", "construction-points",
        "construction-degree", "construction-readings", "construction-budget-ms"}},
      {"faultcamp", cmd_faultcamp, kCampaignFlags},
      {"chaoscamp", cmd_chaoscamp, kCampaignFlags},
  };
  for (const Command& c : kCommands) {
    if (name == c.name) return c;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const std::optional<Command> command = find_command(cmd);
    if (!command) usage("unknown command " + cmd);
    return command->run(Args(argc, argv, 2, cmd, command->flags));
  } catch (const CorruptInput& e) {
    // CorruptIndex and every other bad-bytes failure: the input file, not the
    // invocation or the tool, is at fault.
    std::cerr << "psbtool: error=corrupt-input msg=\"" << e.what() << "\"\n";
    return 3;
  } catch (const IoError& e) {
    std::cerr << "psbtool: error=io msg=\"" << e.what() << "\"\n";
    return 3;
  } catch (const InvalidArgument& e) {
    std::cerr << "psbtool: error=usage msg=\"" << e.what() << "\"\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "psbtool: error=internal msg=\"" << e.what() << "\"\n";
    return 4;
  }
}
