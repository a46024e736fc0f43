// Umbrella header: the full public API of the PSB library.
//
//   #include "psb.hpp"
//
//   using namespace psb;
//   PointSet points = data::make_clustered({.dims = 16});
//   auto built  = sstree::build_kmeans(points, 128);
//   auto result = knn::psb_batch(built.tree, queries, {.k = 32});
//
// Individual module headers can be included directly for faster builds.
#pragma once

#include "obs/export.hpp"     // IWYU pragma: export
#include "obs/histogram.hpp"  // IWYU pragma: export
#include "obs/json.hpp"       // IWYU pragma: export
#include "obs/registry.hpp"   // IWYU pragma: export
#include "obs/trace.hpp"      // IWYU pragma: export

#include "common/checksum.hpp"   // IWYU pragma: export
#include "common/envelope.hpp"   // IWYU pragma: export
#include "common/error.hpp"      // IWYU pragma: export
#include "common/geometry.hpp"   // IWYU pragma: export
#include "common/points.hpp"     // IWYU pragma: export
#include "common/rng.hpp"        // IWYU pragma: export
#include "common/types.hpp"      // IWYU pragma: export

#include "simt/block.hpp"         // IWYU pragma: export
#include "simt/cost_model.hpp"    // IWYU pragma: export
#include "simt/device.hpp"        // IWYU pragma: export
#include "simt/metrics.hpp"       // IWYU pragma: export
#include "simt/sort.hpp"          // IWYU pragma: export
#include "simt/task_parallel.hpp" // IWYU pragma: export

#include "fault/fault.hpp"   // IWYU pragma: export
#include "fault/report.hpp"  // IWYU pragma: export
#include "fault/sites.hpp"   // IWYU pragma: export

#include "hilbert/hilbert.hpp"  // IWYU pragma: export

#include "cluster/kmeans.hpp"  // IWYU pragma: export

#include "mbs/parallel_ritter.hpp"  // IWYU pragma: export
#include "mbs/ritter.hpp"           // IWYU pragma: export
#include "mbs/welzl.hpp"            // IWYU pragma: export

#include "data/io.hpp"          // IWYU pragma: export
#include "data/noaa_synth.hpp"  // IWYU pragma: export
#include "data/synthetic.hpp"   // IWYU pragma: export

#include "sstree/builders.hpp"   // IWYU pragma: export
#include "sstree/integrity.hpp"  // IWYU pragma: export
#include "sstree/serialize.hpp"  // IWYU pragma: export
#include "sstree/tree.hpp"       // IWYU pragma: export
#include "sstree/update.hpp"     // IWYU pragma: export

#include "layout/fetch.hpp"     // IWYU pragma: export
#include "layout/implicit.hpp"  // IWYU pragma: export
#include "layout/snapshot.hpp"  // IWYU pragma: export

#include "knn/best_first.hpp"           // IWYU pragma: export
#include "knn/branch_and_bound.hpp"     // IWYU pragma: export
#include "knn/brute_force.hpp"          // IWYU pragma: export
#include "knn/psb.hpp"                  // IWYU pragma: export
#include "knn/radius.hpp"               // IWYU pragma: export
#include "knn/stackless_baselines.hpp"   // IWYU pragma: export
#include "knn/task_parallel_sstree.hpp"  // IWYU pragma: export

#include "engine/batch_engine.hpp"  // IWYU pragma: export

#include "shard/partition.hpp"       // IWYU pragma: export
#include "shard/result_cache.hpp"    // IWYU pragma: export
#include "shard/sharded_engine.hpp"  // IWYU pragma: export

#include "join/join_engine.hpp"  // IWYU pragma: export

#include "replica/replica.hpp"  // IWYU pragma: export

#include "serve/arrivals.hpp"          // IWYU pragma: export
#include "serve/buffer.hpp"            // IWYU pragma: export
#include "serve/streaming_engine.hpp"  // IWYU pragma: export

#include "kdtree/kdtree.hpp"             // IWYU pragma: export
#include "kdtree/task_parallel_knn.hpp"  // IWYU pragma: export

#include "rbc/rbc.hpp"  // IWYU pragma: export

#include "srtree/srtree.hpp"      // IWYU pragma: export
#include "srtree/srtree_knn.hpp"  // IWYU pragma: export
