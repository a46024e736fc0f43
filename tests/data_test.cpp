// Tests for the dataset generators and IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "data/io.hpp"
#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"

namespace psb::data {
namespace {

TEST(Clustered, ShapeAndDeterminism) {
  ClusteredSpec spec;
  spec.dims = 8;
  spec.num_clusters = 4;
  spec.points_per_cluster = 100;
  const PointSet a = make_clustered(spec);
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(a.dims(), 8u);
  const PointSet b = make_clustered(spec);
  EXPECT_EQ(a.raw().size(), b.raw().size());
  for (std::size_t i = 0; i < a.raw().size(); ++i) EXPECT_EQ(a.raw()[i], b.raw()[i]);
}

TEST(Clustered, StddevControlsSpread) {
  // Average distance of a point to its cluster mean grows with sigma:
  // estimate per-cluster spread via within-cluster pairwise distances.
  auto spread = [](double sigma) {
    ClusteredSpec spec;
    spec.dims = 4;
    spec.num_clusters = 5;
    spec.points_per_cluster = 200;
    spec.stddev = sigma;
    const PointSet ps = make_clustered(spec);
    double acc = 0;
    std::size_t cnt = 0;
    for (std::size_t c = 0; c < 5; ++c) {
      const std::size_t base = c * 200;
      for (std::size_t i = 1; i < 50; ++i) {
        acc += distance(ps[base], ps[base + i]);
        ++cnt;
      }
    }
    return acc / static_cast<double>(cnt);
  };
  const double s40 = spread(40);
  const double s640 = spread(640);
  EXPECT_GT(s640, s40 * 8) << "sigma sweep does not scale cluster spread";
  // Expected within-cluster distance for sigma in d dims ~ sigma * sqrt(2d).
  EXPECT_NEAR(s40, 40 * std::sqrt(8.0), 40 * std::sqrt(8.0) * 0.2);
}

TEST(Uniform, CoversTheBox) {
  const PointSet ps = make_uniform(3, 5000, 100.0, 7);
  EXPECT_EQ(ps.size(), 5000u);
  Scalar lo = kInfinity;
  Scalar hi = -kInfinity;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (const Scalar v : ps[i]) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      ASSERT_GE(v, 0.0F);
      ASSERT_LT(v, 100.0F);
    }
  }
  EXPECT_LT(lo, 2.0F);
  EXPECT_GT(hi, 98.0F);
}

TEST(Zipf, SkewConcentratesMass) {
  const PointSet uniform = make_zipf(2, 5000, 100.0, 1.0, 7);
  const PointSet skewed = make_zipf(2, 5000, 100.0, 4.0, 7);
  auto below_ten = [](const PointSet& ps) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (ps[i][0] < 10.0F) ++n;
    }
    return n;
  };
  // skew=1 is uniform (~10% below 10); skew=4 concentrates most mass there
  // (P[100 u^4 < 10] = 0.1^(1/4) ~ 56%).
  EXPECT_NEAR(static_cast<double>(below_ten(uniform)) / 5000, 0.10, 0.03);
  EXPECT_GT(below_ten(skewed), 2500u);
  EXPECT_THROW(make_zipf(2, 10, 100.0, 0.5, 7), InvalidArgument);
}

TEST(Queries, JitterZeroSamplesDataPoints) {
  const PointSet data = make_uniform(4, 100, 10.0, 9);
  const PointSet q = sample_queries(data, 20, 0.0, 11);
  EXPECT_EQ(q.size(), 20u);
  for (std::size_t i = 0; i < q.size(); ++i) {
    // Every query must coincide with some data point.
    bool matched = false;
    for (std::size_t j = 0; j < data.size(); ++j) {
      if (distance(q[i], data[j]) == 0.0F) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(Noaa, StructureAndRanges) {
  NoaaSpec spec;
  spec.stations = 500;
  spec.readings_per_station = 10;
  const PointSet ps = make_noaa_like(spec);
  EXPECT_EQ(ps.size(), 5000u);
  EXPECT_EQ(ps.dims(), 4u);  // lat, lon, day, temperature
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_GE(ps[i][0], -91.0F);  // lat (+ reading jitter)
    EXPECT_LE(ps[i][0], 91.0F);
    EXPECT_GE(ps[i][1], -181.0F);  // lon
    EXPECT_LE(ps[i][1], 181.0F);
    EXPECT_GE(ps[i][2], 0.0F);  // day of year
    EXPECT_LE(ps[i][2], 365.0F);
    EXPECT_GE(ps[i][3], -60.0F);  // temperature (degC)
    EXPECT_LE(ps[i][3], 60.0F);
  }
}

TEST(Noaa, CoordinateOnlyVariant) {
  NoaaSpec spec;
  spec.stations = 100;
  spec.readings_per_station = 2;
  spec.include_time_and_temp = false;
  const PointSet ps = make_noaa_like(spec);
  EXPECT_EQ(ps.dims(), 2u);
}

TEST(Noaa, TemperatureTracksLatitude) {
  // Equatorial stations must be warmer on average than polar ones.
  NoaaSpec spec;
  spec.stations = 2000;
  spec.readings_per_station = 5;
  const PointSet ps = make_noaa_like(spec);
  double warm = 0;
  double cold = 0;
  std::size_t nw = 0;
  std::size_t nc = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (std::abs(ps[i][0]) < 20) {
      warm += ps[i][3];
      ++nw;
    } else if (std::abs(ps[i][0]) > 55) {
      cold += ps[i][3];
      ++nc;
    }
  }
  ASSERT_GT(nw, 0u);
  ASSERT_GT(nc, 0u);
  EXPECT_GT(warm / static_cast<double>(nw), cold / static_cast<double>(nc) + 10);
}

TEST(Noaa, IsSpatiallySkewed) {
  // Clustered station data: nearest-neighbor distances must be far below the
  // uniform expectation (that skew is exactly what Fig. 9 exercises).
  NoaaSpec spec;
  spec.stations = 1000;
  spec.readings_per_station = 1;
  spec.reading_jitter = 0;
  spec.include_time_and_temp = false;
  const PointSet ps = make_noaa_like(spec);
  double nn_acc = 0;
  const std::size_t probes = 100;
  for (std::size_t i = 0; i < probes; ++i) {
    Scalar best = kInfinity;
    for (std::size_t j = 0; j < ps.size(); ++j) {
      if (j == i) continue;
      best = std::min(best, distance(ps[i], ps[j]));
    }
    nn_acc += best;
  }
  const double mean_nn = nn_acc / probes;
  // Uniform over 360x180 degrees with 1000 points -> mean NN ~ 4 degrees.
  EXPECT_LT(mean_nn, 1.5) << "stations are not clustered enough";
}

TEST(Io, BinaryRoundTrip) {
  const PointSet original = make_uniform(5, 321, 50.0, 13);
  const std::string path = ::testing::TempDir() + "/psb_io_test.bin";
  write_binary(original, path);
  const PointSet loaded = read_binary(path);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dims(), original.dims());
  for (std::size_t i = 0; i < original.raw().size(); ++i) {
    EXPECT_EQ(loaded.raw()[i], original.raw()[i]);
  }
  std::remove(path.c_str());
}

TEST(Io, RejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/psb_io_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a psb file at all";
  }
  EXPECT_THROW(read_binary(path), CorruptIndex);
  EXPECT_THROW(read_binary("/nonexistent/path/file.bin"), IoError);
  std::remove(path.c_str());
}

TEST(Io, RejectsNonFiniteCoordinates) {
  // The builders refuse non-finite points, so a stored NaN or infinity can
  // only come from a damaged or foreign file: CorruptIndex naming the point
  // and the coordinate, never a dataset that poisons every distance.
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity()}) {
    const PointSet good = make_uniform(3, 10, 1.0, 21);
    std::vector<Scalar> raw(good.raw().begin(), good.raw().end());
    raw[7 * 3 + 2] = bad;
    const std::string bytes = serialize_binary(PointSet(3, std::move(raw)));
    try {
      parse_binary(bytes, "bad.bin");
      ADD_FAILURE() << "accepted coordinate " << bad;
    } catch (const CorruptIndex& e) {
      EXPECT_NE(std::string(e.what()).find("point 7 coordinate 2 is non-finite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Io, CsvRowCap) {
  const PointSet ps = make_uniform(2, 100, 1.0, 15);
  const std::string path = ::testing::TempDir() + "/psb_io_test.csv";
  write_csv(ps, path, 10);
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 10);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psb::data
