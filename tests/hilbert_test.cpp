// Property tests for the d-dimensional Hilbert curve encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/noaa_synth.hpp"
#include "hilbert/hilbert.hpp"
#include "simt/sort.hpp"
#include "test_util.hpp"

namespace psb::hilbert {
namespace {

/// Reference oracle: the per-point scalar form of the encoder (Skilling's
/// AxesToTranspose with a branch per axis and bit, then the bit interleave).
/// Encoder's lane-blocked kernel must reproduce its keys bit for bit.
std::vector<std::uint64_t> reference_encode_axes(std::vector<std::uint32_t> x, int bits) {
  const std::size_t n = x.size();
  const std::uint32_t m = std::uint32_t{1} << (bits - 1);
  // Inverse undo.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert low bits of the first axis
      } else {
        const std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::size_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (std::size_t i = 0; i < n; ++i) x[i] ^= t;

  std::vector<std::uint64_t> out((n * static_cast<std::size_t>(bits) + 63) / 64, 0);
  std::size_t bitpos = 0;  // 0 = MSB of out[0]
  for (int b = bits - 1; b >= 0; --b) {
    for (std::size_t i = 0; i < n; ++i, ++bitpos) {
      if ((x[i] >> b) & 1u) out[bitpos / 64] |= std::uint64_t{1} << (63 - bitpos % 64);
    }
  }
  return out;
}

/// Reference quantization of one point onto the 2^bits grid over `bounds`.
std::vector<std::uint64_t> reference_encode_point(std::span<const Scalar> p, const Rect& bounds,
                                                  int bits) {
  const std::uint32_t cells = (bits == 31) ? 0x80000000u : (std::uint32_t{1} << bits);
  std::vector<std::uint32_t> axes(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double extent = static_cast<double>(bounds.hi[i]) - bounds.lo[i];
    double frac = extent > 0 ? (static_cast<double>(p[i]) - bounds.lo[i]) / extent : 0.0;
    frac = std::clamp(frac, 0.0, 1.0);
    auto cell = static_cast<std::uint32_t>(frac * cells);
    axes[i] = std::min(cell, cells - 1);
  }
  return reference_encode_axes(std::move(axes), bits);
}

/// Enumerate every cell of a small grid and return cells ordered by their
/// Hilbert key.
std::vector<std::vector<std::uint32_t>> cells_in_hilbert_order(std::size_t dims, int bits) {
  const Encoder enc(dims, bits);
  const std::uint32_t side = 1u << bits;
  std::size_t total = 1;
  for (std::size_t i = 0; i < dims; ++i) total *= side;

  std::vector<std::uint64_t> keys(total * enc.words_per_key());
  std::vector<std::vector<std::uint32_t>> cells(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    std::vector<std::uint32_t> axes(dims);
    std::size_t rem = idx;
    for (std::size_t t = 0; t < dims; ++t) {
      axes[t] = static_cast<std::uint32_t>(rem % side);
      rem /= side;
    }
    enc.encode_axes(axes, {keys.data() + idx * enc.words_per_key(), enc.words_per_key()});
    cells[idx] = std::move(axes);
  }
  const auto order = simt::radix_sort_order(keys, enc.words_per_key(), nullptr);
  std::vector<std::vector<std::uint32_t>> out(total);
  for (std::size_t i = 0; i < total; ++i) out[i] = cells[order[i]];
  return out;
}

struct GridCase {
  std::size_t dims;
  int bits;
};

class HilbertGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(HilbertGridTest, CurveVisitsEveryCellOnceAndIsContinuous) {
  const auto [dims, bits] = GetParam();
  const auto path = cells_in_hilbert_order(dims, bits);

  // Bijectivity: every cell appears exactly once.
  std::map<std::vector<std::uint32_t>, int> seen;
  for (const auto& c : path) seen[c] += 1;
  std::size_t total = 1;
  for (std::size_t i = 0; i < dims; ++i) total *= (std::size_t{1} << bits);
  EXPECT_EQ(seen.size(), total);

  // Continuity: consecutive cells differ by exactly 1 in exactly one axis —
  // the defining property of a Hilbert curve.
  for (std::size_t i = 1; i < path.size(); ++i) {
    int moved_axes = 0;
    std::uint64_t step = 0;
    for (std::size_t t = 0; t < dims; ++t) {
      const auto d = static_cast<std::int64_t>(path[i][t]) - path[i - 1][t];
      if (d != 0) {
        ++moved_axes;
        step = static_cast<std::uint64_t>(d < 0 ? -d : d);
      }
    }
    ASSERT_EQ(moved_axes, 1) << "discontinuity at step " << i;
    ASSERT_EQ(step, 1u) << "jump at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, HilbertGridTest,
                         ::testing::Values(GridCase{2, 1}, GridCase{2, 2}, GridCase{2, 3},
                                           GridCase{2, 4}, GridCase{3, 2}, GridCase{3, 3},
                                           GridCase{4, 2}, GridCase{5, 2}),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param.dims) + "b" +
                                  std::to_string(info.param.bits);
                         });

class HilbertRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(HilbertRoundTripTest, EncodeDecodeIdentity) {
  const auto [dims, bits] = GetParam();
  const Encoder enc(dims, bits);
  Rng rng(dims * 100 + bits);
  const std::uint32_t limit = (bits == 31) ? 0x7FFFFFFFu : ((1u << bits) - 1);
  std::vector<std::uint32_t> axes(dims);
  std::vector<std::uint32_t> decoded(dims);
  std::vector<std::uint64_t> key(enc.words_per_key());
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& a : axes) a = static_cast<std::uint32_t>(rng.next_below(limit + 1ull));
    enc.encode_axes(axes, key);
    enc.decode(key, decoded);
    EXPECT_EQ(axes, decoded);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HilbertRoundTripTest,
                         ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 8, 16, 64),
                                            ::testing::Values(2, 8, 16, 31)));

TEST(Hilbert, KeyWidth) {
  EXPECT_EQ(Encoder(2, 16).words_per_key(), 1u);
  EXPECT_EQ(Encoder(4, 16).words_per_key(), 1u);
  EXPECT_EQ(Encoder(5, 16).words_per_key(), 2u);
  EXPECT_EQ(Encoder(64, 16).words_per_key(), 16u);
}

TEST(Hilbert, PointQuantizationRespectsBounds) {
  const Encoder enc(2, 8);
  Rect bounds;
  bounds.lo = {0, 0};
  bounds.hi = {100, 100};
  std::vector<std::uint64_t> key_lo(enc.words_per_key());
  std::vector<std::uint64_t> key_hi(enc.words_per_key());
  // Boundary values must not overflow the grid.
  enc.encode_point(std::vector<Scalar>{0, 0}, bounds, key_lo);
  enc.encode_point(std::vector<Scalar>{100, 100}, bounds, key_hi);
  std::vector<std::uint32_t> axes(2);
  enc.decode(key_hi, axes);
  EXPECT_EQ(axes[0], 255u);
  EXPECT_EQ(axes[1], 255u);
  // Out-of-bounds points clamp.
  enc.encode_point(std::vector<Scalar>{-50, 300}, bounds, key_lo);
  enc.decode(key_lo, axes);
  EXPECT_EQ(axes[0], 0u);
  EXPECT_EQ(axes[1], 255u);
}

TEST(Hilbert, SortedOrderPreservesLocality) {
  // Property from §IV-A: distant Hilbert indices never map to the same cell,
  // so the average hop between consecutive sorted points must be far below
  // the average pairwise distance (locality).
  const std::size_t dims = 4;
  const PointSet points = test::small_clustered(dims, 2000, 31);
  const Encoder enc(dims, 10);
  const auto keys = enc.encode_all(points);
  const auto order = simt::radix_sort_order(keys, enc.words_per_key(), nullptr);

  double hop = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    hop += distance(points[order[i - 1]], points[order[i]]);
  }
  hop /= static_cast<double>(order.size() - 1);

  Rng rng(7);
  double random_pair = 0;
  for (int i = 0; i < 2000; ++i) {
    random_pair += distance(points[rng.next_below(points.size())],
                            points[rng.next_below(points.size())]);
  }
  random_pair /= 2000;
  EXPECT_LT(hop, random_pair / 3) << "Hilbert order lost spatial locality";
}

TEST(Hilbert, RejectsBadArguments) {
  EXPECT_THROW(Encoder(0, 8), InvalidArgument);
  EXPECT_THROW(Encoder(65, 8), InvalidArgument);
  EXPECT_THROW(Encoder(2, 0), InvalidArgument);
  EXPECT_THROW(Encoder(2, 32), InvalidArgument);
  const Encoder enc(2, 4);
  std::vector<std::uint64_t> key(enc.words_per_key());
  EXPECT_THROW(enc.encode_axes(std::vector<std::uint32_t>{1, 2, 3}, key), InvalidArgument);
  EXPECT_THROW(enc.encode_axes(std::vector<std::uint32_t>{1, 16}, key), InvalidArgument);

  // Non-finite input: a NaN coordinate, and a bounds corner at -inf (whose
  // quantization would be inf / inf).
  Rect bounds;
  bounds.lo = {0, 0};
  bounds.hi = {10, 10};
  const Scalar nan = std::numeric_limits<Scalar>::quiet_NaN();
  const Scalar inf = std::numeric_limits<Scalar>::infinity();
  EXPECT_THROW(enc.encode_point(std::vector<Scalar>{1, nan}, bounds, key), InvalidArgument);
  PointSet rows(2, {1, 2, 3, 4, 5, nan});
  try {
    (void)enc.encode_all(rows, bounds);
    ADD_FAILURE() << "encode_all accepted a NaN coordinate";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("row 2 coordinate 1"), std::string::npos) << e.what();
  }
  Rect open = bounds;
  open.lo[0] = -inf;
  EXPECT_THROW(enc.encode_point(std::vector<Scalar>{1, 2}, open, key), InvalidArgument);
  try {
    (void)enc.encode_all(PointSet(2, {1, 2, 3, 4}), open);
    ADD_FAILURE() << "encode_all accepted a -inf bounds corner";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bounds lo coordinate 0"), std::string::npos)
        << e.what();
  }
}

class HilbertKeyStabilityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

// encode_all runs blocks of 16 rows and the rest one at a time; every block
// and every tail must give the scalar reference's key and encode_point's.
TEST_P(HilbertKeyStabilityTest, EncodeAllMatchesScalarReferenceAndEncodePoint) {
  const auto [dims, bits] = GetParam();
  const Encoder enc(dims, bits);
  const std::size_t words = enc.words_per_key();
  PointSet points = test::small_clustered(dims, 63, dims * 100 + static_cast<std::size_t>(bits));
  if (dims >= 2) {
    // One zero-extent axis.
    for (std::size_t i = 0; i < points.size(); ++i) points.mutable_point(i)[dims - 1] = 2.5F;
  }
  // Bounds over the first half only, so later rows also exercise the clamp.
  std::vector<PointId> half(32);
  std::iota(half.begin(), half.end(), PointId{0});
  const Rect bounds = bounding_rect(points.subset(half));

  std::vector<std::uint64_t> key(words);
  for (std::size_t n = 1; n <= points.size(); n = (n == 32 ? points.size() : n + 1)) {
    std::vector<PointId> ids(n);
    std::iota(ids.begin(), ids.end(), PointId{0});
    const std::vector<std::uint64_t> keys = enc.encode_all(points.subset(ids), bounds);
    ASSERT_EQ(keys.size(), n * words);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::uint64_t> got(keys.begin() + static_cast<std::ptrdiff_t>(i * words),
                                           keys.begin() +
                                               static_cast<std::ptrdiff_t>((i + 1) * words));
      ASSERT_EQ(got, reference_encode_point(points[i], bounds, bits)) << "n=" << n << " row " << i;
      enc.encode_point(points[i], bounds, key);
      ASSERT_EQ(got, key) << "n=" << n << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, HilbertKeyStabilityTest,
                         ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 5, 8, 64),
                                            ::testing::Values(1, 16, 31)));

// Every Hilbert-built tree, shard partition and query reorder sorts on these
// keys, so any drift in them moves every gate that builds one. The checksum
// is of the NOAA gate fixture's 4-d, 16-bit keys (big-endian bytes).
TEST(Hilbert, NoaaFixtureKeysArePinned) {
  data::NoaaSpec spec;
  spec.stations = 150;
  spec.readings_per_station = 40;
  const PointSet points = data::make_noaa_like(spec);
  const std::vector<std::uint64_t> keys = Encoder(4, 16).encode_all(points);
  std::vector<unsigned char> bytes;
  bytes.reserve(keys.size() * 8);
  for (const std::uint64_t k : keys) {
    for (int s = 56; s >= 0; s -= 8) bytes.push_back(static_cast<unsigned char>(k >> s));
  }
  ASSERT_EQ(points.size(), 6000u);
  EXPECT_EQ(psb::crc32(bytes.data(), bytes.size()), 0xD927E1A1u);
}

TEST(BoundingRect, CoversAllPoints) {
  const PointSet points = test::small_clustered(3, 500, 5);
  const Rect r = bounding_rect(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(r.contains(points[i]));
  }
}

}  // namespace
}  // namespace psb::hilbert
