// Unit tests for psb::common — geometry kernels, PointSet, KnnHeap, errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/points.hpp"
#include "common/rng.hpp"

namespace psb {
namespace {

TEST(Distance, KnownValues) {
  const std::vector<Scalar> a{0, 0, 0};
  const std::vector<Scalar> b{3, 4, 0};
  EXPECT_FLOAT_EQ(distance(a, b), 5.0F);
  EXPECT_FLOAT_EQ(distance_sq(a, b), 25.0F);
  EXPECT_FLOAT_EQ(distance(a, a), 0.0F);
}

TEST(Distance, SymmetryAndTriangleInequality) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Scalar> a(8), b(8), c(8);
    for (std::size_t i = 0; i < 8; ++i) {
      a[i] = static_cast<Scalar>(rng.uniform(-100, 100));
      b[i] = static_cast<Scalar>(rng.uniform(-100, 100));
      c[i] = static_cast<Scalar>(rng.uniform(-100, 100));
    }
    EXPECT_FLOAT_EQ(distance(a, b), distance(b, a));
    EXPECT_LE(distance(a, c), distance(a, b) + distance(b, c) + 1e-3F);
  }
}

TEST(Sphere, MindistMaxdistBasic) {
  Sphere s{{0, 0}, 2};
  const std::vector<Scalar> far_q{5, 0};
  EXPECT_FLOAT_EQ(mindist(far_q, s), 3.0F);
  EXPECT_FLOAT_EQ(maxdist(far_q, s), 7.0F);
  const std::vector<Scalar> inside_q{1, 0};
  EXPECT_FLOAT_EQ(mindist(inside_q, s), 0.0F);  // clamped at zero inside
  EXPECT_FLOAT_EQ(maxdist(inside_q, s), 3.0F);
}

TEST(Sphere, MindistLowerBoundsTruePointDistances) {
  // Property: for any point inside the sphere, its distance to the query is
  // within [mindist, maxdist].
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    Sphere s;
    s.center = {static_cast<Scalar>(rng.uniform(-10, 10)),
                static_cast<Scalar>(rng.uniform(-10, 10)),
                static_cast<Scalar>(rng.uniform(-10, 10))};
    s.radius = static_cast<Scalar>(rng.uniform(0.1, 5.0));
    // Random point inside the sphere.
    std::vector<Scalar> p = s.center;
    std::vector<Scalar> dir(3);
    for (auto& v : dir) v = static_cast<Scalar>(rng.normal());
    const Scalar norm = distance(dir, std::vector<Scalar>{0, 0, 0});
    const Scalar scale = static_cast<Scalar>(rng.next_double()) * s.radius / std::max(norm, 1e-6F);
    for (std::size_t i = 0; i < 3; ++i) p[i] += dir[i] * scale;
    ASSERT_TRUE(s.contains(p));

    std::vector<Scalar> q{static_cast<Scalar>(rng.uniform(-30, 30)),
                          static_cast<Scalar>(rng.uniform(-30, 30)),
                          static_cast<Scalar>(rng.uniform(-30, 30))};
    const Scalar d = distance(q, p);
    EXPECT_LE(mindist(q, s), d + 1e-3F);
    EXPECT_GE(maxdist(q, s), d - 1e-3F);
  }
}

TEST(Sphere, ContainsSphere) {
  Sphere outer{{0, 0}, 10};
  Sphere inner{{3, 0}, 2};
  Sphere overlapping{{9, 0}, 5};
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(outer.contains(overlapping));
  EXPECT_TRUE(outer.contains(outer));
}

TEST(Rect, ExpandMergeContains) {
  Rect r = Rect::around(std::vector<Scalar>{1, 1});
  r.expand(std::vector<Scalar>{3, -1});
  EXPECT_TRUE(r.contains(std::vector<Scalar>{2, 0}));
  EXPECT_FALSE(r.contains(std::vector<Scalar>{0, 0}));
  const Rect other = Rect::around(std::vector<Scalar>{5, 5});
  const Rect merged = Rect::merge(r, other);
  EXPECT_TRUE(merged.contains(r));
  EXPECT_TRUE(merged.contains(other));
  EXPECT_EQ(merged.center()[0], 3);
}

TEST(Rect, MindistMaxdist) {
  Rect r;
  r.lo = {0, 0};
  r.hi = {2, 2};
  const std::vector<Scalar> q{4, 1};
  EXPECT_FLOAT_EQ(mindist(q, r), 2.0F);
  // Farthest corner is (0, 2) at sqrt(16+1)... actually (0,0): sqrt(16+1)=sqrt(17)
  EXPECT_NEAR(maxdist(q, r), std::sqrt(17.0F), 1e-5);
  const std::vector<Scalar> inside{1, 1};
  EXPECT_FLOAT_EQ(mindist(inside, r), 0.0F);
}

TEST(SphereFromDiameter, CoversEndpoints) {
  const std::vector<Scalar> a{0, 0};
  const std::vector<Scalar> b{4, 0};
  const Sphere s = sphere_from_diameter(a, b);
  EXPECT_FLOAT_EQ(s.radius, 2.0F);
  EXPECT_TRUE(s.contains(a));
  EXPECT_TRUE(s.contains(b));
}

TEST(PointSet, AppendAndAccess) {
  PointSet ps(3);
  EXPECT_TRUE(ps.empty());
  const PointId id0 = ps.append(std::vector<Scalar>{1, 2, 3});
  const PointId id1 = ps.append(std::vector<Scalar>{4, 5, 6});
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[1][2], 6);
  EXPECT_EQ(ps.byte_size(), 6 * sizeof(Scalar));
}

TEST(PointSet, Subset) {
  PointSet ps(2);
  for (int i = 0; i < 5; ++i) ps.append(std::vector<Scalar>{Scalar(i), Scalar(i * 10)});
  const std::vector<PointId> ids{3, 1};
  const PointSet sub = ps.subset(ids);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0][0], 3);
  EXPECT_EQ(sub[1][1], 10);
}

TEST(PointSet, Preconditions) {
  EXPECT_THROW(PointSet(0), InvalidArgument);
  PointSet ps(2);
  EXPECT_THROW(ps.append(std::vector<Scalar>{1, 2, 3}), InvalidArgument);
  EXPECT_THROW(PointSet(2, std::vector<Scalar>{1, 2, 3}), InvalidArgument);
}

TEST(KnnHeap, KeepsKSmallest) {
  KnnHeap heap(3);
  EXPECT_EQ(heap.bound(), kInfinity);
  heap.offer(5, 0);
  heap.offer(1, 1);
  heap.offer(3, 2);
  EXPECT_TRUE(heap.full());
  EXPECT_FLOAT_EQ(heap.bound(), 5.0F);
  EXPECT_TRUE(heap.offer(2, 3));   // displaces 5
  EXPECT_FALSE(heap.offer(9, 4));  // too far
  const auto sorted = heap.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_FLOAT_EQ(sorted[0].dist, 1.0F);
  EXPECT_FLOAT_EQ(sorted[1].dist, 2.0F);
  EXPECT_FLOAT_EQ(sorted[2].dist, 3.0F);
  EXPECT_EQ(sorted[0].id, 1u);
}

TEST(KnnHeap, ExternalBoundOnlyAffectsPruning) {
  KnnHeap heap(2);
  heap.tighten(4.0F);
  EXPECT_FLOAT_EQ(heap.pruning_distance(), 4.0F);
  EXPECT_EQ(heap.bound(), kInfinity);  // heap itself not full yet
  heap.offer(1, 0);
  heap.offer(2, 1);
  EXPECT_FLOAT_EQ(heap.pruning_distance(), 2.0F);  // heap bound now tighter
}

TEST(KnnHeap, AgainstSortReference) {
  Rng rng(23);
  KnnHeap heap(10);
  std::vector<Scalar> all;
  for (int i = 0; i < 500; ++i) {
    const auto d = static_cast<Scalar>(rng.uniform(0, 1000));
    all.push_back(d);
    heap.offer(d, static_cast<PointId>(i));
  }
  std::sort(all.begin(), all.end());
  const auto sorted = heap.sorted();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FLOAT_EQ(sorted[i].dist, all[i]);
}

TEST(NextUp, EqualsNextafterTowardInfinity) {
  using Lim = std::numeric_limits<Scalar>;
  const auto expect_same = [](Scalar x) {
    const Scalar want = std::nextafter(x, Lim::infinity());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(next_up(x)), std::bit_cast<std::uint32_t>(want))
        << "x bits 0x" << std::hex << std::bit_cast<std::uint32_t>(x);
  };
  const Scalar edges[] = {0.0F, -0.0F, Lim::denorm_min(), -Lim::denorm_min(), Lim::min(),
                          -Lim::min(), Lim::max(), -Lim::max(), Lim::infinity(), -Lim::infinity(),
                          1.0F, -1.0F, kInfinity, std::bit_cast<Scalar>(0x007fffffU),
                          std::bit_cast<Scalar>(0x807fffffU)};
  for (const Scalar x : edges) expect_same(x);
  EXPECT_EQ(next_up(-Scalar{0}), Lim::denorm_min());
  EXPECT_EQ(next_up(Lim::infinity()), Lim::infinity());
  EXPECT_TRUE(std::isnan(next_up(Lim::quiet_NaN())));

  Rng rng(0x5EED);
  for (int i = 0; i < 100000; ++i) {
    const Scalar x = std::bit_cast<Scalar>(static_cast<std::uint32_t>(rng.next_u64()));
    if (std::isnan(x)) continue;
    expect_same(x);
  }
}

TEST(KnnHeap, RejectsZeroK) { EXPECT_THROW(KnnHeap(0), InvalidArgument); }

TEST(Errors, MacrosCarryContext) {
  try {
    PSB_REQUIRE(1 == 2, "custom message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
  EXPECT_THROW(PSB_ASSERT(false, "boom"), InternalError);
}

/// Reference CRC32: the classic one-byte-per-step table loop, with its
/// table derived bit by bit.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1U) != 0 ? (c >> 1) ^ 0xEDB88320U : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(29);
  std::vector<unsigned char> buf(300 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32(p, len), bytewise_crc32(p, len, 0)) << "align " << align << " len " << len;
      ASSERT_EQ(crc32(p, len, seed), bytewise_crc32(p, len, seed))
          << "align " << align << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32, ChainedCallsEqualOneCall) {
  Rng rng(31);
  std::vector<unsigned char> buf(300);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  const std::uint32_t whole = bytewise_crc32(buf.data(), buf.size(), 0);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole) << "cut " << cut;
  }
  Crc32 acc;
  for (std::size_t at = 0; at < buf.size();) {
    const std::size_t step = std::min<std::size_t>(1 + rng.next_below(17), buf.size() - at);
    acc.update(buf.data() + at, step);
    at += step;
  }
  EXPECT_EQ(acc.value(), whole);
}

}  // namespace
}  // namespace psb
