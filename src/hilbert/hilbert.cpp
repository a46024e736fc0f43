#include "hilbert/hilbert.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psb::hilbert {
namespace {

constexpr std::size_t kMaxDims = 64;

/// Rows encode_all() runs through the kernel at once. Each lane is one
/// point; 16 uint32 lanes fill whole vector registers on every x86-64
/// target, so the compiler keeps the per-axis steps in SIMD form.
constexpr std::size_t kBlockLanes = 16;

/// Skilling's AxesToTranspose, then the bit interleave, over L points at
/// once. x holds the grid cells axis-major (x[axis * L + lane], each
/// < 2^bits) and is overwritten; the key of lane l is written to
/// out[l * words .. l * words + words) in big-endian word order. The only
/// branches are loop bounds, which depend on (dims, bits) alone, so every
/// lane runs the same instruction stream.
template <std::size_t L>
void transform(std::uint32_t* x, std::size_t dims, int bits, std::size_t words,
               std::uint64_t* out) noexcept {
  std::uint32_t* const x0 = x;
  // Inverse undo, from the top bit down to bit 1: where bit b of x[i] is
  // set, invert the low bits of x[0]; otherwise exchange the low bits of
  // x[0] and x[i]. `set` is all ones or all zeros per lane.
  for (int b = bits - 1; b > 0; --b) {
    const std::uint32_t low = (std::uint32_t{1} << b) - 1;
    for (std::size_t l = 0; l < L; ++l) x0[l] ^= low & (0u - ((x0[l] >> b) & 1u));
    for (std::size_t i = 1; i < dims; ++i) {
      std::uint32_t* const xi = x + i * L;
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint32_t set = 0u - ((xi[l] >> b) & 1u);
        const std::uint32_t t = (x0[l] ^ xi[l]) & low & ~set;
        x0[l] ^= t | (low & set);
        xi[l] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::size_t i = 1; i < dims; ++i) {
    for (std::size_t l = 0; l < L; ++l) x[i * L + l] ^= x[(i - 1) * L + l];
  }
  // Skilling's t: bit j is the parity of the bits of x[dims - 1] above j,
  // i.e. the suffix XOR of x[dims - 1] >> 1.
  std::uint32_t t[L];
  for (std::size_t l = 0; l < L; ++l) {
    std::uint32_t y = x[(dims - 1) * L + l] >> 1;
    y ^= y >> 1;
    y ^= y >> 2;
    y ^= y >> 4;
    y ^= y >> 8;
    y ^= y >> 16;
    t[l] = y;
  }
  for (std::size_t i = 0; i < dims; ++i) {
    for (std::size_t l = 0; l < L; ++l) x[i * L + l] ^= t[l];
  }

  // Interleave: the key's most significant bit is bit (bits-1) of x[0], then
  // bit (bits-1) of x[1], ..., then bit (bits-2) of x[0], etc. A partial last
  // word is left-aligned with zero low bits.
  std::uint64_t acc[L] = {};
  std::size_t filled = 0;
  std::size_t w = 0;
  for (int b = bits - 1; b >= 0; --b) {
    for (std::size_t i = 0; i < dims; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        acc[l] = (acc[l] << 1) | ((x[i * L + l] >> b) & 1u);
      }
      if (++filled == 64) {
        for (std::size_t l = 0; l < L; ++l) out[l * words + w] = acc[l];
        ++w;
        filled = 0;
      }
    }
  }
  if (filled > 0) {
    for (std::size_t l = 0; l < L; ++l) out[l * words + w] = acc[l] << (64 - filled);
  }
}

/// Skilling's TransposeToAxes, the inverse transform, for decode().
void transpose_to_axes(std::span<std::uint32_t> x, int bits) {
  const std::size_t n = x.size();
  const std::uint32_t m = std::uint32_t{2} << (bits - 1);
  // Gray decode by H ^ (H/2).
  std::uint32_t t = x[n - 1] >> 1;
  for (std::size_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (std::uint32_t q = 2; q != m; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t i = n; i-- > 0;) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t tt = (x[0] ^ x[i]) & p;
        x[0] ^= tt;
        x[i] ^= tt;
      }
    }
  }
}

/// The quantization grid of one bounds rectangle, checked once per call.
struct Grid {
  double lo[kMaxDims];
  double extent[kMaxDims];  ///< hi - lo in double; <= 0 maps the axis to cell 0
  double cells;             ///< 2^bits
  std::uint32_t last;       ///< cells - 1
};

Grid make_grid(const Rect& bounds, std::size_t dims, int bits) {
  PSB_REQUIRE(bounds.dims() == dims && bounds.hi.size() == dims,
              "bounds dimensionality mismatch");
  require_finite(bounds.lo, "bounds lo");
  require_finite(bounds.hi, "bounds hi");
  Grid g{};
  const std::uint32_t cells = std::uint32_t{1} << bits;  // bits <= 31
  g.cells = cells;
  g.last = cells - 1;
  for (std::size_t t = 0; t < dims; ++t) {
    g.lo[t] = bounds.lo[t];
    g.extent[t] = static_cast<double>(bounds.hi[t]) - bounds.lo[t];
  }
  return g;
}

/// Quantize L row-major points (rows[l * dims + t], all finite) onto the
/// grid, axis-major into x. Coordinates clamp to the bounds; the upper
/// boundary maps to the last cell.
template <std::size_t L>
void quantize(const Grid& g, const Scalar* rows, std::size_t dims, std::uint32_t* x) noexcept {
  for (std::size_t t = 0; t < dims; ++t) {
    const double lo = g.lo[t];
    const double extent = g.extent[t];
    const bool spans = extent > 0;
    for (std::size_t l = 0; l < L; ++l) {
      double frac = spans ? (static_cast<double>(rows[l * dims + t]) - lo) / extent : 0.0;
      frac = std::clamp(frac, 0.0, 1.0);
      // frac * cells <= 2^31, so the int64 conversion is exact and in range.
      const auto cell = static_cast<std::uint32_t>(static_cast<std::int64_t>(frac * g.cells));
      x[t * L + l] = std::min(cell, g.last);
    }
  }
}

}  // namespace

Encoder::Encoder(std::size_t dims, int bits_per_dim) : dims_(dims), bits_(bits_per_dim) {
  PSB_REQUIRE(dims >= 1 && dims <= kMaxDims, "dims must be in [1, 64]");
  PSB_REQUIRE(bits_per_dim >= 1 && bits_per_dim <= 31, "bits_per_dim must be in [1, 31]");
  words_ = (dims_ * static_cast<std::size_t>(bits_) + 63) / 64;
}

void Encoder::encode_axes(std::span<const std::uint32_t> axes,
                          std::span<std::uint64_t> out) const {
  PSB_REQUIRE(axes.size() == dims_, "axes dimensionality mismatch");
  PSB_REQUIRE(out.size() == words_, "output key width mismatch");
  const std::uint32_t limit = (std::uint32_t{1} << bits_) - 1;
  PSB_REQUIRE(std::all_of(axes.begin(), axes.end(), [&](std::uint32_t a) { return a <= limit; }),
              "axis value exceeds grid resolution");
  std::uint32_t x[kMaxDims] = {};
  std::copy(axes.begin(), axes.end(), x);
  transform<1>(x, dims_, bits_, words_, out.data());
}

void Encoder::decode(std::span<const std::uint64_t> key,
                     std::span<std::uint32_t> axes_out) const {
  PSB_REQUIRE(key.size() == words_, "key width mismatch");
  PSB_REQUIRE(axes_out.size() == dims_, "axes dimensionality mismatch");
  std::vector<std::uint32_t> x(dims_, 0);
  std::size_t bitpos = 0;
  for (int b = bits_ - 1; b >= 0; --b) {
    for (std::size_t i = 0; i < dims_; ++i, ++bitpos) {
      if ((key[bitpos / 64] >> (63 - bitpos % 64)) & 1u) {
        x[i] |= std::uint32_t{1} << b;
      }
    }
  }
  transpose_to_axes(x, bits_);
  std::copy(x.begin(), x.end(), axes_out.begin());
}

void Encoder::encode_point(std::span<const Scalar> p, const Rect& bounds,
                           std::span<std::uint64_t> out) const {
  PSB_REQUIRE(p.size() == dims_, "point dimensionality mismatch");
  PSB_REQUIRE(out.size() == words_, "output key width mismatch");
  const Grid grid = make_grid(bounds, dims_, bits_);
  require_finite(p, "point");
  std::uint32_t x[kMaxDims] = {};
  quantize<1>(grid, p.data(), dims_, x);
  transform<1>(x, dims_, bits_, words_, out.data());
}

std::vector<std::uint64_t> Encoder::encode_all(const PointSet& points) const {
  return encode_all(points, bounding_rect(points));
}

std::vector<std::uint64_t> Encoder::encode_all(const PointSet& points, const Rect& bounds) const {
  PSB_REQUIRE(points.dims() == dims_, "point set dimensionality mismatch");
  const Grid grid = make_grid(bounds, dims_, bits_);
  require_finite(points, "row");
  const std::size_t n = points.size();
  std::vector<std::uint64_t> keys(n * words_);
  const Scalar* rows = points.raw().data();
  std::uint32_t x[kMaxDims * kBlockLanes] = {};
  std::size_t i = 0;
  for (; i + kBlockLanes <= n; i += kBlockLanes) {
    quantize<kBlockLanes>(grid, rows + i * dims_, dims_, x);
    transform<kBlockLanes>(x, dims_, bits_, words_, keys.data() + i * words_);
  }
  for (; i < n; ++i) {
    quantize<1>(grid, rows + i * dims_, dims_, x);
    transform<1>(x, dims_, bits_, words_, keys.data() + i * words_);
  }
  return keys;
}

Rect bounding_rect(const PointSet& points) {
  PSB_REQUIRE(!points.empty(), "bounding_rect of an empty point set");
  Rect r = Rect::around(points[0]);
  for (std::size_t i = 1; i < points.size(); ++i) r.expand(points[i]);
  return r;
}

}  // namespace psb::hilbert
