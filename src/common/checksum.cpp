#include "common/checksum.hpp"

#include <array>

namespace psb {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320U;  // reflected IEEE 802.3

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic bytewise table; tables[j][i]
/// advances tables[j-1][i] by one more zero byte, so eight table lookups
/// consume eight input bytes at once with exactly the bytewise result.
constexpr Tables make_tables() noexcept {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1U) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t i = 0; i < 256; ++i) t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFU];
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load, independent of host byte order.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^ kTables[5][(lo >> 16) & 0xFFU] ^
        kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
        kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
  }
  for (; bytes > 0; --bytes, ++p) c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

}  // namespace psb
