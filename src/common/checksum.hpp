// CRC32 (IEEE 802.3 polynomial, reflected, slicing-by-8): the integrity
// primitive behind the serialization envelope, per-node integrity words, the
// snapshot span-table word and the implicit layout's segment words. CRC32
// detects every single-bit and single-byte error, which is exactly the fault
// class the corruption fuzz tests sweep. Values equal the classic bytewise
// table loop's (common_test pins them against it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace psb {

/// Incremental CRC32 over a byte range; chain calls by passing the previous
/// return value as `seed` (start from 0).
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0) noexcept;

inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) noexcept {
  return crc32(s.data(), s.size(), seed);
}

/// Accumulator for hashing a sequence of typed fields (the per-node integrity
/// word mixes sphere fields of several types).
class Crc32 {
 public:
  Crc32& update(const void* data, std::size_t bytes) noexcept {
    state_ = crc32(data, bytes, state_);
    return *this;
  }
  template <typename T>
  Crc32& update_value(const T& v) noexcept {
    return update(&v, sizeof(T));
  }
  std::uint32_t value() const noexcept { return state_; }

 private:
  std::uint32_t state_ = 0;
};

}  // namespace psb
