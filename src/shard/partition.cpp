#include "shard/partition.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "hilbert/hilbert.hpp"
#include "simt/sort.hpp"

namespace psb::shard {

Partition hilbert_partition(const PointSet& points, std::size_t num_shards) {
  PSB_REQUIRE(num_shards > 0, "num_shards must be > 0");
  Partition out;
  out.shards.resize(num_shards);
  const std::size_t n = points.size();
  if (n == 0) return out;

  std::vector<PointId> order(n);
  std::iota(order.begin(), order.end(), PointId{0});
  if (num_shards > 1 && points.dims() <= 64) {
    const hilbert::Encoder enc(points.dims(), /*bits_per_dim=*/16);
    const std::vector<std::uint64_t> keys = enc.encode_all(points);
    order = simt::radix_sort_order(keys, enc.words_per_key());
  }

  const std::size_t base = n / num_shards;
  const std::size_t extra = n % num_shards;
  std::size_t pos = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t take = base + (s < extra ? 1 : 0);
    std::vector<PointId>& ids = out.shards[s];
    ids.assign(order.begin() + static_cast<std::ptrdiff_t>(pos),
               order.begin() + static_cast<std::ptrdiff_t>(pos + take));
    std::sort(ids.begin(), ids.end());
    pos += take;
  }
  return out;
}

}  // namespace psb::shard
