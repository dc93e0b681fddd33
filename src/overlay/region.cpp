#include "overlay/region.hpp"

#include <algorithm>

namespace aria::overlay {

std::vector<NodeId> aggregator_candidates(std::uint32_t region,
                                          std::size_t region_count,
                                          std::size_t standby) {
  std::vector<NodeId> out;
  out.reserve(standby);
  for (std::size_t k = 0; k < standby; ++k) {
    out.push_back(aggregator_candidate(region, region_count, k));
  }
  return out;
}

std::size_t resolve_region_count(std::size_t requested, std::size_t node_count,
                                 std::size_t target_region_size,
                                 std::size_t standby) {
  if (node_count == 0) return 1;
  std::size_t r = requested;
  if (r == 0) {
    r = node_count / std::max<std::size_t>(1, target_region_size);
  }
  // Every region must seat its full candidate list among the initial ids.
  const std::size_t max_r = node_count / std::max<std::size_t>(1, standby);
  r = std::min(r, max_r);
  return std::max<std::size_t>(1, r);
}

RegionDigest aggregate_loads(std::uint32_t region, std::uint64_t epoch,
                             const std::vector<MemberLoad>& loads) {
  RegionDigest d;
  d.region = region;
  d.epoch = epoch;
  for (const MemberLoad& m : loads) {
    ++d.members;
    if (m.idle) ++d.idle;
    d.backlog_seconds += m.backlog_seconds;
    d.queue_len += m.queue_len;
  }
  return d;
}

DigestBreaches conservation_breaches(const RegionDigest& digest,
                                     std::size_t region_count,
                                     std::size_t node_count) {
  DigestBreaches b;
  b.bad_region = region_count > 0 && digest.region >= region_count;
  b.overcount = region_count > 0 && node_count > 0 && !b.bad_region &&
                digest.members >
                    region_population(node_count, region_count, digest.region);
  b.idle_overcount = digest.idle > digest.members;
  b.negative_backlog = digest.backlog_seconds < 0.0;
  return b;
}

}  // namespace aria::overlay
