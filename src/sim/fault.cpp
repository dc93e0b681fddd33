#include "sim/fault.hpp"

#include <algorithm>

namespace aria::sim {

namespace {

// splitmix64 finalizer — stateless, so partition sides need no per-node
// registration and nodes joining mid-run (expansion) hash consistently.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlane::FaultPlane(FaultConfig config)
    : config_{std::move(config)},
      verdict_rng_{Rng{config_.seed}.fork(0xFA17u)} {
  // Resolve the message-class bias table to interned ids once. Interning
  // here is idempotent with the function-local statics the message structs
  // use — a name biased before its first wire appearance still lands on the
  // id that type will carry.
  for (const auto& b : config_.message_bias) {
    const MessageTypeId id = MessageTypeRegistry::intern(b.type);
    if (id.index() >= bias_.size()) {
      bias_.resize(id.index() + 1, {1.0, 1.0});
    }
    bias_[id.index()] = {b.loss_mult, b.dup_mult};
  }
}

bool FaultPlane::minority_side(std::size_t index, NodeId node) const {
  const std::uint64_t h = mix64(
      mix64(config_.seed ^ (static_cast<std::uint64_t>(index) + 1)) ^
      node.value());
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < FaultConfig::Partition::kFraction;
}

bool FaultPlane::partitioned(NodeId from, NodeId to, TimePoint now) const {
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    const auto& p = config_.partitions[i];
    const TimePoint start = TimePoint::origin() + p.start;
    if (now < start || now >= start + p.duration) continue;
    if (minority_side(i, from) != minority_side(i, to)) return true;
  }
  if (config_.region_count > 0) {
    for (const auto& rp : config_.region_partitions) {
      const TimePoint start = TimePoint::origin() + rp.start;
      if (now < start || now >= start + rp.duration) continue;
      // The same stateless `n mod R` partition the hierarchy plane uses
      // (overlay::region_of; recomputed here so sim stays below overlay in
      // the layering): a message is severed exactly when one endpoint is
      // inside the partitioned region and the other is not.
      const bool from_in = from.value() % config_.region_count == rp.region;
      const bool to_in = to.value() % config_.region_count == rp.region;
      if (from_in != to_in) return true;
    }
  }
  return false;
}

bool FaultPlane::churn_target(NodeId node) const {
  if (!config_.targeted_churn || config_.targeted_churn->ranks == 0) {
    return false;
  }
  const std::uint32_t r_count = config_.region_count;
  if (r_count == 0) return false;  // no hierarchy, no roles to target
  const auto& tc = *config_.targeted_churn;
  // Candidate k of region r is node r + k*R, so "rank < ranks" is exactly
  // "id < R * ranks" (mirrors overlay::is_aggregator_candidate).
  if (node.value() >= static_cast<std::uint64_t>(r_count) * tc.ranks) {
    return false;
  }
  if (tc.regions.empty()) return true;
  const auto region = static_cast<std::uint32_t>(node.value() % r_count);
  return std::find(tc.regions.begin(), tc.regions.end(), region) !=
         tc.regions.end();
}

std::optional<FaultConfig::Adversary::Role> FaultPlane::adversary_role(
    NodeId node) const {
  if (!config_.adversary) return std::nullopt;
  const auto& adv = *config_.adversary;
  if (adv.fraction <= 0.0 || adv.roles.empty()) return std::nullopt;
  // Same stateless designation scheme as minority_side: one hash decides
  // membership, a second (domain-separated) hash picks the role, so the
  // fraction draw and the role draw are independent.
  const std::uint64_t h = mix64(mix64(adv.seed ^ 0xAD5E11ULL) ^ node.value());
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= adv.fraction) return std::nullopt;
  const std::uint64_t r = mix64(mix64(adv.seed ^ 0xAD701EULL) ^ node.value());
  return adv.roles[r % adv.roles.size()];
}

std::pair<double, double> FaultPlane::biased_rates(MessageTypeId type) const {
  double loss = config_.loss;
  double dup = config_.duplicate;
  if (type.index() < bias_.size()) {
    const auto& [loss_mult, dup_mult] = bias_[type.index()];
    loss = std::min(1.0, loss * loss_mult);
    dup = std::min(1.0, dup * dup_mult);
  }
  return {loss, dup};
}

FaultPlane::Verdict FaultPlane::on_send(NodeId from, NodeId to,
                                        MessageTypeId type, TimePoint now) {
  Verdict v;
  if ((!config_.partitions.empty() || !config_.region_partitions.empty()) &&
      partitioned(from, to, now)) {
    v.drop = true;
    v.partitioned = true;
    ++counters_.partition_drops;
    return v;
  }
  const auto [loss, duplicate] = biased_rates(type);
  Rng& rng = verdict_rng(from);
  if (loss > 0.0 && rng.bernoulli(loss)) {
    v.drop = true;
    ++counters_.lost;
    return v;
  }
  if (duplicate > 0.0 && rng.bernoulli(duplicate)) {
    v.duplicate = true;
    v.duplicate_lag = rng.uniform_duration(Duration::millis(1),
                                           FaultConfig::kDuplicateLagMax);
    ++counters_.duplicated;
  }
  if (config_.spike > 0.0 && rng.bernoulli(config_.spike)) {
    v.extra_delay = rng.uniform_duration(FaultConfig::kSpikeMin,
                                         FaultConfig::kSpikeMax);
    ++counters_.delayed;
  }
  return v;
}

}  // namespace aria::sim
