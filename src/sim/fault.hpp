// Deterministic fault injection for the simulated network and grid.
//
// The FaultPlane decides, per message and per node, which adversities a run
// suffers: probabilistic loss and duplication, latency spikes, scheduled
// network partitions with heal times, and node crash/restart schedules
// (churn). Every decision is drawn from a dedicated RNG stream seeded
// independently of the main simulation seed, so
//
//   * a run with faults disabled is byte-identical to a build without the
//     fault plane (Network::send never consults it), and
//   * a (scenario seed, fault seed) pair reproduces the exact same fault
//     schedule — fault scenarios are as replayable as fault-free ones.
//
// The plane only *decides*; enforcement lives where the state is:
// Network::send consults on_send() for message faults, GridSimulation
// drives crash/restart schedules through AriaNode::crash()/restart().
// See docs/faults.md for the full model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/message_types.hpp"

namespace aria::sim {

/// Everything injectable in one run. Defaults are all-off; `enabled` is the
/// master switch the hot path tests first.
struct FaultConfig {
  bool enabled{false};
  /// Seed of the fault decision stream. Engines mix in the per-run seed
  /// (see GridSimulation) so repeated runs see different fault schedules
  /// while staying individually reproducible.
  std::uint64_t seed{0};

  // --- per-message faults ----------------------------------------------
  /// Probability that a sent message never arrives.
  double loss{0.0};
  /// Probability that a message is delivered twice (the copy arrives up to
  /// `kDuplicateLagMax` after the original).
  double duplicate{0.0};
  static constexpr Duration kDuplicateLagMax = Duration::millis(500);
  /// Probability of a link-level latency spike, adding a uniform extra
  /// delay in [kSpikeMin, kSpikeMax] on top of the latency model.
  double spike{0.0};
  static constexpr Duration kSpikeMin = Duration::millis(200);
  static constexpr Duration kSpikeMax = Duration::seconds(2);

  // --- churn (node crash/restart schedules) -----------------------------
  struct Churn {
    /// Mean time a churning node stays up between crashes; actual spans
    /// are jittered uniformly in [mean/2, 3*mean/2].
    Duration mean_uptime{Duration::hours(2)};
    /// Mean outage length, jittered the same way.
    Duration mean_downtime{Duration::minutes(10)};
    /// Fraction of the initial grid subject to churn (drawn per node).
    static constexpr double kNodeFraction = 0.2;
    /// Churn starts after this offset (lets the overlay converge first).
    Duration start{Duration::minutes(30)};
  };
  std::optional<Churn> churn{};

  // --- targeted churn (role-aimed crash schedules) ------------------------
  /// Crash/restart schedules aimed at the hierarchy's interior: aggregator
  /// candidates of rank < `ranks` (designation is stateless — candidate k of
  /// region r is node r + k*R — so targeting needs no overlay state). The
  /// adversarial counterpart of `churn`, which picks victims uniformly.
  /// Timing draws come from a stream disjoint from the untargeted one
  /// (`targeted_rng()`), so adding a targeted plan never shifts existing
  /// churn schedules.
  struct TargetedChurn {
    /// Candidate ranks to attack (0 = plan inert; 1 = primaries only;
    /// HierarchyParams::kAggStandby = the whole candidate list of every
    /// targeted region).
    std::uint32_t ranks{0};
    /// Restrict to these region ids; empty = every region.
    std::vector<std::uint32_t> regions{};
    Duration mean_uptime{Duration::minutes(30)};
    Duration mean_downtime{Duration::minutes(10)};
    Duration start{Duration::minutes(30)};
  };
  std::optional<TargetedChurn> targeted_churn{};

  // --- partitions --------------------------------------------------------
  /// A pairwise/group partition: for [start, start + duration) the grid is
  /// split in two sides (a stateless per-node hash puts ~`kFraction` of the
  /// nodes on the minority side); messages crossing sides are dropped.
  /// Windows may overlap; a message is blocked if any active window
  /// separates the endpoints.
  struct Partition {
    Duration start{};
    Duration duration{};
    static constexpr double kFraction = 0.5;
  };
  std::vector<Partition> partitions{};

  /// A region-aligned partition: for [start, start + duration) region
  /// `region` — its members *and* its aggregator candidates, which share
  /// the `n mod R` partition — is severed from the rest of the grid; the
  /// window's end is the heal time. Checked statelessly against
  /// `region_count` (the resolved R, written by the engine at build time),
  /// so mid-run joiners land on a deterministic side. Inert when
  /// `region_count` is 0 (hierarchy off).
  struct RegionPartition {
    std::uint32_t region{0};
    Duration start{};
    Duration duration{};
  };
  std::vector<RegionPartition> region_partitions{};
  /// Resolved region count backing region_partitions and targeted_churn.
  /// Filled in by GridSimulation::build() after region auto-sizing; 0 when
  /// the hierarchy plane is off (region-targeted faults are then inert).
  std::uint32_t region_count{0};

  // --- adversarial nodes (docs/adversary.md) ------------------------------
  /// Byzantine misbehavior: a deterministic fraction of the grid *lies*
  /// instead of crashing. Role designation is a stateless hash of
  /// (adversary seed, node id) — like `minority_side` — so it needs no RNG
  /// draws, survives expansion joiners, and the engine, the nodes, and the
  /// auditor all agree on who misbehaves without sharing state. The plane
  /// only designates; the lies themselves live in AriaNode (the protocol
  /// knows what to lie about), keyed off `FaultPlane::adversary_role`.
  struct Adversary {
    /// Fraction of nodes acting adversarially (drawn statelessly per node).
    double fraction{0.0};
    /// Magnitude of every lie: underbidders quote cost / lie_factor,
    /// free-riders advertise held jobs at cost / lie_factor, digest
    /// poisoners inflate member counts by it.
    double lie_factor{4.0};
    enum class Role {
      kUnderbid,   // ACCEPT quotes scaled down by lie_factor
      kBlackhole,  // ACKs ASSIGNs, then silently drops the job
      kFreeride,   // INFORM-advertises held jobs at deflated cost (traps them)
      kPoison,     // aggregator: REGION_DIGESTs claim an idle, inflated region
    };
    /// Roles in play; a designated adversary picks one by a second stateless
    /// hash. Empty = plan inert (no adversaries regardless of fraction).
    std::vector<Role> roles{};
    /// Seed of the designation hash. 0 = the engine derives one from the
    /// (already run-mixed) fault seed, so repeated runs draw different
    /// adversary sets while staying individually reproducible.
    std::uint64_t seed{0};
  };
  std::optional<Adversary> adversary{};

  // --- message-class fault bias ------------------------------------------
  /// Loss/duplication multipliers keyed on a message type name, resolved to
  /// interned MessageTypeIds when the plane is built. A bias lets one
  /// message class be starved independently of the rest — e.g. multiplying
  /// REGION_DIGEST loss 25x while job traffic keeps the base rate. A
  /// multiplier of 1 leaves the draw sequence bit-identical to an unbiased
  /// run; a multiplier of 0 makes that class's fault draw-free (the same
  /// zero-probability contract as the base rates).
  struct MessageBias {
    std::string type;  // message type name (e.g. "REGION_DIGEST")
    double loss_mult{1.0};
    double dup_mult{1.0};
  };
  std::vector<MessageBias> message_bias{};

  bool any_message_faults() const {
    return enabled &&
           (loss > 0.0 || duplicate > 0.0 || spike > 0.0 ||
            !partitions.empty() || !region_partitions.empty());
  }
};

class FaultPlane {
 public:
  /// Outcome of one send. `drop` covers both random loss and partition
  /// blocking (`partitioned` tells them apart for the counters).
  struct Verdict {
    bool drop{false};
    bool partitioned{false};
    bool duplicate{false};
    Duration duplicate_lag{};
    Duration extra_delay{};
  };

  /// Injected-event totals, for reconciling metrics against the schedule
  /// (fields: ARIA_FAULT_COUNTERS, common/counters.hpp).
  struct Counters {
    ARIA_FAULT_COUNTERS(ARIA_COUNTER_FIELD)

    std::uint64_t injected_drops() const { return lost + partition_drops; }

    /// Field-wise fold by each entry's agg — used after a sharded run to
    /// fold the per-shard planes' message-fault tallies into the engine
    /// plane's counters (which alone hold the churn-driven crash/restart
    /// counts).
    void absorb(const Counters& other) { counters::fold_fault(*this, other); }
  };

  explicit FaultPlane(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// Cheap master-switch test; Network::send short-circuits on this.
  bool active() const { return config_.enabled; }

  /// Draws the fault verdict for one message of interned type `type`.
  /// Deterministic in call order for a fixed fault seed. Zero-probability
  /// faults consume no RNG draws, so an enabled plane with all rates at
  /// zero behaves identically to a disabled one — and a message-class bias
  /// multiplier of 1 (or no bias at all) leaves the draw sequence
  /// bit-identical to an unbiased plane.
  Verdict on_send(NodeId from, NodeId to, MessageTypeId type, TimePoint now);

  /// True when an active partition window (hash-sliced or region-aligned)
  /// separates `from` and `to`.
  bool partitioned(NodeId from, NodeId to, TimePoint now) const;

  /// Which side of partition `index` a node falls on (stateless hash of
  /// (fault seed, partition index, node); true = minority side).
  bool minority_side(std::size_t index, NodeId node) const;

  /// Is `node` a victim of the targeted churn plan? Pure function of the
  /// config (candidate designation is stateless), so the engine's schedule
  /// builder and tests agree without sharing state.
  bool churn_target(NodeId node) const;

  /// `node`'s adversary role, if it is one. Pure function of the config
  /// (stateless hash, no RNG draws), so nodes cache it at construction, the
  /// engine counts adversaries, and the auditor's expected-adversary
  /// predicate all agree. nullopt when the plan is absent/inert or the node
  /// is honest.
  std::optional<FaultConfig::Adversary::Role> adversary_role(
      NodeId node) const;

  /// Effective (loss, duplicate) probabilities for a message type after the
  /// class bias; equals the base rates for unbiased types.
  std::pair<double, double> biased_rates(MessageTypeId type) const;

  /// Independent stream for churn schedules, so message faults and churn
  /// timing never perturb each other.
  Rng churn_rng() const { return Rng{config_.seed}.fork(0xC0FFu); }

  /// Independent stream for the *targeted* churn plan: adding a targeted
  /// schedule must never shift the untargeted one (and vice versa).
  Rng targeted_rng() const { return Rng{config_.seed}.fork(0xA66Cu); }

  // --- lifecycle accounting (incremented by the churn driver) ------------
  void count_crash() { ++counters_.crashes; }
  void count_targeted_crash() {
    ++counters_.crashes;
    ++counters_.targeted_crashes;
  }
  void count_restart() { ++counters_.restarts; }

  const Counters& counters() const { return counters_; }

  /// Folds a peer plane's counters into this one (sharded-run merge).
  void absorb_counters(const Counters& other) { counters_.absorb(other); }

 private:
  /// Message-fault verdicts draw from a per-sender stream (forked on first
  /// use into a NodeId-indexed table),
  /// not one shared stream — the same PDES determinism-contract rule as
  /// Network's jitter streams (docs/pdes.md): each sender's verdict sequence
  /// must be a function of its own send order, not the global interleaving.
  /// The double fork (0xFA17, then the node id) keeps every per-sender
  /// stream disjoint from churn_rng()/targeted_rng() even when node ids
  /// collide with those tags' values.
  Rng& verdict_rng(NodeId from) { return verdict_rng_.at(from.value()); }

  FaultConfig config_;
  Counters counters_;
  ForkTable verdict_rng_;
  /// (loss_mult, dup_mult) per interned message-type index; types beyond
  /// the vector (or interned later without a bias entry) are unbiased.
  std::vector<std::pair<double, double>> bias_;
};

}  // namespace aria::sim
