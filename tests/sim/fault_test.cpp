#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace aria::sim {
namespace {

using namespace aria::literals;

struct CloneableMsg final : Message {
  int payload;
  explicit CloneableMsg(int p) : payload{p} {}
  std::size_t wire_size() const override { return 100; }
  std::unique_ptr<Message> clone() const override {
    return std::make_unique<CloneableMsg>(*this);
  }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("CLONEABLE");
    return id;
  }
};

struct OpaqueMsg final : Message {
  std::size_t wire_size() const override { return 100; }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("OPAQUE");
    return id;
  }
};

// Interned id the direct on_send tests pass for an unbiased message class.
MessageTypeId test_type() {
  static const MessageTypeId id = MessageTypeRegistry::intern("FAULT_TEST");
  return id;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(FaultPlane, SameSeedSameVerdictSequence) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.loss = 0.2;
  cfg.duplicate = 0.1;
  cfg.spike = 0.1;

  FaultPlane a{cfg}, b{cfg};
  for (int i = 0; i < 2000; ++i) {
    const NodeId from{static_cast<std::uint32_t>(i % 7)};
    const NodeId to{static_cast<std::uint32_t>(i % 11)};
    const TimePoint now = TimePoint::origin() + Duration::seconds(i);
    const auto va = a.on_send(from, to, test_type(), now);
    const auto vb = b.on_send(from, to, test_type(), now);
    ASSERT_EQ(va.drop, vb.drop) << i;
    ASSERT_EQ(va.duplicate, vb.duplicate) << i;
    ASSERT_EQ(va.duplicate_lag, vb.duplicate_lag) << i;
    ASSERT_EQ(va.extra_delay, vb.extra_delay) << i;
  }
  EXPECT_EQ(a.counters().lost, b.counters().lost);
  EXPECT_EQ(a.counters().duplicated, b.counters().duplicated);
  EXPECT_EQ(a.counters().delayed, b.counters().delayed);
}

TEST(FaultPlane, DifferentSeedsDiverge) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.loss = 0.3;
  cfg.seed = 1;
  FaultPlane a{cfg};
  cfg.seed = 2;
  FaultPlane b{cfg};
  int disagreements = 0;
  for (int i = 0; i < 500; ++i) {
    const auto va = a.on_send(NodeId{1}, NodeId{2}, test_type(), TimePoint::origin());
    const auto vb = b.on_send(NodeId{1}, NodeId{2}, test_type(), TimePoint::origin());
    if (va.drop != vb.drop) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultPlane, LossRateIsRoughlyHonored) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.loss = 0.1;
  FaultPlane plane{cfg};
  const int n = 20000;
  int dropped = 0;
  for (int i = 0; i < n; ++i) {
    if (plane.on_send(NodeId{1}, NodeId{2}, test_type(), TimePoint::origin()).drop) {
      ++dropped;
    }
  }
  const double rate = static_cast<double>(dropped) / n;
  EXPECT_NEAR(rate, 0.1, 0.02);
  EXPECT_EQ(plane.counters().lost, static_cast<std::uint64_t>(dropped));
}

TEST(FaultPlane, ZeroRatesProduceNoFaults) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  FaultPlane plane{cfg};
  for (int i = 0; i < 1000; ++i) {
    const auto v = plane.on_send(NodeId{1}, NodeId{2}, test_type(), TimePoint::origin());
    ASSERT_FALSE(v.drop);
    ASSERT_FALSE(v.duplicate);
    ASSERT_TRUE(v.extra_delay.is_zero());
  }
  EXPECT_EQ(plane.counters().injected_drops(), 0u);
}

// ---------------------------------------------------------------------------
// Partitions
// ---------------------------------------------------------------------------

FaultConfig partition_config() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 11;
  cfg.partitions.push_back(
      FaultConfig::Partition{.start = 10_min, .duration = 5_min});
  return cfg;
}

TEST(FaultPlane, PartitionSidesAreDeterministicAndBothPopulated) {
  FaultPlane a{partition_config()}, b{partition_config()};
  int minority = 0;
  for (std::uint32_t n = 0; n < 200; ++n) {
    ASSERT_EQ(a.minority_side(0, NodeId{n}), b.minority_side(0, NodeId{n}));
    if (a.minority_side(0, NodeId{n})) ++minority;
  }
  // fraction 0.5: both sides should hold a healthy share of 200 nodes.
  EXPECT_GT(minority, 50);
  EXPECT_LT(minority, 150);
}

TEST(FaultPlane, PartitionBlocksOnlyCrossSideAndOnlyDuringWindow) {
  FaultPlane plane{partition_config()};
  // Find one node on each side.
  NodeId in_minority{}, in_majority{};
  for (std::uint32_t n = 0; n < 200; ++n) {
    if (plane.minority_side(0, NodeId{n})) {
      in_minority = NodeId{n};
    } else {
      in_majority = NodeId{n};
    }
    if (in_minority.valid() && in_majority.valid()) break;
  }
  ASSERT_TRUE(in_minority.valid() && in_majority.valid());

  const TimePoint before = TimePoint::origin() + 9_min;
  const TimePoint inside = TimePoint::origin() + 12_min;
  const TimePoint after = TimePoint::origin() + 16_min;

  EXPECT_FALSE(plane.partitioned(in_minority, in_majority, before));
  EXPECT_TRUE(plane.partitioned(in_minority, in_majority, inside));
  EXPECT_TRUE(plane.partitioned(in_majority, in_minority, inside));
  EXPECT_FALSE(plane.partitioned(in_minority, in_majority, after));
  // Same side passes even mid-window.
  EXPECT_FALSE(plane.partitioned(in_majority, in_majority, inside));

  const auto v = plane.on_send(in_minority, in_majority, test_type(), inside);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  EXPECT_EQ(plane.counters().partition_drops, 1u);
  EXPECT_EQ(plane.counters().lost, 0u);
}

// ---------------------------------------------------------------------------
// Through the network
// ---------------------------------------------------------------------------

std::unique_ptr<Network> make_net(Simulator& sim) {
  return std::make_unique<Network>(
      sim, std::make_unique<FixedLatencyModel>(10_ms), Rng{1});
}

TEST(NetworkFaults, InjectedLossCountsAsFaultedNotDropped) {
  Simulator sim;
  auto net = make_net(sim);
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
  cfg.loss = 1.0;
  FaultPlane plane{cfg};
  net->set_fault_plane(&plane);

  int received = 0;
  net->attach(NodeId{2}, [&](Envelope) { ++received; });
  net->send(NodeId{1}, NodeId{2}, std::make_unique<CloneableMsg>(0));
  // Injected loss is decided at send time, before the destination is even
  // examined — so it also claims messages that would have dropped
  // organically at delivery.
  net->send(NodeId{1}, NodeId{9}, std::make_unique<CloneableMsg>(0));
  // Only with the plane detached does the unattached destination produce an
  // organic drop at delivery time.
  net->set_fault_plane(nullptr);
  net->send(NodeId{1}, NodeId{9}, std::make_unique<CloneableMsg>(0));
  sim.run();

  EXPECT_EQ(received, 0);
  EXPECT_EQ(net->faulted_messages(), 2u);
  EXPECT_EQ(net->dropped_messages(), 1u);
  EXPECT_EQ(net->traffic().faulted("CLONEABLE"), 2u);
  EXPECT_EQ(net->traffic().drops("CLONEABLE"), 1u);
  // All three sends were metered: bytes hit the wire either way.
  EXPECT_EQ(net->traffic().of("CLONEABLE").messages, 3u);
}

TEST(NetworkFaults, DuplicationDeliversTwiceAndLagsTheCopy) {
  Simulator sim;
  auto net = make_net(sim);
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.duplicate = 1.0;
  FaultPlane plane{cfg};
  net->set_fault_plane(&plane);

  std::vector<TimePoint> deliveries;
  net->attach(NodeId{2}, [&](Envelope env) {
    EXPECT_EQ(dynamic_cast<const CloneableMsg&>(*env.message).payload, 42);
    deliveries.push_back(sim.now());
  });
  net->send(NodeId{1}, NodeId{2}, std::make_unique<CloneableMsg>(42));
  sim.run();

  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], TimePoint::origin() + 10_ms);
  EXPECT_GT(deliveries[1], deliveries[0]);
  EXPECT_EQ(net->counters().duplicated_messages, 1u);
  EXPECT_EQ(net->delivered_messages(), 2u);
  // The metered send count stays 1: duplication is a delivery artifact.
  EXPECT_EQ(net->traffic().of("CLONEABLE").messages, 1u);
}

TEST(NetworkFaults, NonCloneableMessagesAreNeverDuplicated) {
  Simulator sim;
  auto net = make_net(sim);
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.duplicate = 1.0;
  FaultPlane plane{cfg};
  net->set_fault_plane(&plane);

  int received = 0;
  net->attach(NodeId{2}, [&](Envelope) { ++received; });
  net->send(NodeId{1}, NodeId{2}, std::make_unique<OpaqueMsg>());
  sim.run();

  EXPECT_EQ(received, 1);
  EXPECT_EQ(net->counters().duplicated_messages, 0u);
}

TEST(NetworkFaults, SpikeDelaysDelivery) {
  Simulator sim;
  auto net = make_net(sim);
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 6;
  cfg.spike = 1.0;
  FaultPlane plane{cfg};
  net->set_fault_plane(&plane);

  TimePoint delivered;
  net->attach(NodeId{2}, [&](Envelope) { delivered = sim.now(); });
  net->send(NodeId{1}, NodeId{2}, std::make_unique<CloneableMsg>(0));
  sim.run();

  // The extra delay is uniform in [kSpikeMin, kSpikeMax] = [200 ms, 2 s].
  static_assert(FaultConfig::kSpikeMin == 200_ms);
  static_assert(FaultConfig::kSpikeMax == 2_s);
  EXPECT_GE(delivered, TimePoint::origin() + 10_ms + FaultConfig::kSpikeMin);
  EXPECT_LE(delivered, TimePoint::origin() + 10_ms + FaultConfig::kSpikeMax);
  EXPECT_EQ(plane.counters().delayed, 1u);
}

TEST(NetworkFaults, EnabledPlaneWithZeroRatesIsByteIdenticalToNoPlane) {
  // The regression the whole design hangs on: an attached-but-quiet plane
  // must not shift a single delivery, because zero-probability faults
  // consume no RNG draws.
  auto deliveries_with = [](FaultPlane* plane) {
    Simulator sim;
    Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{42}};
    if (plane != nullptr) net.set_fault_plane(plane);
    std::vector<std::int64_t> times;
    net.attach(NodeId{2}, [&](Envelope) {
      times.push_back(sim.now().count_micros());
    });
    for (int i = 0; i < 500; ++i) {
      net.send(NodeId{1}, NodeId{2}, std::make_unique<CloneableMsg>(i));
    }
    sim.run();
    return times;
  };

  FaultConfig cfg;
  cfg.enabled = true;  // master switch on, every rate zero
  cfg.seed = 1234;
  FaultPlane quiet{cfg};

  EXPECT_EQ(deliveries_with(nullptr), deliveries_with(&quiet));
  EXPECT_EQ(quiet.counters().injected_drops(), 0u);
}

TEST(TrafficLedgerFaults, FaultedAndDropsStaySeparate) {
  TrafficLedger ledger;
  ledger.record("X", 10);
  ledger.record_drop("X");
  ledger.record_fault("X");
  ledger.record_fault("X");
  EXPECT_EQ(ledger.drops("X"), 1u);
  EXPECT_EQ(ledger.faulted("X"), 2u);
  EXPECT_EQ(ledger.total_drops(), 1u);
  EXPECT_EQ(ledger.total_faulted(), 2u);

  TrafficLedger other;
  other.record_fault("X");
  ledger.merge(other);
  EXPECT_EQ(ledger.faulted("X"), 3u);
  EXPECT_EQ(ledger.drops("X"), 1u);
}

}  // namespace
}  // namespace aria::sim
