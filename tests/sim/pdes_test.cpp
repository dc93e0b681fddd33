// Unit tests for the sharded-PDES building blocks (docs/pdes.md): the SPSC
// channel's FIFO-across-spill contract, the stateless shard map, the
// kernel's keyed same-instant ordering, the canonical send journal, the
// conservative executor's ordering invariant on toy simulations, and the
// shard recorders' canonical replay order.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "common/spsc.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/pdes/channel.hpp"
#include "sim/pdes/executor.hpp"
#include "sim/pdes/journal.hpp"
#include "sim/pdes/shard_map.hpp"
#include "sim/simulator.hpp"
#include "workload/replay.hpp"

namespace aria::sim::pdes {
namespace {

using aria::literals::operator""_ms;
using aria::literals::operator""_s;
using aria::literals::operator""_us;

// ---------------------------------------------------------------------------
// SpscChannel
// ---------------------------------------------------------------------------

TEST(SpscChannel, DrainsInPushOrder) {
  SpscChannel<int> ch{8};
  for (int i = 0; i < 6; ++i) ch.push(i);
  std::vector<int> got;
  EXPECT_EQ(ch.drain([&](int&& v) { got.push_back(v); }), 6u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(ch.empty());
}

TEST(SpscChannel, OverflowPreservesFifoAcrossTheSpill) {
  SpscChannel<int> ch{4};  // ring capacity 4
  // 10 pushes: 4 fit the ring, 6 spill. Order must survive the boundary.
  for (int i = 0; i < 10; ++i) ch.push(i);
  EXPECT_EQ(ch.overflow_count(), 6u);
  std::vector<int> got;
  EXPECT_EQ(ch.drain([&](int&& v) { got.push_back(v); }), 10u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SpscChannel, OnceOverflowedLaterPushesFollowUntilDrain) {
  SpscChannel<int> ch{2};
  for (int i = 0; i < 3; ++i) ch.push(i);  // 2 ring + 1 overflow
  // The ring has space again only logically — push 3 must chase push 2 into
  // the overflow lane or it would overtake it at drain time.
  ch.push(3);
  std::vector<int> got;
  ch.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  // After a drain the fast path is restored.
  ch.push(42);
  EXPECT_EQ(ch.overflow_count(), 2u);
  got.clear();
  ch.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST(SpscChannel, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscChannel<int>{5}.ring_capacity(), 8u);
  EXPECT_EQ(SpscChannel<int>{1}.ring_capacity(), 2u);
}

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMap, FlatPartitionRoundRobinsNodeIds) {
  const ShardMap map{.shards = 4, .region_count = 0};
  EXPECT_EQ(map.shard_of(NodeId{0}), 0u);
  EXPECT_EQ(map.shard_of(NodeId{5}), 1u);
  EXPECT_EQ(map.shard_of(NodeId{7}), 3u);
}

TEST(ShardMap, RegionAlignedPartitionKeepsARegionOnOneShard) {
  const ShardMap map{.shards = 3, .region_count = 8};
  // All members of region r = id mod 8 must land on the same shard.
  for (std::uint32_t r = 0; r < 8; ++r) {
    const std::size_t owner = map.shard_of(NodeId{r});
    for (std::uint32_t id = r; id < 200; id += 8) {
      EXPECT_EQ(map.shard_of(NodeId{id}), owner) << "node " << id;
    }
  }
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const ShardMap map{.shards = 1, .region_count = 6};
  for (std::uint32_t id = 0; id < 64; ++id) {
    EXPECT_EQ(map.shard_of(NodeId{id}), 0u);
  }
}

// ---------------------------------------------------------------------------
// Keyed same-instant ordering (Simulator::schedule_at_keyed)
// ---------------------------------------------------------------------------

TEST(KeyedScheduling, SameInstantEventsFireInKeyOrderNotScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_micros(100);
  // Scheduled high key first: scheduling order must lose to key order.
  sim.schedule_at_keyed(t, 30, [&] { order.push_back(30); });
  sim.schedule_at_keyed(t, 10, [&] { order.push_back(10); });
  sim.schedule_at_keyed(t, 20, [&] { order.push_back(20); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(KeyedScheduling, KeyZeroFiresBeforeAnyKeyedDelivery) {
  Simulator sim;
  std::vector<std::string> order;
  const TimePoint t = TimePoint::from_micros(50);
  sim.schedule_at_keyed(t, 7, [&] { order.push_back("delivery"); });
  sim.schedule_at(t, [&] { order.push_back("timer"); });  // key 0, later seq
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"timer", "delivery"}));
}

TEST(KeyedScheduling, TimeStillDominatesKey) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at_keyed(TimePoint::from_micros(200), 1,
                        [&] { order.push_back(2); });
  sim.schedule_at_keyed(TimePoint::from_micros(100), 99,
                        [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(KeyedScheduling, EqualKeysFallBackToScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_micros(10);
  sim.schedule_at_keyed(t, 5, [&] { order.push_back(1); });
  sim.schedule_at_keyed(t, 5, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Network delivery keys
// ---------------------------------------------------------------------------

struct Ping final : Message {
  static MessageTypeId type() {
    static const MessageTypeId id = MessageTypeRegistry::intern("PDES_PING");
    return id;
  }
  std::size_t wire_size() const override { return 8; }
  MessageTypeId type_id() const override { return type(); }
};

TEST(DeliveryKeys, SameInstantDeliveriesFireInSenderSeqOrder) {
  // Two senders whose messages land on the same recipient at the same
  // microsecond (fixed latency, simultaneous sends). Whatever order the
  // sends were issued in, delivery order must be (sender id, send seq).
  Simulator sim;
  Network net{sim, std::make_unique<FixedLatencyModel>(5_ms), Rng{1}};
  std::vector<std::uint32_t> arrivals;
  net.attach(NodeId{1}, [](Envelope) {});
  net.attach(NodeId{2}, [](Envelope) {});
  net.attach(NodeId{9}, [&](Envelope e) { arrivals.push_back(e.from.value()); });
  // Higher-id sender sends first; key order must still deliver n1 first.
  sim.schedule_at(TimePoint::from_micros(100), [&] {
    net.send(NodeId{2}, NodeId{9}, std::make_unique<Ping>());
    net.send(NodeId{1}, NodeId{9}, std::make_unique<Ping>());
  });
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<std::uint32_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// EventJournal / merge_journals / first_divergence
// ---------------------------------------------------------------------------

JournalEntry entry(std::int64_t sent_us, std::uint32_t from, std::uint32_t to,
                   std::uint64_t seq) {
  JournalEntry e;
  e.sent = TimePoint::from_micros(sent_us);
  e.from = NodeId{from};
  e.to = NodeId{to};
  e.type = Ping::type();
  e.deliver = TimePoint::from_micros(sent_us + 5000);
  e.sender_seq = seq;
  return e;
}

TEST(Journal, RecordsEverySendWithPerSenderSeq) {
  Simulator sim;
  Network net{sim, std::make_unique<FixedLatencyModel>(5_ms), Rng{1}};
  EventJournal journal;
  net.set_tap(&journal, 1);
  net.attach(NodeId{1}, [](Envelope) {});
  net.attach(NodeId{2}, [](Envelope) {});
  sim.schedule_at(TimePoint::from_micros(10), [&] {
    net.send(NodeId{1}, NodeId{2}, std::make_unique<Ping>());
    net.send(NodeId{1}, NodeId{2}, std::make_unique<Ping>());
    net.send(NodeId{2}, NodeId{1}, std::make_unique<Ping>());
  });
  sim.run();
  ASSERT_EQ(journal.entries().size(), 3u);
  EXPECT_EQ(journal.entries()[0].sender_seq, 0u);
  EXPECT_EQ(journal.entries()[1].sender_seq, 1u);  // same sender, next seq
  EXPECT_EQ(journal.entries()[2].sender_seq, 0u);  // new sender, fresh seq
  EXPECT_FALSE(journal.entries()[0].faulted);
  EXPECT_EQ(journal.entries()[0].deliver - journal.entries()[0].sent, 5_ms);
}

TEST(Journal, MergeSortsCanonicallyAcrossShards) {
  // Two "shards" whose interleaving differs from canonical order.
  EventJournal a;
  EventJournal b;
  Simulator sim_a;
  Simulator sim_b;
  Network net_a{sim_a, std::make_unique<FixedLatencyModel>(5_ms), Rng{1}};
  Network net_b{sim_b, std::make_unique<FixedLatencyModel>(5_ms), Rng{1}};
  net_a.set_tap(&a, 1);
  net_b.set_tap(&b, 1);
  net_a.attach(NodeId{4}, [](Envelope) {});
  net_b.attach(NodeId{3}, [](Envelope) {});
  // Shard A: node 4 sends at t=20. Shard B: node 3 sends at t=20 and t=10.
  sim_a.schedule_at(TimePoint::from_micros(20), [&] {
    net_a.send(NodeId{4}, NodeId{4}, std::make_unique<Ping>());
  });
  sim_b.schedule_at(TimePoint::from_micros(10), [&] {
    net_b.send(NodeId{3}, NodeId{3}, std::make_unique<Ping>());
  });
  sim_b.schedule_at(TimePoint::from_micros(20), [&] {
    net_b.send(NodeId{3}, NodeId{3}, std::make_unique<Ping>());
  });
  sim_a.run();
  sim_b.run();
  const auto merged = merge_journals({&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  // (sent, from, seq): t=10 n3 first, then t=20 n3, then t=20 n4.
  EXPECT_EQ(merged[0].sent.count_micros(), 10);
  EXPECT_EQ(merged[0].from, NodeId{3});
  EXPECT_EQ(merged[1].sent.count_micros(), 20);
  EXPECT_EQ(merged[1].from, NodeId{3});
  EXPECT_EQ(merged[2].from, NodeId{4});
}

TEST(Divergence, IdenticalJournalsReportNothing) {
  const std::vector<JournalEntry> j{entry(10, 1, 2, 0), entry(20, 1, 3, 1)};
  EXPECT_FALSE(first_divergence(j, j).has_value());
}

TEST(Divergence, NamesTheFirstMismatchingEvent) {
  const std::vector<JournalEntry> expected{entry(10, 1, 2, 0),
                                           entry(20, 1, 3, 1)};
  std::vector<JournalEntry> actual = expected;
  actual[1].to = NodeId{7};  // diverges at index 1
  const auto d = first_divergence(expected, actual);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 1u);
  EXPECT_NE(d->description.find("n1 -> n3"), std::string::npos)
      << d->description;
  EXPECT_NE(d->description.find("n1 -> n7"), std::string::npos)
      << d->description;
}

TEST(Divergence, ReportsLengthMismatch) {
  const std::vector<JournalEntry> expected{entry(10, 1, 2, 0),
                                           entry(20, 1, 3, 1)};
  const std::vector<JournalEntry> actual{entry(10, 1, 2, 0)};
  const auto d = first_divergence(expected, actual);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 1u);
}

// ---------------------------------------------------------------------------
// ShardExecutor on toy simulations
// ---------------------------------------------------------------------------

/// Two shards, one node each, fixed 5 ms latency (= lookahead). Nodes
/// ping-pong across the shard boundary a fixed number of times.
struct ToyFabric {
  static constexpr std::size_t kShards = 2;
  ShardMap map{.shards = kShards, .region_count = 0};
  Simulator engine;
  std::vector<std::unique_ptr<Simulator>> sims;
  std::unique_ptr<ChannelMatrix> channels;
  std::vector<std::unique_ptr<ShardRoute>> routes;
  std::vector<std::unique_ptr<Network>> nets;

  ToyFabric() {
    channels = std::make_unique<ChannelMatrix>(kShards);
    for (std::size_t i = 0; i < kShards; ++i) {
      sims.push_back(std::make_unique<Simulator>());
      nets.push_back(std::make_unique<Network>(
          *sims.back(), std::make_unique<FixedLatencyModel>(5_ms), Rng{1}));
      routes.push_back(std::make_unique<ShardRoute>(map, i, *channels));
      nets.back()->set_remote_route(routes.back().get());
    }
  }

  std::vector<Simulator*> shard_sims() const {
    std::vector<Simulator*> raw;
    for (const auto& s : sims) raw.push_back(s.get());
    return raw;
  }

  std::vector<Network*> shard_nets() const {
    std::vector<Network*> raw;
    for (const auto& n : nets) raw.push_back(n.get());
    return raw;
  }

  ShardExecutor::Stats run(TimePoint horizon, EngineStamp* stamp = nullptr) {
    ShardExecutor::Config cfg;
    cfg.lookahead = 5_ms;
    cfg.horizon = horizon;
    cfg.stamp = stamp;
    ShardExecutor exec{shard_sims(), engine, *channels, shard_nets(), cfg};
    return exec.run();
  }
};

TEST(ShardExecutor, PingPongCrossesShardsAtExactLatency) {
  ToyFabric f;
  // Node 0 on shard 0, node 1 on shard 1.
  std::vector<std::int64_t> arrivals;  // at node 1, in micros
  int remaining = 5;
  f.nets[0]->attach(NodeId{0}, [&](Envelope e) {
    if (remaining-- > 0) {
      f.nets[0]->send(NodeId{0}, NodeId{1}, std::make_unique<Ping>());
    }
    (void)e;
  });
  f.nets[1]->attach(NodeId{1}, [&](Envelope) {
    arrivals.push_back(f.sims[1]->now().count_micros());
    f.nets[1]->send(NodeId{1}, NodeId{0}, std::make_unique<Ping>());
  });
  f.sims[0]->schedule_at(TimePoint::from_micros(0), [&] {
    f.nets[0]->send(NodeId{0}, NodeId{1}, std::make_unique<Ping>());
  });
  const auto stats = f.run(TimePoint::origin() + 1_s);
  // First arrival at 5 ms, then every 10 ms (one round trip).
  ASSERT_EQ(arrivals.size(), 6u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], 5000 + static_cast<std::int64_t>(i) * 10000);
  }
  EXPECT_EQ(stats.messages_forwarded, 12u);  // 6 pings + 6 pongs
  EXPECT_GT(stats.windows, 0u);
  // A ping is in flight on one side at a time, so no window ever has two
  // active shards: every window runs inline, without a barrier.
  EXPECT_EQ(stats.inline_windows, stats.windows);
}

TEST(ShardExecutor, OnlyWindowsWithTwoActiveShardsGoThroughTheBarrier) {
  // Both shards hold an event inside [100us, 5100us): that window needs
  // both shards and takes the barrier. The lone event at 50 ms is a
  // one-shard window and runs inline.
  ToyFabric f;
  // One log per shard: the first window runs both shards concurrently.
  std::vector<std::int64_t> fired0;
  std::vector<std::int64_t> fired1;
  for (const std::int64_t at : {100, 50000}) {
    f.sims[0]->schedule_at(TimePoint::from_micros(at), [&] {
      fired0.push_back(f.sims[0]->now().count_micros());
    });
  }
  f.sims[1]->schedule_at(TimePoint::from_micros(200), [&] {
    fired1.push_back(f.sims[1]->now().count_micros());
  });
  const auto stats = f.run(TimePoint::origin() + 1_s);
  EXPECT_EQ(fired0, (std::vector<std::int64_t>{100, 50000}));
  EXPECT_EQ(fired1, (std::vector<std::int64_t>{200}));
  EXPECT_EQ(stats.windows, 2u);
  EXPECT_EQ(stats.windows - stats.inline_windows, 1u);
  EXPECT_EQ(stats.shard_events, 3u);
}

TEST(ShardExecutor, InlineWindowsAreNotStampedAsEnginePhases) {
  // The coordinator runs one-shard windows itself, but they are still
  // windows: a shard handler must see the stamp lowered, so a
  // RecordingObserver files its entry as a window entry and takes no
  // engine-phase serial number.
  ToyFabric f;
  EngineStamp stamp;
  workload::RecordingObserver recorder{&stamp};
  std::vector<bool> active_seen;
  f.engine.schedule_at(TimePoint::from_micros(50), [&] {
    active_seen.push_back(stamp.active);
    recorder.on_event(f.engine.now(), proto::event::Unschedulable{JobId{}});
  });
  f.sims[1]->schedule_at(TimePoint::from_micros(100), [&] {
    active_seen.push_back(stamp.active);
    recorder.on_event(f.sims[1]->now(), proto::event::Unschedulable{JobId{}});
  });
  const auto stats = f.run(TimePoint::origin() + 1_s, &stamp);
  EXPECT_EQ(stats.inline_windows, 1u);
  EXPECT_EQ(active_seen, (std::vector<bool>{true, false}));
  EXPECT_EQ(stamp.next, 1u) << "only the engine-phase entry is numbered";
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_TRUE(stamp.active) << "raised again once run() returns";
}

TEST(RecordingObserver, ReplaysInCanonicalOrderFieldForField) {
  // Three shard logs, mostly at one instant t: replay runs by time, then
  // engine-phase entries in serial order, then window entries by (shard,
  // local index) — whatever order the shards recorded them in.
  namespace ev = proto::event;
  EngineStamp stamp;
  workload::RecordingObserver s0{&stamp}, s1{&stamp}, s2{&stamp};
  const TimePoint t = TimePoint::origin() + 1_s;
  Rng rng{5};
  grid::JobSpec job;
  job.id = JobId::generate(rng);
  job.ert = Duration::minutes(10);
  job.deadline = t + 1_s;

  stamp.active = false;  // window entries
  s1.on_event(t, ev::Reputation{NodeId{3}, NodeId{4}, 0.25});
  s0.on_event(t, ev::Completed{job.id, NodeId{2}, 90_s});
  s0.on_event(t - 1_ms, ev::BidSent{job.id, NodeId{2}, NodeId{1}, 12.5});
  s0.on_event(t, ev::Rejected{job.id, NodeId{5}});
  stamp.active = true;  // engine-phase entries, serials 0 and 1
  s2.on_event(t, ev::Submitted{job, NodeId{1}});
  s1.on_event(t, ev::Assigned{job, NodeId{2}, true});

  struct Capture final : proto::ProtocolObserver {
    std::vector<std::pair<TimePoint, proto::ProtocolEvent>> seen;
    void on_event(TimePoint at, const proto::ProtocolEvent& e) override {
      seen.emplace_back(at, e);
    }
  } out;
  workload::RecordingObserver::replay({&s0, &s1, &s2}, out);
  ASSERT_EQ(out.seen.size(), 6u);
  const auto same_job = [&](const grid::JobSpec& j) {
    return j.id == job.id && j.ert == job.ert && j.deadline == job.deadline;
  };

  EXPECT_EQ(out.seen[0].first, t - 1_ms);
  const auto& bid = std::get<ev::BidSent>(out.seen[0].second);
  EXPECT_EQ(bid.id, job.id);
  EXPECT_EQ(bid.bidder, NodeId{2});
  EXPECT_EQ(bid.to, NodeId{1});
  EXPECT_EQ(bid.cost, 12.5);

  for (std::size_t i = 1; i < out.seen.size(); ++i) {
    EXPECT_EQ(out.seen[i].first, t) << i;
  }
  const auto& sub = std::get<ev::Submitted>(out.seen[1].second);
  EXPECT_TRUE(same_job(sub.job));
  EXPECT_EQ(sub.initiator, NodeId{1});
  const auto& asg = std::get<ev::Assigned>(out.seen[2].second);
  EXPECT_TRUE(same_job(asg.job));
  EXPECT_EQ(asg.node, NodeId{2});
  EXPECT_TRUE(asg.reschedule);
  const auto& done = std::get<ev::Completed>(out.seen[3].second);
  EXPECT_EQ(done.id, job.id);
  EXPECT_EQ(done.node, NodeId{2});
  EXPECT_EQ(done.art, 90_s);
  const auto& rej = std::get<ev::Rejected>(out.seen[4].second);
  EXPECT_EQ(rej.id, job.id);
  EXPECT_EQ(rej.node, NodeId{5});
  const auto& rep = std::get<ev::Reputation>(out.seen[5].second);
  EXPECT_EQ(rep.owner, NodeId{3});
  EXPECT_EQ(rep.subject, NodeId{4});
  EXPECT_EQ(rep.score, 0.25);
}

TEST(ShardExecutor, RejectsZeroLookahead) {
  // Checked in every build: with L = 0 every window [T, T) is empty and
  // run() would never advance.
  ToyFabric f;
  ShardExecutor::Config cfg;
  cfg.horizon = TimePoint::origin() + 1_s;
  EXPECT_THROW((ShardExecutor{f.shard_sims(), f.engine, *f.channels,
                              f.shard_nets(), cfg}),
               std::invalid_argument);
}

TEST(ShardExecutor, RejectsShardAndNetworkListsThatDoNotPair) {
  ToyFabric f;
  ShardExecutor::Config cfg;
  cfg.lookahead = 5_ms;
  cfg.horizon = TimePoint::origin() + 1_s;
  EXPECT_THROW((ShardExecutor{f.shard_sims(), f.engine, *f.channels,
                              {f.nets[0].get()}, cfg}),
               std::invalid_argument);
  EXPECT_THROW((ShardExecutor{{}, f.engine, *f.channels, {}, cfg}),
               std::invalid_argument);
}

TEST(ShardExecutor, SameInstantCrossShardDeliveriesHonorSenderKeyOrder) {
  // Senders 0 and 2 live on shard 0, recipient 1 on shard 1. Both send at
  // the same instant with equal fixed latency, so both deliveries land at
  // the same microsecond on shard 1 — and must fire in sender-id order
  // (the delivery key), not channel-drain or scheduling order.
  ToyFabric f;
  std::vector<std::uint32_t> arrivals;
  f.nets[0]->attach(NodeId{0}, [](Envelope) {});
  f.nets[0]->attach(NodeId{2}, [](Envelope) {});
  f.nets[1]->attach(NodeId{1},
                    [&](Envelope e) { arrivals.push_back(e.from.value()); });
  f.sims[0]->schedule_at(TimePoint::from_micros(100), [&] {
    // Issue the higher-id sender's message first.
    f.nets[0]->send(NodeId{2}, NodeId{1}, std::make_unique<Ping>());
    f.nets[0]->send(NodeId{0}, NodeId{1}, std::make_unique<Ping>());
  });
  f.run(TimePoint::origin() + 1_s);
  EXPECT_EQ(arrivals, (std::vector<std::uint32_t>{0, 2}));
}

TEST(ShardExecutor, EngineEventsInterleaveAtTheirExactInstant) {
  // An engine-plane event between two shard events must observe the first
  // and precede the second (the serial rendezvous).
  ToyFabric f;
  std::vector<std::string> order;
  f.nets[0]->attach(NodeId{0}, [](Envelope) {});
  f.sims[0]->schedule_at(TimePoint::from_micros(100),
                         [&] { order.push_back("shard@100"); });
  f.engine.schedule_at(TimePoint::from_micros(150),
                       [&] { order.push_back("engine@150"); });
  f.sims[0]->schedule_at(TimePoint::from_micros(200),
                         [&] { order.push_back("shard@200"); });
  const auto stats = f.run(TimePoint::origin() + 1_s);
  EXPECT_EQ(order, (std::vector<std::string>{"shard@100", "engine@150",
                                             "shard@200"}));
  EXPECT_GE(stats.engine_phases, 1u);
  EXPECT_EQ(stats.engine_events, 1u);
  EXPECT_EQ(stats.shard_events, 2u);
}

TEST(ShardExecutor, ClocksLandExactlyOnTheHorizon) {
  ToyFabric f;
  f.nets[0]->attach(NodeId{0}, [](Envelope) {});
  f.sims[0]->schedule_at(TimePoint::from_micros(100), [] {});
  const TimePoint horizon = TimePoint::origin() + 1_s;
  f.run(horizon);
  EXPECT_EQ(f.engine.now(), horizon);
  for (auto& s : f.sims) EXPECT_EQ(s->now(), horizon);
}

}  // namespace
}  // namespace aria::sim::pdes
