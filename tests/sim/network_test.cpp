#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace aria::sim {
namespace {

using namespace aria::literals;

struct TestMsg final : Message {
  int payload;
  explicit TestMsg(int p) : payload{p} {}
  std::size_t wire_size() const override { return 100; }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("TEST");
    return id;
  }
};

struct BigMsg final : Message {
  std::size_t wire_size() const override { return 4096; }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("BIG");
    return id;
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net_{sim_, std::make_unique<FixedLatencyModel>(10_ms), Rng{1}} {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversToAttachedHandler) {
  std::vector<int> received;
  net_.attach(NodeId{2}, [&](Envelope env) {
    received.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
    EXPECT_EQ(env.from, NodeId{1});
    EXPECT_EQ(env.to, NodeId{2});
  });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(42));
  sim_.run();
  EXPECT_EQ(received, (std::vector<int>{42}));
}

TEST_F(NetworkTest, AttachPastTheTableEndFromInsideADelivery) {
  // Grid expansion attaches nodes from inside a delivery. The per-node table
  // grows then, and the running handler must survive it: it reads its
  // capture after the attach (one pointer, so std::function keeps it
  // inline), and a later delivery must reach the new node.
  struct State {
    Network* net;
    std::vector<int> log;
    int late{0};
  } state{&net_, {}, 0};
  const NodeId grown{5000};
  net_.attach(NodeId{2}, [s = &state, grown](Envelope env) {
    const int payload = dynamic_cast<const TestMsg&>(*env.message).payload;
    s->net->attach(grown, [s](Envelope) { ++s->late; });
    s->log.push_back(payload);
    s->net->send(NodeId{2}, grown, std::make_unique<TestMsg>(payload + 1));
  });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(7));
  sim_.run();
  EXPECT_EQ(state.log, (std::vector<int>{7}));
  EXPECT_EQ(state.late, 1);
  EXPECT_TRUE(net_.is_attached(grown));
  EXPECT_FALSE(net_.is_attached(NodeId{4999}));
  EXPECT_EQ(net_.delivered_messages(), 2u);
  EXPECT_EQ(net_.dropped_messages(), 0u);
}

TEST_F(NetworkTest, DeliveryTakesLatency) {
  TimePoint delivered;
  net_.attach(NodeId{2}, [&](Envelope) { delivered = sim_.now(); });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(delivered, TimePoint::origin() + 10_ms);
}

TEST_F(NetworkTest, UnattachedDestinationDropsAndCounts) {
  net_.send(NodeId{1}, NodeId{99}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(net_.dropped_messages(), 1u);
  EXPECT_EQ(net_.delivered_messages(), 0u);
  EXPECT_EQ(net_.traffic().drops("TEST"), 1u);
  // Bytes still hit the wire.
  EXPECT_EQ(net_.traffic().of("TEST").bytes, 100u);
}

TEST_F(NetworkTest, DownNodeDropsUntilBackUp) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.set_up(NodeId{2}, false);
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.dropped_messages(), 1u);

  net_.set_up(NodeId{2}, true);
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, CrashBetweenSendAndDeliveryDrops) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  // The message is in flight; the destination goes down before delivery.
  net_.set_up(NodeId{2}, false);
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.dropped_messages(), 1u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.detach(NodeId{2});
  EXPECT_FALSE(net_.is_attached(NodeId{2}));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkTest, TrafficLedgerAccumulatesByType) {
  net_.attach(NodeId{2}, [](Envelope) {});
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<BigMsg>());
  sim_.run();
  EXPECT_EQ(net_.traffic().of("TEST").messages, 2u);
  EXPECT_EQ(net_.traffic().of("TEST").bytes, 200u);
  EXPECT_EQ(net_.traffic().of("BIG").messages, 1u);
  EXPECT_EQ(net_.traffic().of("BIG").bytes, 4096u);
  EXPECT_EQ(net_.traffic().total().messages, 3u);
  EXPECT_EQ(net_.traffic().total().bytes, 4296u);
}

TEST_F(NetworkTest, SentAndDeliveredCounters) {
  net_.attach(NodeId{2}, [](Envelope) {});
  for (int i = 0; i < 5; ++i) {
    net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim_.run();
  EXPECT_EQ(net_.sent_messages(), 5u);
  EXPECT_EQ(net_.delivered_messages(), 5u);
  EXPECT_EQ(net_.dropped_messages(), 0u);
}

TEST_F(NetworkTest, FifoBetweenSamePairUnderFixedLatency) {
  std::vector<int> received;
  net_.attach(NodeId{2}, [&](Envelope env) {
    received.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
  });
  for (int i = 0; i < 10; ++i) {
    net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim_.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST_F(NetworkTest, ReattachReplacesHandler) {
  int first = 0, second = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++first; });
  net_.attach(NodeId{2}, [&](Envelope) { ++second; });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(NetworkTest, TapListSamplesEachSubscriptionLikeTheNetwork) {
  struct PayloadTap final : MessageTap {
    std::vector<int> seen;
    void on_message(NodeId, NodeId, const Message& m, TimePoint, TimePoint,
                    bool) override {
      seen.push_back(dynamic_cast<const TestMsg&>(m).payload);
    }
  } every1, every4, every0;
  TapList taps;
  taps.add(&every1, 1);
  taps.add(&every4, 4);
  taps.add(&every0, 0);  // treated as 1
  net_.set_tap(&taps, 1);
  for (int i = 0; i < 10; ++i) {
    net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  net_.set_tap(nullptr);
  const std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(every1.seen, all);
  // The Network's arithmetic (counter++ % every == 0): messages 0, 4, 8.
  EXPECT_EQ(every4.seen, (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(every0.seen, all);
}

TEST(NetworkStress, ThousandsOfMessagesDeliveredExactlyOnce) {
  Simulator sim;
  Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{77}};
  constexpr std::uint32_t kNodes = 50;
  std::vector<int> received(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    net.attach(NodeId{i}, [&received, i](Envelope) { ++received[i]; });
  }
  Rng rng{78};
  constexpr int kMessages = 10000;
  std::vector<int> expected(kNodes, 0);
  for (int m = 0; m < kMessages; ++m) {
    const auto from = static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
    const auto to = static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
    ++expected[to];
    net.send(NodeId{from}, NodeId{to}, std::make_unique<TestMsg>(m));
  }
  sim.run();
  EXPECT_EQ(net.delivered_messages(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(net.dropped_messages(), 0u);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(received[i], expected[i]) << "node " << i;
  }
  EXPECT_EQ(net.traffic().of("TEST").messages,
            static_cast<std::uint64_t>(kMessages));
}

TEST(NetworkStress, JitteredLatencyCanReorderSamePairMessages) {
  // Documents why the protocol must tolerate reordering: per-message jitter
  // makes the network non-FIFO even between one pair of nodes.
  Simulator sim;
  Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{79}};
  std::vector<int> order;
  net.attach(NodeId{2}, [&order](Envelope env) {
    order.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
  });
  for (int i = 0; i < 200; ++i) {
    net.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(TrafficLedger, MergeAndClear) {
  TrafficLedger a, b;
  a.record("X", 10);
  b.record("X", 5);
  b.record("Y", 7);
  b.record_drop("Y");
  a.merge(b);
  EXPECT_EQ(a.of("X").messages, 2u);
  EXPECT_EQ(a.of("X").bytes, 15u);
  EXPECT_EQ(a.of("Y").bytes, 7u);
  EXPECT_EQ(a.drops("Y"), 1u);
  a.clear();
  EXPECT_EQ(a.total().messages, 0u);
  EXPECT_EQ(a.of("X").bytes, 0u);
}

}  // namespace
}  // namespace aria::sim
