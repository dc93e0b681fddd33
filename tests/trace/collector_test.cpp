// TraceCollector unit tests: the collector as one subscriber of an
// ObserverList, and event → record field mapping.
#include "trace/collector.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "grid/job.hpp"

namespace aria::trace {
namespace {

using namespace aria::literals;

namespace event = proto::event;

/// One of each of the 16 protocol events, in ProtocolEvent order.
std::vector<proto::ProtocolEvent> one_of_each(const grid::JobSpec& job) {
  const JobId& id = job.id;
  return {event::Submitted{job, NodeId{1}},
          event::RequestRetry{id, 2},
          event::Unschedulable{id},
          event::BidSent{id, NodeId{2}, NodeId{1}, 10.0},
          event::BidReceived{id, NodeId{1}, NodeId{2}, 10.0},
          event::Delegated{id, NodeId{1}, NodeId{2}, false},
          event::Assigned{job, NodeId{2}, false},
          event::Started{id, NodeId{2}},
          event::Completed{id, NodeId{2}, 30_s},
          event::Recovery{id, 1},
          event::Abandoned{id},
          event::Shed{job, NodeId{2}},
          event::Rejected{id, NodeId{2}},
          event::RegionDelegated{id, NodeId{3}, 0, 1},
          event::DigestClamped{NodeId{3}, NodeId{4}, 1, 7},
          event::Reputation{NodeId{3}, NodeId{4}, 0.5}};
}

/// Appends (name, event index) for every event it sees to a shared log.
struct LoggingObserver final : proto::ProtocolObserver {
  LoggingObserver(char name, std::vector<std::pair<char, std::size_t>>& log)
      : name{name}, log{log} {}
  void on_event(TimePoint, const proto::ProtocolEvent& event) override {
    log.emplace_back(name, event.index());
  }
  char name;
  std::vector<std::pair<char, std::size_t>>& log;
};

struct Fixture {
  Rng rng{42};
  JobId id{JobId::generate(rng)};
  grid::JobSpec job{};
  TraceCollector collector{TraceConfig{.enabled = true}};
  Fixture() { job.id = id; }
};

TEST(ObserverList, EveryEventReachesEverySubscriberInOrder) {
  Fixture f;
  std::vector<std::pair<char, std::size_t>> log;
  LoggingObserver first{'a', log};
  LoggingObserver last{'b', log};
  proto::ObserverList list;
  list.add(&first);
  list.add(&last);
  const auto events = one_of_each(f.job);
  ASSERT_EQ(events.size(), std::variant_size_v<proto::ProtocolEvent>);
  for (const auto& e : events) list.on_event(TimePoint::origin() + 1_min, e);

  std::vector<std::pair<char, std::size_t>> expected;
  for (std::size_t i = 0; i < events.size(); ++i) {
    expected.emplace_back('a', i);
    expected.emplace_back('b', i);
  }
  EXPECT_EQ(log, expected);
}

TEST(TraceCollector, ForwardsEveryCallbackToNext) {
  // The tracer ahead of another subscriber on one ObserverList swallows
  // nothing: the next one sees all 16 events.
  Fixture f;
  std::vector<std::pair<char, std::size_t>> log;
  LoggingObserver next{'n', log};
  proto::ObserverList list;
  list.add(&f.collector);
  list.add(&next);
  const auto events = one_of_each(f.job);
  for (const auto& e : events) list.on_event(TimePoint::origin() + 1_min, e);

  ASSERT_EQ(log.size(), events.size());
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log[i].second, i);
  // The tracer records each of its 13 lifecycle kinds exactly once and
  // nothing for the hierarchy and defense events.
  const auto& records = f.collector.buffer()->job_events();
  ASSERT_EQ(records.size(), kTraceEventKinds - 1);
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].kind, static_cast<TraceEventKind>(k));
  }
}

TEST(TraceCollector, NullNextIsAllowed) {
  // A lone tracer, subscribed to nothing and with no one after it, records.
  Fixture f;
  TraceCollector solo{TraceConfig{.enabled = true}};
  solo.on_event(TimePoint::origin(), event::Submitted{f.job, NodeId{1}});
  EXPECT_EQ(solo.buffer()->job_events().size(), 1u);
}

TEST(TraceCollector, RecordsCarryCallbackFields) {
  Fixture f;
  const TimePoint t = TimePoint::origin() + 5_min;
  f.collector.on_event(t, event::BidSent{f.id, NodeId{3}, NodeId{7}, 123.5});
  f.collector.on_event(t, event::Delegated{f.id, NodeId{7}, NodeId{3},
                                           /*reschedule=*/true});
  f.collector.on_event(t, event::Completed{f.id, NodeId{3}, 90_s});

  const auto& ev = f.collector.buffer()->job_events();
  ASSERT_EQ(ev.size(), 3u);

  EXPECT_EQ(ev[0].kind, TraceEventKind::kBidSent);
  EXPECT_EQ(ev[0].job, f.id);
  EXPECT_EQ(ev[0].node, NodeId{3});
  EXPECT_EQ(ev[0].peer, NodeId{7});
  EXPECT_DOUBLE_EQ(ev[0].value, 123.5);
  EXPECT_EQ(ev[0].at, t);

  EXPECT_EQ(ev[1].kind, TraceEventKind::kDelegated);
  EXPECT_EQ(ev[1].node, NodeId{7});
  EXPECT_EQ(ev[1].peer, NodeId{3});
  EXPECT_TRUE(ev[1].reschedule());

  EXPECT_EQ(ev[2].kind, TraceEventKind::kCompleted);
  EXPECT_DOUBLE_EQ(ev[2].value, 90.0);  // ART in seconds
}

TEST(TraceCollector, AttemptNumbersSurviveInA) {
  Fixture f;
  f.collector.on_event(TimePoint::origin(), event::RequestRetry{f.id, 3});
  f.collector.on_event(TimePoint::origin(), event::Recovery{f.id, 5});
  const auto& ev = f.collector.buffer()->job_events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].a, 3u);
  EXPECT_EQ(ev[1].a, 5u);
}

/// Minimal wire message for tap tests.
struct FakeMsg final : sim::Message {
  std::size_t wire_size() const override { return 77; }
  sim::MessageTypeId type_id() const override {
    static const sim::MessageTypeId id =
        sim::MessageTypeRegistry::intern("FAKE");
    return id;
  }
  std::uint32_t flood_hops_left() const override { return 4; }
};

TEST(TraceCollector, MessageTapRecordsWireFields) {
  Fixture f;
  const TimePoint sent = TimePoint::origin() + 1_s;
  const TimePoint deliver = sent + 40_ms;
  f.collector.on_message(NodeId{1}, NodeId{2}, FakeMsg{}, sent, deliver,
                         /*faulted=*/false);
  f.collector.on_message(NodeId{2}, NodeId{1}, FakeMsg{}, sent, sent,
                         /*faulted=*/true);

  const auto& ev = f.collector.buffer()->message_events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, TraceEventKind::kMsg);
  EXPECT_EQ(ev[0].node, NodeId{1});
  EXPECT_EQ(ev[0].peer, NodeId{2});
  EXPECT_EQ(ev[0].at, sent);
  EXPECT_EQ(ev[0].end, deliver);
  EXPECT_DOUBLE_EQ(ev[0].value, 77.0);
  EXPECT_EQ(ev[0].b, 4u);
  EXPECT_FALSE(ev[0].fault_dropped());
  EXPECT_TRUE(ev[1].fault_dropped());
  EXPECT_TRUE(f.collector.buffer()->job_events().empty());
}

}  // namespace
}  // namespace aria::trace
