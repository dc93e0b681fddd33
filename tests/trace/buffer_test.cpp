// TraceBuffer unit tests: sequence assignment, two-ring routing, drop-newest
// overflow, and the seq-merge that reconstructs exact collection order.
#include "trace/buffer.hpp"

#include <gtest/gtest.h>

namespace aria::trace {
namespace {

TraceRecord job_record(TraceEventKind kind = TraceEventKind::kSubmitted) {
  TraceRecord r;
  r.kind = kind;
  return r;
}

TraceRecord msg_record() {
  TraceRecord r;
  r.kind = TraceEventKind::kMsg;
  return r;
}

TEST(TraceBuffer, AssignsGlobalSequenceAcrossBothStreams) {
  TraceBuffer buf{TraceConfig{.enabled = true}};
  buf.record(job_record());
  buf.record(msg_record());
  buf.record(job_record(TraceEventKind::kCompleted));
  ASSERT_EQ(buf.job_events().size(), 2u);
  ASSERT_EQ(buf.message_events().size(), 1u);
  EXPECT_EQ(buf.job_events()[0].seq, 0u);
  EXPECT_EQ(buf.message_events()[0].seq, 1u);
  EXPECT_EQ(buf.job_events()[1].seq, 2u);
  EXPECT_EQ(buf.total_recorded(), 3u);
}

TEST(TraceBuffer, MergedReconstructsCollectionOrder) {
  TraceBuffer buf{TraceConfig{.enabled = true}};
  buf.record(msg_record());
  buf.record(job_record());
  buf.record(msg_record());
  buf.record(job_record());
  const auto merged = buf.merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, i);
  }
  EXPECT_EQ(merged[0].kind, TraceEventKind::kMsg);
  EXPECT_EQ(merged[1].kind, TraceEventKind::kSubmitted);
}

TEST(TraceBuffer, DropsNewestAtCapacityAndCounts) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.job_ring_capacity = 2;
  cfg.message_ring_capacity = 1;
  TraceBuffer buf{cfg};
  for (int i = 0; i < 5; ++i) buf.record(job_record());
  for (int i = 0; i < 3; ++i) buf.record(msg_record());
  EXPECT_EQ(buf.job_events().size(), 2u);
  EXPECT_EQ(buf.message_events().size(), 1u);
  EXPECT_EQ(buf.dropped_job_events(), 3u);
  EXPECT_EQ(buf.dropped_message_events(), 2u);
  // The *first* records survive (drop-newest keeps early history coherent).
  EXPECT_EQ(buf.job_events()[0].seq, 0u);
  EXPECT_EQ(buf.job_events()[1].seq, 1u);
  // Dropped records still consume sequence numbers (they were collected).
  EXPECT_EQ(buf.total_recorded(), 8u);
}

TEST(TraceBuffer, MessageFloodCannotEvictJobEvents) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.job_ring_capacity = 4;
  cfg.message_ring_capacity = 2;
  TraceBuffer buf{cfg};
  for (int i = 0; i < 1000; ++i) buf.record(msg_record());
  buf.record(job_record());
  EXPECT_EQ(buf.job_events().size(), 1u);
  EXPECT_EQ(buf.dropped_job_events(), 0u);
  EXPECT_EQ(buf.message_events().size(), 2u);
}

TEST(TraceRecord, FlagAccessors) {
  TraceRecord r;
  EXPECT_FALSE(r.reschedule());
  EXPECT_FALSE(r.fault_dropped());
  r.flags |= TraceRecord::kReschedule;
  EXPECT_TRUE(r.reschedule());
  r.flags |= TraceRecord::kFaultDropped;
  EXPECT_TRUE(r.fault_dropped());
}

TEST(TraceRecord, KindNamesAreStableAndDistinct) {
  for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    ASSERT_NE(std::string{kind_name(kind)}, "unknown");
    for (std::size_t j = i + 1; j < kTraceEventKinds; ++j) {
      EXPECT_NE(std::string{kind_name(kind)},
                std::string{kind_name(static_cast<TraceEventKind>(j))});
    }
  }
}

}  // namespace
}  // namespace aria::trace
