// Table I: message types, fields, and metered wire sizes.
#include "core/messages.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/gossip.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

grid::JobSpec sample_job(Rng& rng) {
  grid::JobSpec j;
  j.id = JobId::generate(rng);
  j.ert = 2_h;
  return j;
}

TEST(Messages, RequestCarriesTableOneFields) {
  Rng rng{1};
  const auto job = sample_job(rng);
  const FloodMeta meta{Uuid::generate(rng), 8, NodeId{3}};
  RequestMsg m{NodeId{3}, job, meta};
  EXPECT_EQ(m.initiator, NodeId{3});        // initiator's address
  EXPECT_EQ(m.job.id, job.id);              // job UUID
  EXPECT_EQ(m.job.ert, job.ert);            // job profile
  EXPECT_EQ(m.type_name(), "REQUEST");
  EXPECT_EQ(m.wire_size(), 1024u);
}

TEST(Messages, AcceptCarriesTableOneFields) {
  Rng rng{2};
  const auto id = JobId::generate(rng);
  AcceptMsg m{NodeId{7}, id, 123.5};
  EXPECT_EQ(m.node, NodeId{7});  // node's address
  EXPECT_EQ(m.job_id, id);       // job UUID
  EXPECT_DOUBLE_EQ(m.cost, 123.5);
  EXPECT_EQ(m.type_name(), "ACCEPT");
  EXPECT_EQ(m.wire_size(), 128u);
}

TEST(Messages, InformCarriesTableOneFields) {
  Rng rng{3};
  const auto job = sample_job(rng);
  const FloodMeta meta{Uuid::generate(rng), 7, NodeId{9}};
  InformMsg m{NodeId{9}, job, -55.0, meta};
  EXPECT_EQ(m.assignee, NodeId{9});  // assignee's address
  EXPECT_EQ(m.job.id, job.id);       // job UUID + profile
  EXPECT_DOUBLE_EQ(m.cost, -55.0);   // cost
  EXPECT_EQ(m.type_name(), "INFORM");
  EXPECT_EQ(m.wire_size(), 1024u);
}

TEST(Messages, AssignCarriesTableOneFields) {
  Rng rng{4};
  const auto job = sample_job(rng);
  AssignMsg m{NodeId{2}, job};
  EXPECT_EQ(m.initiator, NodeId{2});  // initiator's address
  EXPECT_EQ(m.job.id, job.id);        // job UUID + profile
  EXPECT_FALSE(m.reschedule);
  EXPECT_EQ(m.type_name(), "ASSIGN");
  EXPECT_EQ(m.wire_size(), 1024u);
}

TEST(Messages, AssignRescheduleFlag) {
  Rng rng{5};
  AssignMsg m{NodeId{2}, sample_job(rng), /*reschedule=*/true};
  EXPECT_TRUE(m.reschedule);
  EXPECT_EQ(m.wire_size(), 1024u);  // flag does not change the metered size
}

TEST(Messages, NotifyIsCompact) {
  Rng rng{6};
  NotifyMsg m{NotifyMsg::Kind::kRescheduled, JobId::generate(rng), NodeId{4}};
  EXPECT_EQ(m.kind, NotifyMsg::Kind::kRescheduled);
  EXPECT_EQ(m.current_assignee, NodeId{4});
  EXPECT_EQ(m.type_name(), "NOTIFY");
  EXPECT_EQ(m.wire_size(), 128u);
}

TEST(Messages, PaperSizeRatios) {
  // §V-E: REQUEST/INFORM/ASSIGN = 1 KiB, ACCEPT = 128 bytes.
  EXPECT_EQ(kRequestWireBytes, kInformWireBytes);
  EXPECT_EQ(kRequestWireBytes, kAssignWireBytes);
  EXPECT_EQ(kRequestWireBytes / kAcceptWireBytes, 8u);
}

TEST(Messages, PolymorphicDispatchThroughBasePointer) {
  Rng rng{7};
  std::unique_ptr<sim::Message> m =
      std::make_unique<AcceptMsg>(NodeId{1}, JobId::generate(rng), 1.0);
  EXPECT_EQ(m->type_name(), "ACCEPT");
  EXPECT_NE(dynamic_cast<AcceptMsg*>(m.get()), nullptr);
  EXPECT_EQ(dynamic_cast<RequestMsg*>(m.get()), nullptr);

  // Every wire type, through the base pointer the network and the fault
  // plane see: its registered name, its metered size, and a clone that
  // keeps both (fault-plane duplication silently skips a type whose
  // clone() is null).
  struct Row {
    std::unique_ptr<sim::Message> message;
    const char* type;
    std::size_t bytes;
  };
  const grid::JobSpec job = sample_job(rng);
  const JobId id = job.id;
  const NodeId n{3};
  const overlay::RegionDigest digest{1, 2, 3, 1, 4.0, 5};
  std::vector<Row> rows;
  rows.push_back({std::make_unique<RequestMsg>(n, job, FloodMeta{}),
                  kRequestType, kRequestWireBytes});
  rows.push_back({std::make_unique<AcceptMsg>(n, id, 1.0), kAcceptType,
                  kAcceptWireBytes});
  rows.push_back({std::make_unique<InformMsg>(n, job, 1.0, FloodMeta{}),
                  kInformType, kInformWireBytes});
  rows.push_back(
      {std::make_unique<AssignMsg>(n, job), kAssignType, kAssignWireBytes});
  rows.push_back(
      {std::make_unique<NotifyMsg>(NotifyMsg::Kind::kQueued, id, n),
       kNotifyType, kNotifyWireBytes});
  rows.push_back({std::make_unique<AssignAckMsg>(n, id, Uuid::generate(rng)),
                  kAssignAckType, kAssignAckWireBytes});
  rows.push_back(
      {std::make_unique<RejectMsg>(n, job, n, false, Uuid::generate(rng)),
       kRejectType, kRejectWireBytes});
  rows.push_back(
      {std::make_unique<PingMsg>(n, 1u), kPingType, kPingWireBytes});
  rows.push_back({std::make_unique<PongMsg>(n, 1u, std::vector<NodeId>{n}),
                  kPongType, kPongWireBytes});
  rows.push_back(
      {std::make_unique<LinkReqMsg>(n), kLinkReqType, kLinkReqWireBytes});
  rows.push_back({std::make_unique<LinkAckMsg>(n, std::vector<NodeId>{n}),
                  kLinkAckType, kLinkAckWireBytes});
  rows.push_back(
      {std::make_unique<RegionLoadMsg>(n, overlay::MemberLoad{true, 2.0, 1}),
       kRegionLoadType, kRegionLoadWireBytes});
  rows.push_back({std::make_unique<RegionDigestMsg>(n, digest),
                  kRegionDigestType, kRegionDigestWireBytes});
  rows.push_back({std::make_unique<RegionQueryMsg>(n, job, 2u),
                  kRegionQueryType, kRegionQueryWireBytes});
  rows.push_back({std::make_unique<RegionFwdMsg>(n, job, 2u), kRegionFwdType,
                  kRegionFwdWireBytes});
  rows.push_back({std::make_unique<RegionPullMsg>(n, FloodMeta{}),
                  kRegionPullType, kRegionPullWireBytes});
  // GOSSIP meters a header plus a per-summary increment.
  rows.push_back({std::make_unique<GossipMsg>(std::vector<NodeSummary>(2)),
                  kGossipType,
                  kGossipHeaderWireBytes + 2 * kGossipSummaryWireBytes});
  ASSERT_EQ(rows.size(), 17u);
  for (const Row& row : rows) {
    const sim::Message& msg = *row.message;
    EXPECT_EQ(msg.type_name(), row.type);
    EXPECT_EQ(msg.wire_size(), row.bytes) << row.type;
    const std::unique_ptr<sim::Message> copy = msg.clone();
    ASSERT_NE(copy, nullptr) << row.type;
    EXPECT_EQ(copy->type_id(), msg.type_id()) << row.type;
    EXPECT_EQ(copy->wire_size(), msg.wire_size()) << row.type;
    EXPECT_EQ(copy->flood_hops_left(), msg.flood_hops_left()) << row.type;
  }
}

TEST(Messages, FloodMetaDefaults) {
  FloodMeta meta{};
  EXPECT_TRUE(meta.flood_id.is_nil());
  EXPECT_EQ(meta.hops_left, 0u);
  EXPECT_FALSE(meta.origin.valid());
}

}  // namespace
}  // namespace aria::proto
