#include "core/gossip.hpp"

#include <gtest/gtest.h>

#include "core/tracker.hpp"
#include "grid/profile_gen.hpp"
#include "overlay/bootstrap.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;
using sched::SchedulerKind;

/// Gossip-grid fixture, mirroring TestGrid.
class GossipGrid {
 public:
  explicit GossipGrid(std::uint64_t seed = 99) : rng_{seed} {
    net_ = std::make_unique<sim::Network>(
        sim, std::make_unique<sim::FixedLatencyModel>(10_ms), rng_.fork(1));
    config.gossip_period = 30_s;
    config.retry.backoff = 10_s;
  }
  ~GossipGrid() { nodes.clear(); }

  GossipNode& add_node(double perf = 1.0,
                       grid::NodeProfile profile = universal()) {
    profile.performance_index = perf;
    GossipNode::Context ctx;
    ctx.sim = &sim;
    ctx.net = net_.get();
    ctx.topo = &topo;
    ctx.config = &config;
    ctx.ert_error = &ert_error;
    ctx.observer = &tracker;
    const NodeId id{static_cast<std::uint32_t>(nodes.size())};
    topo.add_node(id);
    nodes.push_back(std::make_unique<GossipNode>(
        ctx, id, profile, sched::make_scheduler(SchedulerKind::kFcfs),
        rng_.fork(100 + id.value())));
    nodes.back()->start();
    return *nodes.back();
  }

  static grid::NodeProfile universal() {
    grid::NodeProfile p;
    p.arch = grid::Architecture::kAmd64;
    p.os = grid::OperatingSystem::kLinux;
    p.memory_gb = 16;
    p.disk_gb = 16;
    return p;
  }

  grid::JobSpec make_job(Duration ert) {
    grid::JobSpec j;
    j.id = JobId::generate(rng_);
    j.requirements.arch = grid::Architecture::kAmd64;
    j.requirements.os = grid::OperatingSystem::kLinux;
    j.requirements.min_memory_gb = 1;
    j.requirements.min_disk_gb = 1;
    j.ert = ert;
    return j;
  }

  void connect_all() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        topo.add_link(NodeId{static_cast<std::uint32_t>(i)},
                      NodeId{static_cast<std::uint32_t>(j)});
      }
    }
  }

  void run_for(Duration d) { sim.run_until(sim.now() + d); }

  sim::Simulator sim;
  overlay::Topology topo;
  GossipConfig config;
  grid::ErtErrorModel ert_error{grid::ErtErrorMode::kExact, 0.0};
  JobTracker tracker;
  std::vector<std::unique_ptr<GossipNode>> nodes;
  sim::Network& net() { return *net_; }

 private:
  Rng rng_;
  std::unique_ptr<sim::Network> net_;
};

TEST(Gossip, SelfAssignWithoutCache) {
  GossipGrid g;
  auto& lone = g.add_node(1.0);
  auto job = g.make_job(1_h);
  const JobId id = job.id;
  lone.submit(std::move(job));
  g.run_for(2_h);
  ASSERT_TRUE(g.tracker.find(id)->done());
  EXPECT_EQ(g.tracker.find(id)->executor, lone.id());
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Gossip, CacheFillsFromNeighbors) {
  GossipGrid g;
  auto& a = g.add_node(1.0);
  auto& b = g.add_node(1.5);
  auto& c = g.add_node(2.0);
  g.connect_all();
  g.run_for(5_min);  // several gossip rounds
  EXPECT_GE(a.cache_size(), 2u);
  EXPECT_GE(b.cache_size(), 2u);
  EXPECT_GE(c.cache_size(), 2u);
}

TEST(Gossip, PrefersFasterKnownNode) {
  GossipGrid g;
  auto& slow = g.add_node(1.0);
  auto& fast = g.add_node(2.0);
  g.connect_all();
  g.run_for(5_min);  // learn each other

  auto job = g.make_job(2_h);
  const JobId id = job.id;
  slow.submit(std::move(job));
  g.run_for(10_s);
  EXPECT_TRUE(fast.executing());
  EXPECT_EQ(g.tracker.find(id)->assignments[0].first, fast.id());
}

TEST(Gossip, StaleSummariesAreIgnored) {
  GossipGrid g;
  g.config.max_summary_age = 1_min;
  auto& a = g.add_node(1.0);
  auto& b = g.add_node(5.0);
  g.connect_all();
  g.run_for(5_min);  // a knows b
  ASSERT_GE(a.cache_size(), 1u);

  // b vanishes; its summaries age out. New work stays local.
  b.stop();
  g.topo.remove_node(b.id());
  g.run_for(10_min);
  auto job = g.make_job(1_h);
  const JobId id = job.id;
  a.submit(std::move(job));
  g.run_for(10_s);
  EXPECT_EQ(g.tracker.find(id)->assignments[0].first, a.id());
}

TEST(Gossip, RetriesUntilCandidateAppears) {
  GossipGrid g;
  grid::NodeProfile sparc = GossipGrid::universal();
  sparc.arch = grid::Architecture::kSparc;
  auto& initiator = g.add_node(1.0, sparc);
  auto job = g.make_job(1_h);  // AMD64: initiator cannot run it
  const JobId id = job.id;
  initiator.submit(std::move(job));
  g.run_for(1_min);
  EXPECT_TRUE(g.tracker.find(id)->assignments.empty());
  EXPECT_GT(g.tracker.find(id)->retries, 0u);

  // A matching node joins and gossips; a later retry finds it.
  auto& helper = g.add_node(1.0);
  g.topo.add_link(initiator.id(), helper.id());
  g.run_for(10_min);
  ASSERT_FALSE(g.tracker.find(id)->assignments.empty());
  EXPECT_EQ(g.tracker.find(id)->assignments[0].first, helper.id());
}

TEST(Gossip, GivesUpAfterMaxAttempts) {
  GossipGrid g;
  g.config.retry.max_attempts = 3;
  grid::NodeProfile sparc = GossipGrid::universal();
  sparc.arch = grid::Architecture::kSparc;
  auto& lone = g.add_node(1.0, sparc);
  auto job = g.make_job(1_h);
  const JobId id = job.id;
  lone.submit(std::move(job));
  g.run_for(10_min);
  EXPECT_TRUE(g.tracker.find(id)->unschedulable);
}

TEST(Gossip, TrafficIsMeteredAsGossip) {
  GossipGrid g;
  g.add_node(1.0);
  g.add_node(1.0);
  g.connect_all();
  g.run_for(5_min);
  const auto gossip = g.net().traffic().of("GOSSIP");
  EXPECT_GT(gossip.messages, 0u);
  EXPECT_GT(gossip.bytes, gossip.messages * 64);  // payload > header
}

// One GOSSIP payload from a cache larger than the cap: the sender's own
// summary and its newest cached ones, newest first, node id breaking ties,
// capped at summaries_per_message (8). A newer stamp moves a cached node up;
// an older one is ignored.
TEST(Gossip, PayloadIsNewestFirstTieBrokenByNodeAndCapped) {
  GossipGrid g;
  auto& a = g.add_node(1.0);
  const NodeId sink{1};  // a's only neighbour, recording what a pushes
  g.topo.add_node(sink);
  g.topo.add_link(a.id(), sink);
  std::vector<std::vector<NodeSummary>> payloads;
  g.net().attach(sink, [&](sim::Envelope env) {
    if (env.message->type_id() == GossipMsg::static_type()) {
      payloads.push_back(static_cast<const GossipMsg&>(*env.message).summaries);
    }
  });
  auto push = [&](std::vector<std::pair<std::uint32_t, Duration>> entries) {
    std::vector<NodeSummary> summaries;
    for (const auto& [node, stamped] : entries) {
      NodeSummary s;
      s.node = NodeId{node};
      s.stamped = TimePoint::origin() + stamped;
      summaries.push_back(s);
    }
    g.net().send(sink, a.id(), std::make_unique<GossipMsg>(summaries));
  };
  auto last_payload = [&] {
    std::vector<std::uint32_t> ids;
    for (const auto& s : payloads.back()) ids.push_back(s.node.value());
    return ids;
  };

  g.run_for(1_min);
  // Twelve cached summaries, listed out of order: nodes 10-11 stamped at
  // 5 s, 12-15 at 20 s, 16-21 at 10 s.
  std::vector<std::pair<std::uint32_t, Duration>> twelve;
  for (std::uint32_t n = 21; n >= 10; --n) {
    twelve.emplace_back(n, n < 12 ? 5_s : n < 16 ? 20_s : 10_s);
  }
  push(twelve);
  g.run_for(40_s);  // at least one gossip round after the delivery
  ASSERT_FALSE(payloads.empty());
  EXPECT_EQ(a.cache_size(), 12u);
  EXPECT_EQ(last_payload(),
            (std::vector<std::uint32_t>{0, 12, 13, 14, 15, 16, 17, 18}));
  EXPECT_GT(payloads.back().front().stamped, TimePoint::origin() + 1_min);

  push({{19, 30_s}, {12, 1_s}});
  g.run_for(40_s);
  EXPECT_EQ(last_payload(),
            (std::vector<std::uint32_t>{0, 19, 12, 13, 14, 15, 16, 17}));
}

TEST(Gossip, ManyJobsCompleteCleanly) {
  GossipGrid g;
  for (int i = 0; i < 6; ++i) g.add_node(1.0 + 0.2 * i);
  g.connect_all();
  g.run_for(5_min);  // warm caches
  for (int i = 0; i < 30; ++i) {
    auto job = g.make_job(1_h);
    g.nodes[static_cast<std::size_t>(i % 6)]->submit(std::move(job));
  }
  g.run_for(24_h);
  EXPECT_EQ(g.tracker.completed_count(), 30u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Gossip, StaleBacklogCausesHerdingUnlikeAria) {
  // The known weakness of state-dissemination: summaries lag reality, so a
  // burst submitted within one gossip period herds onto whoever advertised
  // the emptiest queue. This documents the behavioural difference the
  // ablation bench measures at scale.
  GossipGrid g;
  g.config.gossip_period = 5_min;  // slow dissemination
  auto& a = g.add_node(1.0);
  auto& fast = g.add_node(2.0);
  g.add_node(1.0);
  g.connect_all();
  g.run_for(20_min);  // caches warm but will now go stale

  for (int i = 0; i < 6; ++i) {
    auto job = g.make_job(2_h);
    a.submit(std::move(job));
  }
  g.run_for(30_s);
  // All six landed on the fast node (its cached backlog never updated).
  EXPECT_TRUE(fast.executing());
  EXPECT_GE(fast.queue_length(), 4u);
}

}  // namespace
}  // namespace aria::proto
