// Gossip-based meta-scheduling baseline (related-work comparison).
//
// The paper's §II surveys decentralized alternatives, among them
// gossip-based dissemination of resource state (Erdil & Lewis [25]): nodes
// periodically push a summary of their state to random neighbors, remote
// summaries are cached with an age bound, and an initiator assigns a job
// directly to the best *cached* candidate instead of flooding a discovery
// query. This module implements that scheme over the same substrates
// (network, overlay, schedulers) so `bench_paper`'s gossip ablation can
// compare the two philosophies: query-on-demand (ARiA) vs
// state-dissemination (gossip).
//
// Wire model: a GOSSIP message carries up to `summaries_per_message`
// cached summaries (its size scales accordingly); assignment reuses the
// ASSIGN message type for cost parity with ARiA.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/observer.hpp"
#include "grid/job.hpp"
#include "grid/resources.hpp"
#include "overlay/topology.hpp"
#include "sched/scheduler.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace aria::proto {

struct GossipConfig {
  Duration gossip_period{Duration::seconds(30)};
  /// Random neighbors each round is pushed to.
  std::size_t gossip_fanout{2};
  /// Newest summaries included per message.
  std::size_t summaries_per_message{8};
  /// Cached summaries older than this are ignored for scheduling.
  Duration max_summary_age{Duration::minutes(5)};
  /// Retry policy when no cached candidate matches a job. Shares
  /// DiscoveryRetryPolicy with ARiA's REQUEST re-floods (docs/protocol.md
  /// §1) so the two discovery schemes cannot drift apart; the gossip
  /// baseline keeps its historical fixed 30s interval (factor cap 1 = no
  /// exponential growth) and 40-attempt cap.
  DiscoveryRetryPolicy retry{Duration::seconds(30), /*max_backoff_factor=*/1,
                             /*max_attempts=*/40};
};

/// A node's advertised state: enough to estimate the ETTC a job would see.
struct NodeSummary {
  NodeId node{};
  grid::NodeProfile profile{};
  /// Estimated seconds until the queue (incl. running job) drains.
  double backlog_seconds{0.0};
  TimePoint stamped{};
};

inline constexpr const char* kGossipType = "GOSSIP";
// A GOSSIP message meters a fixed header plus ~96 bytes per carried summary.
inline constexpr std::size_t kGossipHeaderWireBytes = 64;
inline constexpr std::size_t kGossipSummaryWireBytes = 96;

struct GossipMsg final
    : sim::MessageOf<GossipMsg, kGossipType, kGossipHeaderWireBytes> {
  std::vector<NodeSummary> summaries;

  explicit GossipMsg(std::vector<NodeSummary> s) : summaries{std::move(s)} {}
  std::size_t wire_size() const override {
    return kGossipHeaderWireBytes + summaries.size() * kGossipSummaryWireBytes;
  }
};

/// One grid machine under gossip scheduling: same profile/scheduler/executor
/// model as AriaNode, but discovery works through the summary cache.
class GossipNode {
 public:
  struct Context {
    sim::Simulator* sim{nullptr};
    sim::Network* net{nullptr};
    const overlay::Topology* topo{nullptr};
    const GossipConfig* config{nullptr};
    const grid::ErtErrorModel* ert_error{nullptr};
    ProtocolObserver* observer{nullptr};
  };

  GossipNode(Context ctx, NodeId self, grid::NodeProfile profile,
             std::unique_ptr<sched::LocalScheduler> scheduler, Rng rng);
  ~GossipNode();
  GossipNode(const GossipNode&) = delete;
  GossipNode& operator=(const GossipNode&) = delete;

  void start();
  void stop();

  /// User submission: assign to the best fresh cached candidate (self
  /// counts); retries while the cache has no match.
  void submit(grid::JobSpec job);

  NodeId id() const { return self_; }
  const grid::NodeProfile& profile() const { return profile_; }
  bool executing() const { return running_.has_value(); }
  std::size_t queue_length() const { return sched_->size(); }
  bool idle() const { return !executing() && sched_->empty(); }
  std::size_t cache_size() const { return cache_.size(); }

 private:
  struct Running {
    sched::QueuedJob job;
    TimePoint started;
    Duration art;
    sim::EventHandle completion;
  };

  /// Hands `event` to the observer (if any), stamped with the current time.
  void emit(const ProtocolEvent& event) {
    if (ctx_.observer) ctx_.observer->on_event(ctx_.sim->now(), event);
  }

  void handle(sim::Envelope env);
  void on_gossip(const GossipMsg& msg);
  void gossip_tick();
  void try_assign(const grid::JobSpec& job, std::size_t attempt);
  void accept_job(const grid::JobSpec& spec);
  void kick_executor();
  void complete_running();

  Duration running_remaining() const;
  NodeSummary own_summary() const;
  /// Freshest summaries, own included: newest first, node id breaking
  /// ties, capped at summaries_per_message.
  std::vector<NodeSummary> newest_summaries() const;

  Context ctx_;
  NodeId self_;
  grid::NodeProfile profile_;
  std::unique_ptr<sched::LocalScheduler> sched_;
  Rng rng_;

  std::optional<Running> running_;
  std::unordered_map<NodeId, NodeSummary> cache_;
  /// Newest stamp first, the node id breaking ties.
  struct Newer {
    bool operator()(const std::pair<TimePoint, NodeId>& a,
                    const std::pair<TimePoint, NodeId>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };
  /// cache_'s (stamp, node) keys in the order a GOSSIP payload lists them.
  std::set<std::pair<TimePoint, NodeId>, Newer> recency_;
  sim::EventHandle gossip_timer_;
  bool started_{false};
};

}  // namespace aria::proto
