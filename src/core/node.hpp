// Per-node ARiA protocol engine (paper §III).
//
// One AriaNode = one grid machine: its resource profile, its local
// scheduler (any policy), a single-slot executor, and the protocol state
// machine for all four message types. Nodes interact only through the
// Network (messages) and read only their own overlay neighbor list, so the
// implementation is faithful to a fully distributed deployment even though
// it runs in one process.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/counters.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/uuid.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/observer.hpp"
#include "grid/job.hpp"
#include "grid/resources.hpp"
#include "overlay/flooding.hpp"
#include "overlay/liveness.hpp"
#include "overlay/topology.hpp"
#include "sched/reputation.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace aria::proto {

/// Everything a node needs from its environment; all pointers are non-owning
/// and must outlive the node.
struct NodeContext {
  sim::Simulator* sim{nullptr};
  sim::Network* net{nullptr};
  const overlay::Topology* topo{nullptr};
  overlay::FloodRelay* relay{nullptr};
  const AriaConfig* config{nullptr};
  const grid::ErtErrorModel* ert_error{nullptr};
  ProtocolObserver* observer{nullptr};  // may be null
  /// Optional shared gauge of idle nodes: the node adds/removes itself as
  /// its idle() state flips, so the engine samples utilization in O(1)
  /// instead of scanning every node. Must outlive the node.
  std::size_t* idle_gauge{nullptr};
  /// Mutable topology handle for the self-healing plane: eviction drops the
  /// overlay link, repair re-adds one. Required (and only consulted) when
  /// config->healing.enabled; the plane models both endpoints updating
  /// their local neighbor sets, which the simulation stores as their union
  /// (see overlay/topology.hpp).
  overlay::Topology* healing_topo{nullptr};
  /// Fault plane handle for adversary-role designation (docs/adversary.md):
  /// the node asks once at construction whether it misbehaves, and how. May
  /// be null (fault-free runs) — the node is then honest.
  const sim::FaultPlane* faults{nullptr};
  /// Upper bound on the grid size (initial nodes plus any expansion
  /// target), for the defense plane's digest conservation clamp — the same
  /// ground truth the audit plane checks against. A deployment would learn
  /// an approximate grid size through membership gossip; the engine hands
  /// the exact one. 0 disables the population bound (idle/backlog sanity
  /// checks still apply).
  std::size_t grid_size{0};
};

class AriaNode {
 public:
  AriaNode(NodeContext ctx, NodeId self, grid::NodeProfile profile,
           std::unique_ptr<sched::LocalScheduler> scheduler, Rng rng,
           std::string virtual_org = {});
  ~AriaNode();
  AriaNode(const AriaNode&) = delete;
  AriaNode& operator=(const AriaNode&) = delete;

  /// Attaches to the network and starts the INFORM timer. Call once.
  void start();

  /// Detaches from the network and cancels timers (node departure).
  void stop();

  /// Simulates a node failure: detaches from the network and wipes all
  /// volatile state — the queue, the executing job, in-flight discovery
  /// rounds, advertisements and delegation retries. The failsafe watchdog
  /// table for jobs this node *initiated* survives (it models the user's
  /// stable storage), so a restarted initiator resumes supervising its
  /// jobs. Driven by the fault plane's churn schedule.
  void crash();

  /// Rejoins after a crash: reattaches, restarts the INFORM timer, and
  /// re-arms every surviving failsafe watchdog.
  void restart();

  bool crashed() const { return crashed_; }

  /// User entry point: this node becomes the initiator of `job`.
  void submit(grid::JobSpec job);

  /// Places `job` directly into this node's queue, bypassing the discovery
  /// protocol. Used by the centralized baseline and by tests; fires the same
  /// Assigned observer event as a protocol delegation.
  void deliver_assignment(const grid::JobSpec& job, NodeId initiator,
                          bool reschedule = false);

  /// Removes a queued (not executing) job and drops its bookkeeping. The
  /// counterpart of deliver_assignment for external meta-schedulers; keeps
  /// the idle gauge and initiator map consistent. Returns false if the job
  /// is not queued here.
  bool remove_queued(const JobId& id);

  /// Cost this node would quote for `job` right now (the ACCEPT value).
  double quote(const grid::JobSpec& job) const { return my_cost(job); }

  // --- introspection (metrics, tests) ----------------------------------
  NodeId id() const { return self_; }
  const grid::NodeProfile& profile() const { return profile_; }
  const std::string& virtual_org() const { return vo_; }
  sched::LocalScheduler& scheduler() { return *sched_; }
  const sched::LocalScheduler& scheduler() const { return *sched_; }

  bool executing() const { return running_.has_value(); }
  std::size_t queue_length() const { return sched_->size(); }
  /// Idle = up, not executing, and nothing queued (Fig. 3's utilization
  /// metric; a crashed node is down, not idle).
  bool idle() const { return !crashed_ && !executing() && sched_->empty(); }

  /// Estimated remaining runtime of the executing job (>= 0; based on ERTp,
  /// since the actual running time is unknown until completion).
  Duration running_remaining() const;

  /// Can this node, by profile and cost-family, bid on `job` at all?
  bool can_bid(const grid::JobSpec& job) const;

  /// Protocol-event counters (fields: ARIA_NODE_COUNTERS,
  /// common/counters.hpp; docs/counters.md).
  struct Counters {
    ARIA_NODE_COUNTERS(ARIA_COUNTER_FIELD)
  };
  const Counters& counters() const { return counters_; }

  /// Self-healing plane: this node's local liveness view of its overlay
  /// neighbors (empty when healing is off). See docs/overlay.md.
  const overlay::NeighborView& neighbor_view() const { return view_; }

  /// Failsafe: number of initiated jobs still being watched (not yet
  /// known-completed). Always 0 when config.failsafe is off.
  std::size_t watched_jobs() const { return watched_.size(); }
  /// Failsafe introspection for tests: is this initiated job still watched,
  /// and does it have a live watchdog timer?
  bool watching(const JobId& id) const { return watched_.contains(id); }
  bool watchdog_armed(const JobId& id) const {
    const auto it = watched_.find(id);
    return it != watched_.end() && it->second.timer.pending();
  }
  /// Does this node currently hold the job (queued or executing)?
  bool holds(const JobId& id) const {
    return sched_->contains(id) ||
           (running_ && running_->job.spec.id == id);
  }
  /// Is a discovery round or an unacknowledged delegation in flight here?
  bool discovering(const JobId& id) const {
    return pending_requests_.contains(id) || pending_assigns_.contains(id);
  }
  /// Overload plane: is this shed job still waiting for an INFORM offer?
  bool shedding(const JobId& id) const { return shed_jobs_.contains(id); }
  /// Overload plane: is this node currently withholding ACCEPT replies?
  bool bids_suppressed() const { return bids_suppressed_; }
  /// Hierarchy plane: is this node an aggregator candidate of its region?
  /// (Constant false when the plane is off.)
  bool region_aggregator() const;
  /// Hierarchy plane: this node's region under the configured partition.
  std::uint32_t my_region() const;
  /// Hierarchy plane: the freshest digest this aggregator holds for
  /// `region`, if any (tests/metrics).
  std::optional<overlay::RegionDigest> region_digest_of(
      std::uint32_t region) const;
  /// Overload plane: remaining runtime of the executing job plus the ERTp
  /// of everything queued — the admission-watermark quantity.
  Duration backlog_duration() const {
    return running_remaining() + sched_->backlog();
  }
  /// Adversary plane: this node's designated misbehavior, if any (cached
  /// from the fault plane at construction; nullopt = honest).
  std::optional<sim::FaultConfig::Adversary::Role> adversary_role() const {
    return adv_role_;
  }
  /// Defense plane: the promise-vs-delivery score this node holds for
  /// `subject` (kInitialReputation when never observed).
  double reputation_of(NodeId subject) const {
    return reputation_.score(subject);
  }
  /// Failsafe: completion receipts currently held (TTL-sweep test hook).
  std::size_t completion_receipts() const { return completed_here_.size(); }

 private:
  struct PendingRequest {
    grid::JobSpec spec;
    std::vector<proto::AcceptMsg> offers;  // reusing the message as a record
    sim::EventHandle timeout;
    std::size_t attempt{1};
    /// Failsafe recovery of a job whose earlier ASSIGN was confirmed: the
    /// eventual re-assignment is a reschedule, not a first delegation.
    bool recovery_reschedule{false};
    /// When a departing assignee's delegation fails (ACK retries exhausted)
    /// it re-floods on the original initiator's behalf; the eventual ASSIGN
    /// must still carry that initiator, not this node.
    NodeId on_behalf_of{};
    /// Hierarchy plane: this round already solicited a cross-region offer
    /// because the best local one was poor (kDelegateCostThreshold). One
    /// extra collection window per round, never more.
    bool remote_round{false};
    /// Consecutive rounds that ended with zero offers AND no sign of life
    /// from the escalation path. Feeds sustained_silence(): a long enough
    /// streak means every aggregator candidate may be dead, so widen the
    /// flood early instead of waiting for kWideFloodEvery.
    std::size_t silent_rounds{0};
  };
  struct PendingInform {
    double advertised_cost{0.0};
  };
  /// Failsafe bookkeeping for a job this node initiated (config.failsafe).
  struct Watchdog {
    grid::JobSpec spec;
    sim::EventHandle timer;
    /// Absolute expiry, persisted across the initiator's own crashes
    /// (stable storage). restart() must NOT restart the full span from
    /// `now`: under periodic churn with an uptime shorter than the span
    /// the watchdog would be re-armed forever and never fire.
    TimePoint deadline{};
    NodeId last_known{};       // most recent assignee we heard from
    bool assign_confirmed{false};  // some node confirmed queueing the job
    std::size_t recoveries{0};
    // --- defense plane (docs/adversary.md; untouched when it is off) -----
    /// The winning quote and when it was granted: the promise the straggler
    /// deadline and the reputation ledger hold the assignee to.
    double quoted_cost{0.0};
    TimePoint assigned_at{};
    /// Runner-up of the deciding round — the hedge target. Invalid when the
    /// round had a single offer.
    NodeId runner_up{};
    double runner_up_cost{0.0};
    /// Hedged re-dispatches already spent (bounded by hedge_budget).
    std::size_t hedges{0};
    /// Revoke-before-grant state: a kRevoke is in flight to last_known and
    /// the hedge waits for its kRevokeAck (or retry exhaustion).
    bool revoke_pending{false};
    std::size_t revoke_sends{0};
    sim::EventHandle straggler_timer;
    sim::EventHandle revoke_timer;
  };
  struct Running {
    sched::QueuedJob job;
    TimePoint started;
    Duration art;
    sim::EventHandle completion;
  };
  /// A shed job awaiting an INFORM offer (overload plane). The job is no
  /// longer in the queue; this buffer is its only home until an offer or
  /// the fallback timer moves it on.
  struct ShedJob {
    grid::JobSpec spec;
    NodeId initiator{};
    sim::EventHandle timer;
  };
  /// One unacknowledged delegation attempt (AriaConfig::assign_ack).
  struct PendingAssign {
    grid::JobSpec spec;
    NodeId target{};
    NodeId initiator{};
    bool reschedule{false};
    Uuid assign_id{};
    /// Defense plane: this attempt is a hedged re-dispatch; retransmissions
    /// must keep the wire flag so the auditor's hedge meter sees them.
    bool hedge{false};
    std::size_t sends{1};
    sim::EventHandle timer;
  };

  /// Hands `event` to the observer (if any), stamped with the current time.
  void emit(const ProtocolEvent& event) {
    if (ctx_.observer) ctx_.observer->on_event(ctx_.sim->now(), event);
  }

  void handle(sim::Envelope env);
  void on_request(NodeId from, const RequestMsg& msg);
  void on_accept(const AcceptMsg& msg);
  void on_inform(NodeId from, const InformMsg& msg);
  void on_assign(NodeId from, const AssignMsg& msg);
  void on_assign_ack(const AssignAckMsg& msg);
  void assign_ack_expired(const JobId& id);
  void on_notify(const NotifyMsg& msg);

  // --- floods and bids -----------------------------------------------------
  /// Starts a flood originating here: a fresh id drawn from `rng` (the
  /// caller's plane stream), marked seen so echoes are dropped, with its
  /// dedup GC scheduled. Returns the meta for a `hops`-hop budget.
  FloodMeta open_flood(Rng& rng, std::size_t hops);
  /// Relays a received flood one hop on: nothing once its hop budget is
  /// spent, else a copy with one hop less to each flood target, excluding
  /// the sender and the origin. `forwarded` (may be null) counts the copies.
  template <class Msg>
  void forward_flood(NodeId from, const Msg& msg, std::size_t fanout,
                     std::uint64_t* forwarded, bool wide = false);
  /// INFORM burst for a held or shed job at its advertised_cost; returns
  /// the advertised cost.
  double advertise(const grid::JobSpec& spec, double true_cost);
  /// One ACCEPT quoting `cost` for `job`, counted and observed.
  void send_accept(const JobId& job, NodeId to, double cost);
  /// The gated ACCEPT answer to a REQUEST-shaped flood: bids bid_cost(job)
  /// to `to` when this node can run the job and is not saturated. Returns
  /// whether an ACCEPT went out.
  bool offer_bid(const grid::JobSpec& job, NodeId to);
  /// Opens a discovery round (attempt 1) for a job this node holds no round
  /// for. A valid `initiator` other than this node is recorded as the party
  /// the eventual ASSIGN acts for; `reschedule` marks that ASSIGN as moving
  /// an already-placed job.
  void rediscover(grid::JobSpec spec, NodeId initiator, bool reschedule);
  /// Moves a job this node gave up to `target`: tells the initiator where it
  /// went (when notifications are on), then delegates as a reschedule.
  void reassign(const grid::JobSpec& spec, NodeId initiator, NodeId target);
  /// Lifecycle NOTIFY to `to`, applied locally when `to` is this node.
  void send_notify(NodeId to, NotifyMsg::Kind kind, const JobId& id,
                   NodeId assignee);

  // --- overload plane (docs/overload.md) ---------------------------------
  bool overload_on() const { return ctx_.config->overload.enabled; }
  /// Is the backlog over the admission watermark right now?
  bool admission_over() const;
  /// The gate at every bid site: updates the bid-suppression hysteresis
  /// from the current backlog and returns true, counted as a suppressed
  /// bid, while this node withholds ACCEPTs. Called exactly where a bid
  /// decision is made, so the gate is always fresh without extra events.
  /// Always false with the plane off.
  bool withhold_bid();
  void on_reject(const RejectMsg& msg);
  /// Shared by on_reject and the local self-assign refusal: tears down any
  /// ACK bookkeeping for the attempt and rediscovers on the initiator's
  /// behalf (unless the job already found a home here).
  void handle_reject(const grid::JobSpec& spec, NodeId initiator,
                     bool reschedule);
  /// Shed-and-forward: re-advertises the victim via an immediate INFORM
  /// burst, falling back to a discovery round after shed_offer_timeout.
  void shed_job(sched::QueuedJob&& victim);
  void shed_offer_expired(const JobId& id);

  // --- hierarchy plane (docs/hierarchy.md) --------------------------------
  bool hierarchy_on() const { return ctx_.config->hierarchy.enabled; }
  /// Dispatches REGION_* messages; false if `type` is not one of them.
  bool handle_region(NodeId from, const sim::Message& m,
                     sim::MessageTypeId type);
  /// Region-scoped flood target pick when the plane is on; the plain
  /// pick_targets otherwise (identical RNG draws to pre-plane code).
  /// `wide` drops the region filter for scope-widened REQUEST floods.
  std::vector<NodeId> flood_targets(std::size_t fanout,
                                    NodeId exclude_a = kInvalidNode,
                                    NodeId exclude_b = kInvalidNode,
                                    bool wide = false);
  /// Should discovery attempt `attempt` (1-based) flood without the region
  /// filter? (kWideFloodEvery; always false with the plane off)
  bool wide_flood(std::size_t attempt) const;
  /// Has `pending` gone silent for kEscalateSilentRounds rounds while the
  /// fault plane runs against the hierarchy? Then the next flood widens
  /// early and the retry backoff is capped (docs/hierarchy.md "Failure
  /// modes"); fault-free runs never escalate.
  bool sustained_silence(const PendingRequest& pending) const;
  /// This node's current load, as a member reports it to its aggregators.
  overlay::MemberLoad member_load() const;
  /// Periodic member → candidate load report.
  void region_report_tick();
  /// Periodic aggregate broadcast (aggregator candidates only).
  void region_digest_tick();
  void on_region_load(const RegionLoadMsg& msg);
  void on_region_digest(const RegionDigestMsg& msg);
  void on_region_query(const RegionQueryMsg& msg);
  void on_region_fwd(const RegionFwdMsg& msg);
  void on_region_pull(NodeId from, const RegionPullMsg& msg);
  /// Cold-restart discipline: floods a REGION_PULL through the region so
  /// members answer with immediate out-of-cycle REGION_LOADs.
  void solicit_region_reports();
  /// Is this aggregator candidate still inside its post-restart warm-up
  /// (no fresh member report since it came back)?
  bool aggregator_cold() const;
  /// Escalates an unsatisfied discovery round to the own-region aggregator
  /// whose rank rotates with the attempt number (failover by retry).
  void send_region_query(const grid::JobSpec& spec, std::size_t attempt);
  /// Aggregator side of a query: pick a target region from the digest table
  /// (rotating with `attempt` so repeated retries sweep regions) and forward.
  /// A cold or digest-less candidate hands the query to the next rank
  /// instead (bounded by `handoffs`, see RegionQueryMsg::handoffs).
  void serve_region_query(NodeId initiator, const grid::JobSpec& spec,
                          std::uint32_t attempt, std::uint32_t handoffs);

  // --- self-healing plane (docs/overlay.md) ------------------------------
  /// One probe round: re-syncs the view against the overlay neighbor list,
  /// records misses (suspect/evict), pings every tracked peer without an
  /// outstanding probe, then tops the live degree back up via repair.
  void probe_tick();
  void on_ping(NodeId from, const PingMsg& msg);
  void on_pong(const PongMsg& msg);
  void on_link_req(NodeId from, const LinkReqMsg& msg);
  void on_link_ack(const LinkAckMsg& msg);
  /// Evicts `peer`: drops the overlay link and forgets the view entry.
  void evict_neighbor(NodeId peer);
  /// While the live degree sits below the floor, spends cached contacts on
  /// LINK_REQ attempts (bounded per round).
  void maybe_repair();
  /// Bounded live-neighbor sample piggybacked on PONG / LINK_ACK.
  std::vector<NodeId> contact_sample();

  /// Failsafe: sends (or locally applies) a lifecycle NOTIFY to the job's
  /// initiator.
  void notify_initiator_of(const JobId& id, NotifyMsg::Kind kind);
  void arm_watchdog(const JobId& id);
  void watchdog_expired(const JobId& id);
  /// Failsafe: lazy TTL sweep of completion receipts (kCompletionReceiptTtl;
  /// called from the periodic inform tick, mirroring flood-dedup GC).
  void sweep_completion_receipts();

  // --- adversary + defense planes (docs/adversary.md) ---------------------
  bool defense_on() const { return ctx_.config->defense.enabled; }
  bool adv_is(sim::FaultConfig::Adversary::Role role) const {
    return adv_role_ == role;
  }
  /// The configured lie magnitude (1.0 when no adversary plan is armed, so
  /// honest paths dividing by it are no-ops).
  double lie_factor() const;
  /// The cost this node *claims* when bidding (ACCEPT quote sites):
  /// my_cost for honest nodes, my_cost / lie_factor for underbidders.
  double bid_cost(const grid::JobSpec& job);
  /// The cost this node *advertises* for a held job (INFORM sites):
  /// truthful for honest nodes, deflated for free-riders.
  double advertised_cost(double true_cost);
  /// Reputation-discounted ranking cost of an offer: quoted cost divided by
  /// the bidder's credibility (floored). Identity when the defense is off.
  double discounted_cost(const AcceptMsg& offer) const;
  /// Folds a promise-vs-delivery outcome for `subject` into the ledger,
  /// emits a Reputation event, and evicts the peer on crossing the suspicion
  /// threshold. No-op when the defense plane is off.
  void observe_reputation(NodeId subject, double outcome);
  /// Arms (or re-arms) the straggler deadline of a watched job from its
  /// recorded quote. No-op unless the defense plane is on.
  void arm_straggler(const JobId& id);
  /// Straggler deadline fired: open the revoke-before-grant window.
  void straggler_expired(const JobId& id);
  /// kRevoke retransmission timer fired: retry or treat as an ignored
  /// revoke (score 0) and hedge anyway.
  void revoke_expired(const JobId& id);
  /// Sends one kRevoke NOTIFY to the last known assignee and arms the
  /// retransmission timer.
  void send_revoke(const JobId& id);
  /// Revoke window closed (kRevokeAck or retries exhausted): duplicate the
  /// ASSIGN to the recorded runner-up, within hedge_budget.
  void dispatch_hedge(const JobId& id);
  /// Assignee side of a kRevoke NOTIFY: replay the receipt if completed,
  /// defend with kStarted if running, hand the job back with kRevokeAck if
  /// queued (or unknown).
  void handle_revoke(const NotifyMsg& msg);

  /// Re-syncs this node's contribution to ctx_.idle_gauge after any queue
  /// or executor transition.
  void sync_idle_gauge();

  void flood_request(const grid::JobSpec& spec, std::size_t attempt);
  void decide_assignment(const JobId& id);
  void send_assign(NodeId target, const grid::JobSpec& spec, NodeId initiator,
                   bool reschedule, bool hedge = false);
  void accept_job(const grid::JobSpec& spec, NodeId initiator, bool reschedule);
  void inform_tick();
  void kick_executor();
  void complete_running();
  /// Records `id` in a dedup set and schedules its removal after
  /// kAssignDedupGcDelay; false if it was already there.
  bool first_sighting(std::unordered_set<Uuid>& seen, const Uuid& id);

  double my_cost(const grid::JobSpec& job) const;

  NodeContext ctx_;
  NodeId self_;
  grid::NodeProfile profile_;
  std::unique_ptr<sched::LocalScheduler> sched_;
  Rng rng_;
  std::string vo_;

  std::optional<Running> running_;
  std::unordered_map<JobId, PendingRequest> pending_requests_;
  std::unordered_map<JobId, PendingInform> pending_informs_;
  std::unordered_map<JobId, Watchdog> watched_;
  /// Delegations awaiting an ASSIGN_ACK (empty when assign_ack is off).
  std::unordered_map<JobId, PendingAssign> pending_assigns_;
  /// Assign ids already accepted, so retransmissions and network duplicates
  /// re-ACK without re-enqueueing (entries GC after kAssignDedupGcDelay).
  std::unordered_set<Uuid> acked_assigns_;
  /// Initiator address for every job currently queued or running here.
  std::unordered_map<JobId, NodeId> initiator_of_;
  /// Jobs this node ran to completion (failsafe only), with the completion
  /// time. Like watched_ on the initiator side, the receipt models stable
  /// storage and survives crashes: a failsafe recovery flood for one of
  /// these jobs means the completion NOTIFY never landed, and the answer is
  /// a replayed receipt, not a bid for a second execution. Receipts older
  /// than kCompletionReceiptTtl are dropped by a lazy sweep inside the
  /// periodic inform tick (no extra events) — no recovery flood can arrive
  /// once the initiator's watchdog budget is spent, so expired receipts are
  /// dead weight.
  std::unordered_map<JobId, TimePoint> completed_here_;
  /// Overload plane: shed jobs waiting out their INFORM burst.
  std::unordered_map<JobId, ShedJob> shed_jobs_;
  /// REJECT ids already acted on, so network duplicates of one refusal do
  /// not spawn competing discovery rounds (GC'd like acked_assigns_).
  std::unordered_set<Uuid> seen_rejects_;

  sim::EventHandle inform_timer_;
  sim::EventHandle reservation_wake_;
  bool started_{false};
  bool crashed_{false};
  bool counted_idle_{false};  // current contribution to ctx_.idle_gauge
  /// Overload-plane hysteresis: true while this node withholds ACCEPTs.
  bool bids_suppressed_{false};
  Counters counters_;

  // --- adversary + defense plane state ------------------------------------
  /// This node's designated misbehavior, asked of the fault plane once at
  /// construction (stateless hash — no RNG draws). nullopt = honest.
  std::optional<sim::FaultConfig::Adversary::Role> adv_role_{};
  /// Promise-vs-delivery ledger over past delegation targets. Constructed
  /// from config but only written when the defense plane is on.
  sched::ReputationLedger reputation_;

  // --- self-healing plane state (all inert when healing is off) ----------
  overlay::NeighborView view_;
  sim::EventHandle probe_timer_;
  /// Probe-plane randomness is a separate stream seeded from the node id
  /// only: gossip samples and probe phases never perturb the protocol RNG,
  /// so healing-off runs stay byte-identical whether or not the plane is
  /// compiled in.
  Rng probe_rng_;
  /// Neighbor addresses snapshotted at crash time (stable storage): the
  /// rejoin path LINK_REQs them on restart.
  std::vector<NodeId> stable_contacts_;
  std::uint32_t probe_seq_{0};

  // --- hierarchy plane state (all inert when the plane is off) ------------
  /// A member's latest load report, held by aggregator candidates.
  struct MemberReport {
    overlay::MemberLoad load;
    TimePoint received{};
  };
  /// A remote region's latest digest, held by aggregator candidates.
  struct DigestEntry {
    overlay::RegionDigest digest;
    TimePoint received{};
  };
  /// Member reports by slot id / R: members of one region share id mod R,
  /// so slots are in id order (the digest's float sum relies on it).
  std::vector<std::optional<MemberReport>> member_loads_;
  /// `member`'s slot in member_loads_, grown on first use.
  std::optional<MemberReport>& member_report(NodeId member);
  std::unordered_map<std::uint32_t, DigestEntry> digest_table_;
  sim::EventHandle report_timer_;
  sim::EventHandle digest_timer_;
  /// Monotone per-aggregator digest sequence (informational; survives
  /// crashes so restarted aggregators never reuse an epoch).
  std::uint64_t digest_epoch_{0};
  /// Cold-restart discipline (kAggregatorWarmup): set on the restart path
  /// only — fault-free runs never touch it — and cleared by the first fresh
  /// REGION_LOAD or by the warm-up deadline passing. While cold the
  /// candidate refuses to serve REGION_QUERYs on stale state and hands them
  /// to the next rank.
  bool agg_cold_{false};
  TimePoint cold_until_{};
  /// Hierarchy-plane randomness is its own stream seeded from the node id
  /// only, same discipline as probe_rng_: timer phases never perturb the
  /// protocol RNG tree, so hierarchy-off runs stay byte-identical.
  Rng hier_rng_;
};

}  // namespace aria::proto
