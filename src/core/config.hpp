// ARiA protocol parameters. Defaults reproduce the paper's baseline
// configuration (§IV-E): REQUEST floods of 9 hops / fanout 4, INFORM floods
// of 8 hops / fanout 2, at most 2 jobs advertised every 5 minutes, and a
// 3-minute improvement threshold for rescheduling.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/time.hpp"
#include "overlay/liveness.hpp"

namespace aria::proto {

/// Shared discovery-retry policy (docs/protocol.md §1). Both discovery
/// schemes — ARiA's REQUEST re-floods and the gossip baseline's cache-miss
/// retries — give up the same way: wait, try again, declare the job
/// unschedulable after a bounded number of attempts. One struct keeps the
/// two knob sets from drifting apart.
struct DiscoveryRetryPolicy {
  /// Base wait before the next attempt.
  Duration backoff{Duration::seconds(10)};
  /// The wait doubles per attempt up to backoff * max_backoff_factor;
  /// 1 means a fixed interval (the gossip baseline's historical behavior).
  std::size_t max_backoff_factor{8};
  /// Attempts before the job is declared unschedulable (0 = retry forever).
  std::size_t max_attempts{25};

  /// Wait after attempt `attempt` (1-based) drew no candidate.
  Duration wait_after(std::size_t attempt) const {
    std::size_t factor = max_backoff_factor;
    if (attempt >= 1 && attempt - 1 < 63) {
      factor = std::min(max_backoff_factor, std::size_t{1} << (attempt - 1));
    }
    return backoff * static_cast<std::int64_t>(factor);
  }
  /// Was `attempt` (1-based) the last one allowed?
  bool exhausted(std::size_t attempt) const {
    return max_attempts != 0 && attempt >= max_attempts;
  }
};

/// Overload-robustness plane (docs/overload.md): bounded queues, admission
/// control with an explicit REJECT answer, cost-aware bid suppression, and
/// shed-and-forward rescheduling. Off by default — with the plane off queues
/// are unbounded, no REJECT traffic exists, and runs stay byte-identical to
/// the unhardened protocol.
struct OverloadParams {
  bool enabled{false};
  /// Queue bound = max(1, round(capacity_per_perf * performance_index)):
  /// faster machines drain faster, so they may hold proportionally more.
  double capacity_per_perf{6.0};
  /// Admission watermark in backlog terms (remaining runtime of the
  /// executing job + ERTp of everything queued): an ASSIGN arriving while
  /// the backlog exceeds this is answered with REJECT instead of silently
  /// enqueued. Length-bounded sheds catch short-job pileups; this cost
  /// watermark catches long-job ones.
  Duration admission_backlog{Duration::hours(10)};
  /// Cost-aware bidding hysteresis: stop answering REQUEST/INFORM once the
  /// backlog exceeds kBidStop * admission_backlog, resume only after it
  /// drains below kBidResume * admission_backlog (no flapping around one
  /// threshold).
  static constexpr double kBidStop = 0.75;
  static constexpr double kBidResume = 0.5;
  /// How long a shed job's INFORM burst collects offers before falling back
  /// to a discovery round on the initiator's behalf.
  static constexpr Duration kShedOfferTimeout = Duration::seconds(10);
};

/// Hierarchical discovery plane (docs/hierarchy.md): the overlay is
/// partitioned into regions (region(n) = n mod region_count), REQUEST/INFORM
/// floods stay inside the sender's region, and discovery rounds that drew no
/// offers delegate cross-region through designated aggregator super-peers
/// exchanging periodic load digests — replacing global flood reach with
/// region-local traffic plus O(regions²) digest aggregates. Off by default:
/// with the plane off no REGION_* message exists, floods pick targets exactly
/// as before, and runs stay byte-identical to flat ARiA.
struct HierarchyParams {
  bool enabled{false};
  /// Number of regions R. 0 = auto-size at build time so regions hold about
  /// `kTargetRegionSize` nodes; the engine writes the resolved value back
  /// here (see overlay::resolve_region_count for the clamping rules).
  std::size_t region_count{0};
  static constexpr std::size_t kTargetRegionSize = 128;
  /// Aggregator candidates per region (rank 0 = primary, the rest warm
  /// standbys). Failover is attempt-driven: retry k addresses candidate
  /// rank k mod kAggStandby, so a dead primary costs one backoff, not a
  /// view-change protocol.
  static constexpr std::size_t kAggStandby = 2;
  /// How often members report their load to their region's candidates.
  static constexpr Duration kLoadReportPeriod = Duration::minutes(5);
  /// How often candidates broadcast their region digest to every other
  /// region's candidates.
  static constexpr Duration kDigestPeriod = Duration::minutes(5);
  /// Member reports older than this are dropped from the digest (crashed
  /// members age out); received digests older than this are ignored when
  /// picking a delegation target.
  static constexpr Duration kStaleness = Duration::minutes(15);
  /// Cross-region delegation also triggers on *poor* rounds, not only empty
  /// ones: when the best region-local offer would add more than this to the
  /// job's completion (cost units — ETTC seconds for batch schedulers, NAL
  /// seconds for EDF), the initiator solicits one cross-region offer window
  /// before committing. Region-scoped discovery otherwise traps jobs in hot
  /// regions, and the queue backlog re-surfaces as per-job INFORM floods —
  /// exactly the traffic the digest plane is meant to replace.
  static constexpr Duration kDelegateCostThreshold = Duration::minutes(10);
  /// Scope widening: every Nth discovery attempt floods the REQUEST without
  /// the region filter. Digests are capability-blind — they steer by load,
  /// not by profile — so a job whose only matching machine hides in an
  /// unlucky region could otherwise burn every retry on wrong regions; the
  /// periodic wide flood restores flat ARiA's guarantee that feasible jobs
  /// are eventually discovered.
  static constexpr std::size_t kWideFloodEvery = 4;
  /// Intra-region average degree for bootstrap_hierarchical.
  static constexpr double kIntraDegree = 4.0;
  /// Random cross-region links per region at bootstrap (resilience only;
  /// region-scoped floods never traverse them).
  static constexpr std::size_t kCrossLinks = 2;

  // --- chaos hardening (docs/hierarchy.md "Failure modes") ---------------
  /// Cold-restart discipline for aggregator candidates: a restarted
  /// candidate has lost its member reports and digest table, so for up to
  /// this long it solicits fresh REGION_LOADs (a region-scoped REGION_PULL
  /// flood) and hands REGION_QUERYs off to the next-rank candidate instead
  /// of answering from an empty/stale table. Warmth returns early with the
  /// first fresh member report. Only the restart path consults this, so
  /// fault-free runs are untouched.
  static constexpr Duration kAggregatorWarmup = Duration::minutes(5);
  /// Early wide-flood escalation: after this many *consecutive* discovery
  /// rounds with zero offers (region-local flood and cross-region
  /// delegation both silent — the signature of a fully dead candidate
  /// list), the next flood widens immediately instead of waiting for the
  /// kWideFloodEvery rotation. Armed only while the fault plane runs
  /// alongside the hierarchy (AriaNode::sustained_silence), so fault-free
  /// hierarchy runs stay byte-identical to the unhardened plane.
  static constexpr std::size_t kEscalateSilentRounds = 2;
  /// Backoff cap once sustained silence is detected: while a request's
  /// consecutive silent-round count is at or past kEscalateSilentRounds,
  /// the exponential retry backoff factor is clamped to this value, so a
  /// job facing a dead candidate list retries on a short, bounded cadence
  /// instead of the full exponential curve. Armed with the escalation.
  static constexpr std::size_t kSilentBackoffFactorCap = 2;
};

/// Adversarial-defense plane (docs/adversary.md): a promise-vs-delivery
/// reputation ledger at every initiator, credibility-discounted bid ranking,
/// suspicion-driven neighbor eviction, straggler detection with revoke-then-
/// hedge re-dispatch, and digest sanity clamping. Off by default — with the
/// plane off no ledger exists, rankings are the plain lowest-cost rule, and
/// runs stay byte-identical to the undefended protocol.
struct DefenseParams {
  bool enabled{false};
  /// EWMA weight of one promise-vs-delivery observation. Also the auditor's
  /// per-update movement bound (reputation-monotonicity check). 0.3 lets two
  /// broken promises (score 1.0 -> 0.7 -> 0.49) cross the suspicion
  /// threshold — fast enough that a black hole is distrusted well inside the
  /// failsafe recovery budget, slow enough that one unlucky overrun is not a
  /// conviction.
  static constexpr double kReputationAlpha = 0.3;
  /// Score assumed for nodes never observed (fresh grids are trusted).
  static constexpr double kInitialReputation = 1.0;
  /// Discount floor: bid ranking divides quoted cost by
  /// max(reputation, floor), so a zero-reputation node is penalized
  /// 1/floor-fold instead of infinitely (it may still win an empty round).
  static constexpr double kReputationFloor = 0.05;
  /// Below this score a node's offers are skipped outright and, when the
  /// healing plane runs, the offender is evicted from the flood overlay.
  static constexpr double kSuspicionThreshold = 0.5;
  /// Straggler deadline = assignment time + quoted cost * straggler_factor
  /// + straggler_min_overdue: how far past its own quote an assignee may run
  /// before the initiator revokes and hedges. The additive term keeps short
  /// jobs from being revoked over scheduling jitter.
  double straggler_factor{3.0};
  Duration straggler_min_overdue{Duration::minutes(10)};
  /// Hedged re-dispatches allowed per job. The auditor enforces this bound
  /// on the wire (hedge-budget check).
  static constexpr std::size_t kHedgeBudget = 1;
};

struct AriaConfig {
  // --- submission phase -----------------------------------------------
  std::size_t request_hops{9};
  std::size_t request_fanout{4};
  /// How long an initiator collects ACCEPT offers before deciding.
  Duration accept_timeout{Duration::seconds(5)};
  /// Re-flood policy for REQUESTs that drew no offers: 10s base backoff
  /// doubling per attempt (capped at 8x), at most 25 attempts.
  DiscoveryRetryPolicy retry{};
  /// May the initiator offer itself as a candidate when it matches?
  bool initiator_self_candidate{true};

  // --- dynamic rescheduling phase --------------------------------------
  /// Master switch: the plain scenarios in Table II run with this off, the
  /// i-scenarios with it on.
  bool dynamic_rescheduling{true};
  std::size_t inform_hops{8};
  std::size_t inform_fanout{2};
  Duration inform_period{Duration::minutes(5)};
  /// Jobs advertised per period ("at most 2 scheduled jobs every 5
  /// minutes"; iInform1/iInform4 vary this).
  std::size_t inform_jobs_per_period{2};
  /// Minimum cost improvement a remote node must guarantee before proposing
  /// itself (iInform15m/iInform30m vary this). Interpreted in cost units,
  /// i.e. seconds of ETTC for batch schedulers and NAL seconds for EDF.
  Duration reschedule_threshold{Duration::minutes(3)};
  /// Notify the initiator when its job moves (paper: "may be notified").
  /// Off by default so the traffic breakdown matches Fig. 10's four types.
  bool notify_initiator{false};

  // --- failsafe extension (paper §III-D mentions "failsafe mechanisms in
  // the event of an assignee's crash" as the purpose of initiator
  // notifications; this implements one) ----------------------------------
  /// When on, the initiator tracks each job it submitted: assignees report
  /// rescheduling, execution start, and completion via NOTIFY messages. If
  /// no completion arrives by the watchdog deadline, the initiator assumes
  /// the assignee crashed and re-floods the REQUEST. Implies NOTIFY
  /// traffic (metered separately from Fig. 10's four types).
  bool failsafe{false};
  /// Watchdog deadline = inform_period * factor + margin + accept_timeout,
  /// re-armed on every NOTIFY. Assignees heartbeat every inform_period
  /// while they hold the job, so `factor` is the number of consecutive
  /// heartbeats the initiator tolerates losing before presuming the
  /// assignee dead; the deadline deliberately does NOT scale with the
  /// job's ERT (crash detection on a long job would otherwise take hours).
  double failsafe_factor{3.0};
  Duration failsafe_margin{Duration::minutes(30)};
  /// After this many recovery re-floods the initiator stops watching the
  /// job (prevents an unbounded retry loop for unschedulable work).
  std::size_t failsafe_max_recoveries{8};
  /// How long an executor keeps a completion receipt (completed_here_)
  /// before the periodic sweep drops it. Receipts exist to answer failsafe
  /// recovery floods with a replay instead of a second execution, and no
  /// recovery flood can arrive once the initiator's watchdog budget is
  /// exhausted — 12 h comfortably exceeds failsafe_max_recoveries watchdog
  /// spans plus margins.
  static constexpr Duration kCompletionReceiptTtl = Duration::hours(12);

  // --- acknowledged delegation (lossy-network hardening) -----------------
  /// When on, every ASSIGN carries an attempt UUID and the receiver replies
  /// with ASSIGN_ACK; a missing ACK triggers retransmission and, once
  /// assign_max_retries is exhausted, a fresh discovery round. Off by
  /// default: on a reliable network ASSIGNs cannot vanish, and the extra
  /// ACK type would distort the Fig. 10 traffic breakdown.
  bool assign_ack{false};
  /// How long the delegator waits for an ASSIGN_ACK before retransmitting.
  Duration assign_ack_timeout{Duration::seconds(10)};
  /// Retransmissions to the same target before falling back to a new
  /// discovery round (the target is presumed dead).
  std::size_t assign_max_retries{2};
  /// How long a receiver remembers acknowledged assign ids so delayed
  /// retransmissions and network duplicates stay idempotent.
  static constexpr Duration kAssignDedupGcDelay = Duration::minutes(5);

  // --- self-healing overlay plane (docs/overlay.md) ----------------------
  /// PING/PONG liveness probing, dead-neighbor eviction, and churn-aware
  /// link repair. Off by default: with healing off nodes send no probe
  /// traffic at all, keeping fault-free runs byte-identical.
  overlay::HealingParams healing{};

  // --- overload-robustness plane (docs/overload.md) ----------------------
  /// Bounded queues, admission REJECTs, bid suppression under saturation,
  /// and shed-and-forward. Off by default with the same byte-identity
  /// contract as the fault and healing planes.
  OverloadParams overload{};

  // --- hierarchical discovery plane (docs/hierarchy.md) ------------------
  /// Region-scoped flooding plus cross-region delegation through digest-
  /// keeping aggregator super-peers. Off by default with the same
  /// byte-identity contract as every other plane.
  HierarchyParams hierarchy{};

  // --- adversarial-defense plane (docs/adversary.md) ---------------------
  /// Reputation-weighted bidding, straggler revoke-then-hedge, and digest
  /// clamping against misbehaving nodes. Off by default with the same
  /// byte-identity contract as every other plane.
  DefenseParams defense{};
};

}  // namespace aria::proto
