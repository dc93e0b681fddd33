// Online invariant auditor (docs/audit.md).
//
// The AuditCollector is one subscriber on each of the engine's two flat
// lists, like trace::TraceCollector: the run's proto::ObserverList (after
// the tracker and the tracer) and the sim::TapList feeding the Network, at
// sample_every 1 (invariants cannot be sampled). It forwards nothing and
// changes nothing, so attaching it never alters what the tracker — and
// therefore every golden metric — or the tracer sees. It checks protocol
// invariants *online* (duplicate completions, delegations without a
// matching offer, malformed region digests, recovery-budget overruns) and
// records any violation; finish() runs the end-of-run checks that need the
// horizon (unresolved cross-region delegations).
//
// A disabled audit plane constructs nothing: no collector and no
// subscriptions — zero cost and byte-identical output.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/observer.hpp"
#include "sim/network.hpp"

namespace aria::audit {

struct AuditConfig {
  bool enabled{false};
  /// Violations stored verbatim; the count keeps going past this cap so a
  /// pathological run cannot blow up memory on violation records.
  std::size_t max_recorded{64};
  /// A cross-region delegation still unresolved this close to the horizon
  /// is in-flight at shutdown, not stranded — no violation.
  static constexpr Duration kDelegationGrace = Duration::minutes(10);
};

/// Ground truth the engine hands the auditor at construction; everything
/// the digest-conservation checks compare wire claims against.
struct AuditContext {
  /// Upper bound on grid size (initial nodes plus any expansion target).
  std::size_t node_count{0};
  /// Resolved region count R; 0 when the hierarchy plane is off (digest
  /// checks are then skipped — no REGION_DIGEST can legitimately appear).
  std::uint32_t region_count{0};
  /// AriaConfig::failsafe_max_recoveries (0 = failsafe off; budget check
  /// skipped).
  std::size_t failsafe_max_recoveries{0};
  /// DefenseParams::kHedgeBudget when the defense plane is on; caps the
  /// hedged ASSIGNs any one job may carry on the wire. 0 = hedging off, so
  /// any hedge-flagged delegation is itself a violation.
  std::size_t hedge_budget{0};
  /// DefenseParams::kReputationAlpha when the defense plane is on; one
  /// reputation update may move a score by at most this much, measured
  /// from DefenseParams::kInitialReputation for a first update. 0 = the
  /// reputation checks are skipped (defense off).
  double reputation_alpha{0.0};
  /// Designated-adversary predicate (FaultPlane::adversary_role). Digest
  /// violations whose originator is an *expected* adversary are
  /// re-attributed to an informational counter instead of failing the run —
  /// the injection working as configured is not a protocol bug, while the
  /// same lie from an honest node still is.
  std::function<bool(NodeId)> expected_adversary{};
};

/// One invariant violation. `kind` is a stable machine-readable tag (the
/// sweep reports aggregate on it); `detail` is for humans.
struct Violation {
  std::string kind;
  std::string detail;
  TimePoint at{};
};

class AuditCollector final : public proto::ProtocolObserver,
                             public sim::MessageTap {
 public:
  AuditCollector(const AuditConfig& config, AuditContext ctx);

  /// End-of-run checks (unresolved delegations). Call once, at the horizon.
  void finish(TimePoint horizon);

  /// Total violations observed (not capped by max_recorded).
  std::uint64_t violation_count() const { return violation_count_; }
  /// The first max_recorded violations, in detection order.
  const std::vector<Violation>& violations() const { return violations_; }
  /// Violation totals per kind, name-sorted (stable report order).
  const std::map<std::string, std::uint64_t>& by_kind() const {
    return by_kind_;
  }
  /// Digest violations re-attributed to designated adversaries (the
  /// injection, not a protocol bug). Informational — not in
  /// violation_count().
  std::uint64_t expected_adversary_digests() const {
    return expected_adversary_digests_;
  }

  /// Runs the online checks an event is subject to.
  void on_event(TimePoint at, const proto::ProtocolEvent& event) override;

  /// Checks the wire claims the event stream never carries (digests,
  /// hedge flags).
  void on_message(NodeId from, NodeId to, const sim::Message& message,
                  TimePoint sent, TimePoint deliver, bool faulted) override;

 private:
  /// Per-job invariant state, keyed by JobId.
  struct JobAudit {
    bool terminal{false};       // completed / unschedulable / abandoned
    std::size_t completions{0};
    std::size_t recoveries{0};  // recovery events seen (watchdog + ACK paths)
    std::size_t hedges{0};      // distinct hedged delegations on the wire
    /// Hedge assign_ids already counted (ACK retransmissions reuse the id,
    /// so retries never double-bill the budget).
    std::vector<Uuid> hedge_ids;
    /// Every (collector, bidder) offer pair seen; a delegation from → to
    /// must match one (ASSIGN-without-ACCEPT check).
    std::vector<std::pair<NodeId, NodeId>> offers;
    /// Outstanding cross-region delegation, cleared by any later event for
    /// the job (offer, retry, recovery, terminal state).
    std::optional<TimePoint> pending_delegation{};
    TimePoint last_event{};
  };

  JobAudit& job(const JobId& id) { return jobs_[id]; }
  /// Any observer event for `id`: bumps last_event and resolves an
  /// outstanding cross-region delegation.
  JobAudit& touch(const JobId& id, TimePoint at);
  void violate(std::string kind, std::string detail, TimePoint at);
  bool offer_known(const JobAudit& j, NodeId collector, NodeId bidder) const;

  /// One overload per event with an invariant of its own; every other
  /// job event only touches its job.
  template <class Event>
  void check(const Event& e, TimePoint at);
  void check(const proto::event::Unschedulable& e, TimePoint at);
  void check(const proto::event::BidReceived& e, TimePoint at);
  void check(const proto::event::Delegated& e, TimePoint at);
  void check(const proto::event::Completed& e, TimePoint at);
  void check(const proto::event::Recovery& e, TimePoint at);
  void check(const proto::event::Abandoned& e, TimePoint at);
  void check(const proto::event::RegionDelegated& e, TimePoint at);
  void check(const proto::event::DigestClamped& e, TimePoint at);
  void check(const proto::event::Reputation& e, TimePoint at);

  AuditConfig config_;
  AuditContext ctx_;

  std::unordered_map<JobId, JobAudit> jobs_;
  /// Last digest epoch seen per aggregator (monotonicity check; duplicated
  /// deliveries repeat an epoch, so the check is non-strict).
  std::unordered_map<NodeId, std::uint64_t> digest_epochs_;
  /// (originator, region, epoch) keys of digests that failed a conservation
  /// check on the wire. The tap fires at send, the defense clamp at
  /// delivery, so every *justified* DigestClamped event finds its key here —
  /// a clamp without one rejected an honest digest.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
      bad_digests_;
  /// Last reputation score per (owner, subject) pair, packed owner<<32 |
  /// subject; the per-update movement bound is checked against it.
  std::unordered_map<std::uint64_t, double> rep_scores_;
  std::uint64_t expected_adversary_digests_{0};

  std::uint64_t violation_count_{0};
  std::vector<Violation> violations_;
  std::map<std::string, std::uint64_t> by_kind_;
  bool finished_{false};
};

}  // namespace aria::audit
