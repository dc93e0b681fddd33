// Protocol lifecycle events and the observer seam between the protocol
// engine and metrics/trackers/tests.
//
// The event set is declared once, as the plain structs of proto::event;
// ProtocolEvent holds any one of them. Emitters call
// `observer->on_event(now, event::X{...})`, and each observer visits the
// alternatives it cares about and ignores the rest. Events own their data,
// so an observer may store them as they are (workload::RecordingObserver).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/uuid.hpp"
#include "grid/job.hpp"

namespace aria::proto {

namespace event {

/// A user handed `job` to `initiator`.
struct Submitted { grid::JobSpec job; NodeId initiator; };

/// A REQUEST flood drew no offers; attempt `attempt` (1-based) upcoming.
struct RequestRetry { JobId id; std::size_t attempt; };

/// The initiator gave up on the job (DiscoveryRetryPolicy::max_attempts
/// exhausted); terminal.
struct Unschedulable { JobId id; };

/// A candidate answered a REQUEST or INFORM flood with an ACCEPT quote of
/// `cost`, addressed to `to` (the initiator, or the advertising assignee
/// during rescheduling). Fired on the bidder as the ACCEPT leaves.
struct BidSent { JobId id; NodeId bidder; NodeId to; double cost; };

/// A collector took `bidder`'s quote into consideration: an offer joined
/// an initiator's discovery set, or a rescheduling/shed offer won. The
/// initiator's self-quote fires this without a matching BidSent.
struct BidReceived { JobId id; NodeId collector; NodeId bidder; double cost; };

/// A delegator picked `to` and handed the job over (ASSIGN, or a local
/// hand-off when the initiator won its own discovery round). Fired once
/// per delegation decision — ACK retransmissions do not repeat it.
struct Delegated { JobId id; NodeId from; NodeId to; bool reschedule; };

/// The job entered `node`'s queue. `reschedule` is false for the initial
/// delegation, true when it moved from a previous assignee.
struct Assigned { grid::JobSpec job; NodeId node; bool reschedule; };

/// Execution began on `node`.
struct Started { JobId id; NodeId node; };

/// Execution finished; `art` is the actual running time.
struct Completed { JobId id; NodeId node; Duration art; };

/// The initiator's failsafe watchdog expired and the job is being
/// re-flooded (recovery `attempt` is 1-based).
struct Recovery { JobId id; std::size_t attempt; };

/// The initiator exhausted failsafe_max_recoveries and stopped watching
/// the job; it will never be re-flooded again. Terminal, like
/// Unschedulable, but reached from the recovery path.
struct Abandoned { JobId id; };

/// Overload plane: `node`'s bounded queue overflowed and the policy chose
/// this job as the shed victim; an INFORM burst re-advertising it is
/// going out. Not terminal — the job is rescheduled or re-discovered.
struct Shed { grid::JobSpec job; NodeId node; };

/// Overload plane: `node` refused an ASSIGN with REJECT because its
/// backlog exceeded the admission watermark; the delegator re-discovers.
struct Rejected { JobId id; NodeId node; };

/// Hierarchy plane: `aggregator` answered a REGION_QUERY by forwarding the
/// job from `from_region` to `to_region`'s aggregator for a region-local
/// flood there. Fired on the aggregator as the REGION_FWD leaves.
struct RegionDelegated {
  JobId id; NodeId aggregator;
  std::uint32_t from_region; std::uint32_t to_region;
};

/// Defense plane (docs/adversary.md): `owner` rejected a REGION_DIGEST
/// from `from` claiming `region`/`epoch` because it violated member-report
/// conservation bounds; the digest was not folded into the table.
struct DigestClamped {
  NodeId owner; NodeId from; std::uint32_t region; std::uint64_t epoch;
};

/// Defense plane: `owner`'s reputation ledger re-scored `subject` after a
/// promise-vs-delivery observation; `score` is the post-update EWMA in
/// [0, 1]. The auditor checks the per-update movement bound on this stream.
struct Reputation { NodeId owner; NodeId subject; double score; };

}  // namespace event

/// One protocol event. The first 13 alternatives line up, in order, with
/// trace::TraceEventKind (kSubmitted .. kRejected).
using ProtocolEvent =
    std::variant<event::Submitted, event::RequestRetry, event::Unschedulable,
                 event::BidSent, event::BidReceived, event::Delegated,
                 event::Assigned, event::Started, event::Completed,
                 event::Recovery, event::Abandoned, event::Shed,
                 event::Rejected, event::RegionDelegated,
                 event::DigestClamped, event::Reputation>;

class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// `event` happened at simulated time `at` (the emitter's clock).
  virtual void on_event(TimePoint at, const ProtocolEvent& event) = 0;
};

/// Flat fan-out: every event reaches each subscriber, in registration
/// order. Subscribers are non-owning and must outlive the list.
class ObserverList final : public ProtocolObserver {
 public:
  void add(ProtocolObserver* observer) { observers_.push_back(observer); }

  void on_event(TimePoint at, const ProtocolEvent& event) override {
    for (ProtocolObserver* o : observers_) o->on_event(at, event);
  }

 private:
  std::vector<ProtocolObserver*> observers_;
};

}  // namespace aria::proto
