// The four ARiA message types (paper Table I) plus the optional
// housekeeping notifications the paper mentions in passing.
//
// Wire sizes follow the traffic evaluation (§V-E): REQUEST, INFORM and
// ASSIGN carry a full job profile and are metered at 1 KiB; ACCEPT is a
// compact (address, uuid, cost) triple metered at 128 bytes. Each type
// derives from sim::MessageOf with its k*Type name and k*WireBytes size, which
// supplies the metering (the name is interned once, so per-message metering
// is an integer id, never a string) and the fault plane's clone; a type
// declares only its fields.
//
// REQUEST, INFORM and REGION_PULL are flooded: they carry a FloodMeta with a
// per-emission flood id (for duplicate suppression), the remaining hop
// budget, and the flood origin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/uuid.hpp"
#include "grid/job.hpp"
#include "overlay/region.hpp"
#include "sim/network.hpp"

namespace aria::proto {

inline constexpr std::size_t kRequestWireBytes = 1024;
inline constexpr std::size_t kInformWireBytes = 1024;
inline constexpr std::size_t kAssignWireBytes = 1024;
inline constexpr std::size_t kAcceptWireBytes = 128;
inline constexpr std::size_t kNotifyWireBytes = 128;
inline constexpr std::size_t kAssignAckWireBytes = 128;
// Overload plane: a REJECT returns the full job profile to the delegator
// (who no longer holds the spec once the ASSIGN left), so it meters like
// the profile-carrying types.
inline constexpr std::size_t kRejectWireBytes = 1024;
// Healing-plane control traffic: PING/LINK_REQ are a bare (address, seq)
// pair; PONG/LINK_ACK additionally carry a small live-neighbor sample.
inline constexpr std::size_t kPingWireBytes = 64;
inline constexpr std::size_t kPongWireBytes = 256;
inline constexpr std::size_t kLinkReqWireBytes = 64;
inline constexpr std::size_t kLinkAckWireBytes = 256;

// Hierarchical discovery plane (docs/hierarchy.md): REGION_LOAD is a compact
// member→aggregator load triple; REGION_DIGEST carries one region's
// aggregate (region, epoch, members, idle, backlog, queue) to remote
// aggregators; REGION_QUERY and REGION_FWD carry a full job profile like
// REQUEST, so they meter at the same 1 KiB.
inline constexpr std::size_t kRegionLoadWireBytes = 64;
inline constexpr std::size_t kRegionDigestWireBytes = 256;
inline constexpr std::size_t kRegionQueryWireBytes = 1024;
inline constexpr std::size_t kRegionFwdWireBytes = 1024;
// Cold-restart solicitation (docs/hierarchy.md "Failure modes"): a bare
// (candidate address, flood meta) pair, metered like the other 64 B control
// messages.
inline constexpr std::size_t kRegionPullWireBytes = 64;

inline constexpr const char* kRequestType = "REQUEST";
inline constexpr const char* kAcceptType = "ACCEPT";
inline constexpr const char* kInformType = "INFORM";
inline constexpr const char* kAssignType = "ASSIGN";
inline constexpr const char* kNotifyType = "NOTIFY";
inline constexpr const char* kAssignAckType = "ASSIGN_ACK";
inline constexpr const char* kRejectType = "REJECT";
inline constexpr const char* kPingType = "PING";
inline constexpr const char* kPongType = "PONG";
inline constexpr const char* kLinkReqType = "LINK_REQ";
inline constexpr const char* kLinkAckType = "LINK_ACK";
inline constexpr const char* kRegionLoadType = "REGION_LOAD";
inline constexpr const char* kRegionDigestType = "REGION_DIGEST";
inline constexpr const char* kRegionQueryType = "REGION_QUERY";
inline constexpr const char* kRegionFwdType = "REGION_FWD";
inline constexpr const char* kRegionPullType = "REGION_PULL";

/// Flood bookkeeping carried by REQUEST, INFORM and REGION_PULL.
struct FloodMeta {
  Uuid flood_id{};           // one per emission (re-floods get fresh ids)
  std::uint32_t hops_left{0};  // remaining hop budget after this delivery
  NodeId origin{};           // who started the flood
};

/// Resource discovery query: "Initiator's address | Job UUID | Job Profile".
struct RequestMsg final
    : sim::MessageOf<RequestMsg, kRequestType, kRequestWireBytes> {
  NodeId initiator;
  grid::JobSpec job;  // carries the UUID and the profile
  FloodMeta flood;
  /// Hierarchy scope widening (docs/hierarchy.md): forwarders ignore the
  /// region filter for this flood. Always false outside the hierarchy
  /// plane; one flag bit, folded into the existing wire-size constant.
  bool wide{false};

  RequestMsg(NodeId initiator_, grid::JobSpec job_, FloodMeta flood_,
             bool wide_ = false)
      : initiator{initiator_},
        job{std::move(job_)},
        flood{flood_},
        wide{wide_} {}
  std::uint32_t flood_hops_left() const override { return flood.hops_left; }
};

/// Offer: "Node's address | Job UUID | Cost". Sent to the initiator in the
/// submission phase, or to the current assignee in the rescheduling phase.
struct AcceptMsg final
    : sim::MessageOf<AcceptMsg, kAcceptType, kAcceptWireBytes> {
  NodeId node;
  JobId job_id;
  double cost;

  AcceptMsg(NodeId node_, JobId job_id_, double cost_)
      : node{node_}, job_id{job_id_}, cost{cost_} {}
};

/// Rescheduling advertisement:
/// "Assignee's address | Job UUID | Job Profile | Cost".
struct InformMsg final
    : sim::MessageOf<InformMsg, kInformType, kInformWireBytes> {
  NodeId assignee;
  grid::JobSpec job;
  double cost;  // the assignee's current cost for this job
  FloodMeta flood;

  InformMsg(NodeId assignee_, grid::JobSpec job_, double cost_, FloodMeta flood_)
      : assignee{assignee_}, job{std::move(job_)}, cost{cost_}, flood{flood_} {}
  std::uint32_t flood_hops_left() const override { return flood.hops_left; }
};

/// Delegation: "Initiator's address | Job UUID | Job Profile". Sent by the
/// initiator on first assignment, or by the departing assignee on a
/// reschedule (the initiator address lets the new assignee keep notifying).
struct AssignMsg final
    : sim::MessageOf<AssignMsg, kAssignType, kAssignWireBytes> {
  NodeId initiator;
  grid::JobSpec job;
  /// True when this delegation moves an already-assigned job (set by the
  /// departing assignee; a single flag, does not change the metered size).
  bool reschedule{false};
  /// Identifies one delegation attempt when acknowledged delegation is on
  /// (AriaConfig::assign_ack): retransmissions of the same attempt reuse it,
  /// so the receiver can deduplicate. Nil when ACKs are off.
  Uuid assign_id{};
  /// Hedged re-dispatch (docs/adversary.md): this delegation duplicates a
  /// revoked straggler onto the runner-up bid. One flag bit so the auditor
  /// can meter hedges against DefenseParams::hedge_budget on the wire.
  bool hedge{false};

  AssignMsg(NodeId initiator_, grid::JobSpec job_, bool reschedule_ = false,
            Uuid assign_id_ = Uuid{}, bool hedge_ = false)
      : initiator{initiator_}, job{std::move(job_)}, reschedule{reschedule_},
        assign_id{assign_id_}, hedge{hedge_} {}
};

/// Optional tracking notification to the initiator (paper §III-D:
/// "rescheduling actions may be notified to the job's initiator").
struct NotifyMsg final
    : sim::MessageOf<NotifyMsg, kNotifyType, kNotifyWireBytes> {
  /// kRevoke / kRevokeAck extend the failsafe vocabulary for the adversarial
  /// defense plane (docs/adversary.md): an initiator revokes a straggling
  /// delegation before granting the job to the runner-up bid, and the
  /// assignee confirms it gave the (still queued) job back. Same 128 B
  /// control-message framing as the lifecycle kinds.
  enum class Kind { kQueued, kRescheduled, kStarted, kCompleted, kRevoke,
                    kRevokeAck };
  Kind kind;
  JobId job_id;
  NodeId current_assignee;

  NotifyMsg(Kind kind_, JobId job_id_, NodeId current_assignee_)
      : kind{kind_}, job_id{job_id_}, current_assignee{current_assignee_} {}
};

/// Delegation receipt: "Node's address | Job UUID | Assign UUID". Sent back
/// to the delegator when acknowledged delegation is on; absence within
/// AriaConfig::assign_ack_timeout triggers a retransmission.
struct AssignAckMsg final
    : sim::MessageOf<AssignAckMsg, kAssignAckType, kAssignAckWireBytes> {
  NodeId node;
  JobId job_id;
  Uuid assign_id;

  AssignAckMsg(NodeId node_, JobId job_id_, Uuid assign_id_)
      : node{node_}, job_id{job_id_}, assign_id{assign_id_} {}
};

/// Admission refusal (overload plane, docs/overload.md): "Rejecter's address
/// | Job Profile | Initiator's address | reschedule flag". A node over its
/// admission watermark answers an ASSIGN with this instead of enqueueing;
/// the delegator treats it like an exhausted ACK and re-discovers
/// immediately. Carries the full spec because the delegator dropped its copy
/// when the ASSIGN went out. `reject_id` is fresh per refusal so network
/// duplicates of one REJECT can be deduplicated without suppressing a later,
/// genuine second refusal of the same job.
struct RejectMsg final
    : sim::MessageOf<RejectMsg, kRejectType, kRejectWireBytes> {
  NodeId node;
  grid::JobSpec job;
  NodeId initiator;
  bool reschedule{false};
  Uuid reject_id{};

  RejectMsg(NodeId node_, grid::JobSpec job_, NodeId initiator_,
            bool reschedule_, Uuid reject_id_)
      : node{node_}, job{std::move(job_)}, initiator{initiator_},
        reschedule{reschedule_}, reject_id{reject_id_} {}
};

// --- self-healing overlay plane (docs/overlay.md) --------------------------

/// Liveness probe: "Prober's address | Probe sequence number". One per
/// tracked neighbor per probe round.
struct PingMsg final : sim::MessageOf<PingMsg, kPingType, kPingWireBytes> {
  NodeId from;
  std::uint32_t seq;

  PingMsg(NodeId from_, std::uint32_t seq_) : from{from_}, seq{seq_} {}
};

/// Probe answer echoing the PING's sequence number, plus a bounded sample of
/// the responder's live neighbors — the neighbor-exchange gossip that feeds
/// every node's repair-contact cache.
struct PongMsg final : sim::MessageOf<PongMsg, kPongType, kPongWireBytes> {
  NodeId from;
  std::uint32_t seq;
  std::vector<NodeId> contacts;

  PongMsg(NodeId from_, std::uint32_t seq_, std::vector<NodeId> contacts_)
      : from{from_}, seq{seq_}, contacts{std::move(contacts_)} {}
};

/// Repair request: "Requester's address". Sent to a cached contact when the
/// live degree drops below the floor, or to remembered neighbors when a
/// restarted node rejoins.
struct LinkReqMsg final
    : sim::MessageOf<LinkReqMsg, kLinkReqType, kLinkReqWireBytes> {
  NodeId from;

  explicit LinkReqMsg(NodeId from_) : from{from_} {}
};

/// Repair confirmation, carrying the accepter's live-neighbor sample so the
/// (possibly freshly restarted) requester seeds its contact cache.
struct LinkAckMsg final
    : sim::MessageOf<LinkAckMsg, kLinkAckType, kLinkAckWireBytes> {
  NodeId from;
  std::vector<NodeId> contacts;

  LinkAckMsg(NodeId from_, std::vector<NodeId> contacts_)
      : from{from_}, contacts{std::move(contacts_)} {}
};

// --- hierarchical discovery plane (docs/hierarchy.md) -----------------------

/// Member → own-region aggregator candidates: "Reporter's address | idle
/// flag | backlog seconds | queue length". Sent every load_report_period;
/// the digest input.
struct RegionLoadMsg final
    : sim::MessageOf<RegionLoadMsg, kRegionLoadType, kRegionLoadWireBytes> {
  NodeId from;
  overlay::MemberLoad load;

  RegionLoadMsg(NodeId from_, overlay::MemberLoad load_)
      : from{from_}, load{load_} {}
};

/// Aggregator → every other region's candidates: one region's summarized
/// load. Replaces per-job global INFORM reach with a periodic O(R²)
/// aggregate exchange.
struct RegionDigestMsg final
    : sim::MessageOf<RegionDigestMsg, kRegionDigestType, kRegionDigestWireBytes> {
  NodeId from;
  overlay::RegionDigest digest;

  RegionDigestMsg(NodeId from_, overlay::RegionDigest digest_)
      : from{from_}, digest{digest_} {}
};

/// Initiator → own-region aggregator: "my region-local REQUEST flood drew no
/// offers on `attempt`; find this job a region". Carries the full spec so
/// the aggregator can forward without holding per-job state.
struct RegionQueryMsg final
    : sim::MessageOf<RegionQueryMsg, kRegionQueryType, kRegionQueryWireBytes> {
  NodeId initiator;
  grid::JobSpec job;
  std::uint32_t attempt;
  /// Cold-restart handoffs already taken (docs/hierarchy.md "Failure
  /// modes"): a cold candidate forwards the query to the next rank and
  /// increments this; once every rank has been tried the holder serves
  /// best-effort instead of bouncing forever.
  std::uint32_t handoffs;

  RegionQueryMsg(NodeId initiator_, grid::JobSpec job_, std::uint32_t attempt_,
                 std::uint32_t handoffs_ = 0)
      : initiator{initiator_},
        job{std::move(job_)},
        attempt{attempt_},
        handoffs{handoffs_} {}
};

/// Aggregator → target-region aggregator: "flood this query in your region
/// on the initiator's behalf". The receiving aggregator region-floods a
/// REQUEST carrying the *original* initiator, so ACCEPT offers flow directly
/// back to it — aggregators never sit on the offer path.
struct RegionFwdMsg final
    : sim::MessageOf<RegionFwdMsg, kRegionFwdType, kRegionFwdWireBytes> {
  NodeId initiator;
  grid::JobSpec job;
  std::uint32_t attempt;

  RegionFwdMsg(NodeId initiator_, grid::JobSpec job_, std::uint32_t attempt_)
      : initiator{initiator_}, job{std::move(job_)}, attempt{attempt_} {}
};

/// Restarted aggregator candidate → its region (flood-relayed, region
/// scoped): "I came back cold; send me a fresh REGION_LOAD now" (docs/
/// hierarchy.md "Failure modes"). Members answer with an immediate
/// out-of-cycle report so the candidate can warm up without waiting a full
/// load_report_period.
struct RegionPullMsg final
    : sim::MessageOf<RegionPullMsg, kRegionPullType, kRegionPullWireBytes> {
  NodeId from;
  FloodMeta flood;

  RegionPullMsg(NodeId from_, FloodMeta flood_) : from{from_}, flood{flood_} {}
};

}  // namespace aria::proto
