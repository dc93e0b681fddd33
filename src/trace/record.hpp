// Structured trace records: the binary event stream behind the tracing
// plane (docs/tracing.md).
//
// A TraceRecord is a fixed-size POD describing one protocol or wire event.
// Collection is O(1) per event — a struct copy into a pre-sized ring — so
// tracing stays off the simulation's hot path even when enabled, and costs
// nothing at all when disabled (the collector simply is not constructed;
// see the determinism contract in docs/tracing.md).
//
// The record is deliberately generic: a small set of typed fields whose
// meaning depends on the event kind (documented per kind below). Exporters
// (src/trace/export.hpp) turn the raw stream into JSONL, Chrome trace_event
// JSON, and per-job critical-path summaries.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/uuid.hpp"

namespace aria::trace {

/// What happened. Job-lifecycle kinds mirror the first 13 alternatives of
/// proto::ProtocolEvent one-to-one, in order; kMsg records come from the
/// network tap.
enum class TraceEventKind : std::uint8_t {
  kSubmitted = 0,   // user handed the job to `node` (the initiator)
  kRetry,           // REQUEST flood drew no offers; attempt `a` upcoming
  kUnschedulable,   // initiator exhausted retry.max_attempts (terminal)
  kBidSent,         // `node` sent (or self-recorded) an ACCEPT quote of
                    // `value` to collector `peer`
  kBidReceived,     // collector `node` took bidder `peer`'s quote `value`
                    // into its offer set
  kDelegated,       // delegator `node` sent ASSIGN to `peer`
                    // (flag kReschedule distinguishes moves)
  kAssigned,        // the job entered `node`'s queue
  kStarted,         // execution began on `node`
  kCompleted,       // execution finished on `node`; `value` = ART seconds
  kRecovery,        // failsafe watchdog re-flood, attempt `a`
  kAbandoned,       // recovery budget exhausted (terminal)
  kShed,            // bounded queue evicted the job on `node`
  kRejected,        // `node` refused an ASSIGN at the admission watermark
  kMsg,             // sampled wire message: `node`→`peer`, type index `a`,
                    // hops left `b`, `value` = wire bytes, `end` = delivery
};

/// Number of distinct kinds (dense array sizing in exporters/tests).
inline constexpr std::size_t kTraceEventKinds =
    static_cast<std::size_t>(TraceEventKind::kMsg) + 1;

/// Stable lowercase name for a kind (JSONL `kind` field, Chrome labels).
const char* kind_name(TraceEventKind kind);

/// One collected event. ~72 bytes, trivially copyable; field meaning by
/// kind is described on TraceEventKind.
struct TraceRecord {
  /// Global collection order (assigned by the buffer); merging the job and
  /// message streams on `seq` reconstructs exact call order.
  std::uint64_t seq{0};
  TimePoint at{};        // when the event happened (simulated clock)
  TimePoint end{};       // kMsg only: scheduled delivery time
  JobId job{};           // nil for kMsg
  NodeId node{};         // acting node (sender for kMsg)
  NodeId peer{};         // counterparty; invalid when not applicable
  double value{0.0};     // cost quote / ART seconds / wire bytes
  std::uint32_t a{0};    // attempt number, or message type index for kMsg
  std::uint32_t b{0};    // kMsg: remaining hop budget (kNoHops if none)
  std::uint8_t flags{0};
  TraceEventKind kind{TraceEventKind::kSubmitted};

  static constexpr std::uint8_t kReschedule = 1u << 0;  // kDelegated/kAssigned
  static constexpr std::uint8_t kFaultDropped = 1u << 1;  // kMsg: injected loss
  static constexpr std::uint32_t kNoHops = UINT32_MAX;

  bool reschedule() const { return (flags & kReschedule) != 0; }
  bool fault_dropped() const { return (flags & kFaultDropped) != 0; }
};

static_assert(sizeof(TraceRecord) <= 80, "keep trace records cache-friendly");

/// Collection knobs. Everything defaults to off; an enabled default-config
/// trace captures every lifecycle event and every 16th wire message.
struct TraceConfig {
  /// Master switch. Off ⇒ no collector exists and nothing subscribes to
  /// the observer or tap list: default output stays byte-identical
  /// (docs/tracing.md).
  bool enabled{false};
  /// Ring bound for job-lifecycle records. Full ⇒ newest records are
  /// dropped (and counted), so span *beginnings* stay coherent.
  std::size_t job_ring_capacity{1u << 20};
  /// Ring bound for sampled wire-message records (separate from the job
  /// ring so a message flood can never evict lifecycle events).
  std::size_t message_ring_capacity{1u << 18};
  /// Record every Nth Network::send (deterministic counter, no RNG).
  /// 1 = every message; 0 is treated as 1.
  std::uint64_t message_sample_every{16};
};

}  // namespace aria::trace
