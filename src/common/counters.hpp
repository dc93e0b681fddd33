// The counter table: every protocol-event counter the planes keep, declared
// once as X(plane, name, agg, "doc") in one X-macro list per counter owner.
// `agg` says how per-node (or per-shard) values fold into a run total: `sum`,
// or `max` for high-water marks. Owner fields, RunResult fields, the engine
// harvest, run_fingerprint, the aria_sim plane blocks and the sweep report
// columns are all generated from these lists (docs/counters.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

// clang-format off
/// sim::FaultPlane: injected message faults and the churn driver's tally.
#define ARIA_FAULT_COUNTERS(X)                                                                   \
  X(fault, lost, sum, "messages dropped by random loss")                                        \
  X(fault, duplicated, sum, "extra deliveries injected")                                        \
  X(fault, delayed, sum, "messages given a latency spike")                                      \
  X(fault, partition_drops, sum, "messages blocked by an active partition")                     \
  X(fault, crashes, sum, "node crashes driven by the churn schedules")                          \
  X(fault, restarts, sum, "node restarts driven by the churn schedules")                        \
  X(fault, targeted_crashes, sum, "subset of crashes caused by the targeted (role-aimed) schedule")

/// overlay::NeighborView: the self-healing plane's per-node liveness view.
#define ARIA_HEALING_COUNTERS(X)                                                                 \
  X(healing, neighbor_evictions, sum, "overlay links dropped after missed probes")              \
  X(healing, false_suspicions, sum, "suspected neighbors that answered after all")              \
  X(healing, repair_links, sum, "links re-established via LINK_ACK")                            \
  X(healing, rejoin_requests, sum, "LINK_REQs sent by restarted nodes")                         \
  X(healing, probe_rounds, sum, "probe rounds, summed over nodes")

/// proto::AriaNode: the protocol engine (paper Table I) and the planes
/// layered on it.
#define ARIA_NODE_COUNTERS(X)                                                                    \
  X(core, requests_initiated, sum, "discovery rounds started (REQUEST floods)")                  \
  X(core, requests_forwarded, sum, "REQUESTs relayed onward")                                   \
  X(core, accepts_sent, sum, "ACCEPT bids sent")                                                \
  X(core, informs_initiated, sum, "INFORM bursts started for queued jobs")                      \
  X(core, informs_forwarded, sum, "INFORMs relayed onward")                                     \
  X(core, assigns_sent, sum, "ASSIGN delegations sent")                                         \
  X(core, jobs_executed, sum, "jobs run to completion")                                         \
  X(core, reschedules_out, sum, "queued jobs given away to an INFORM bidder")                   \
  X(core, reschedules_in, sum, "jobs won via INFORM")                                           \
  X(core, recoveries, sum, "failsafe re-submissions issued")                                    \
  X(core, assign_acks_sent, sum, "ASSIGN_ACK replies (assign_ack on)")                          \
  X(core, assign_retries, sum, "ASSIGN retransmissions")                                        \
  X(core, assign_rediscoveries, sum, "delegations re-flooded after their ACK retries ran out")   \
  X(core, completion_replays, sum, "recovery floods answered with a replayed completion receipt") \
  X(overload, jobs_shed, sum, "bounded-queue evictions")                                        \
  X(overload, sheds_rescheduled, sum, "shed jobs taken by an INFORM offer")                     \
  X(overload, sheds_failsafe, sum, "shed bursts that fell back to a discovery round")           \
  X(overload, assign_rejects, sum, "ASSIGNs answered with REJECT")                              \
  X(overload, reject_rediscoveries, sum, "REJECTed delegations re-floated")                      \
  X(overload, bids_suppressed, sum, "ACCEPTs withheld while saturated")                         \
  X(overload, peak_queue_depth, max, "high-water mark of any local queue (kept on every run)")   \
  X(hierarchy, region_queries, sum, "empty rounds escalated to an aggregator")                  \
  X(hierarchy, region_queries_served, sum, "REGION_QUERYs aggregators answered")                \
  X(hierarchy, region_forwards, sum, "REGION_FWDs sent to remote regions")                      \
  X(hierarchy, region_floods, sum, "floods run for remote initiators")                          \
  X(hierarchy, load_reports, sum, "member REGION_LOADs sent")                                   \
  X(hierarchy, digests_sent, sum, "REGION_DIGEST broadcasts")                                   \
  X(hierarchy, digests_received, sum, "remote digests folded into tables")                      \
  X(hierarchy, wide_floods, sum, "scope-widened REQUEST floods")                                \
  X(hierarchy, region_pulls, sum, "cold-restart REGION_PULL floods")                            \
  X(hierarchy, region_handoffs, sum, "queries handed to the next rank while cold")              \
  X(hierarchy, early_wide_escalations, sum, "wide floods forced by sustained aggregator silence") \
  X(adversary, adv_underbids, sum, "ACCEPT quotes scaled below true cost")                       \
  X(adversary, adv_informs_deflated, sum, "INFORM and shed ads at deflated cost")               \
  X(adversary, adv_assigns_swallowed, sum, "ASSIGNs acknowledged, then dropped")                \
  X(adversary, adv_digests_poisoned, sum, "REGION_DIGESTs inflated")                            \
  X(defense, offers_distrusted, sum, "bids skipped below the suspicion threshold")              \
  X(defense, stragglers_detected, sum, "quoted deadlines overrun")                              \
  X(defense, revokes_sent, sum, "revoke NOTIFYs sent (retries included)")                       \
  X(defense, revoke_acks_sent, sum, "jobs handed back on a revoke")                             \
  X(defense, hedges_dispatched, sum, "hedged ASSIGNs to runner-up bids")                        \
  X(defense, digests_clamped, sum, "non-conserving digests rejected")                           \
  X(defense, reputation_evictions, sum, "overlay evictions on suspicion")
// clang-format on

/// Declares one owner-struct (or RunResult) field per entry.
#define ARIA_COUNTER_FIELD(plane, name, agg, doc) std::uint64_t name{0};

namespace aria::counters {

enum class Agg : std::uint8_t { sum, max };

struct Counter {
  std::string_view plane;
  std::string_view name;
  Agg agg;
  std::string_view doc;
};

#define ARIA_COUNTER_ENTRY(plane, name, agg, doc) \
  Counter{#plane, #name, Agg::agg, doc},
/// Every counter, in table order: fault, healing, then node entries (each
/// plane's entries contiguous).
inline constexpr Counter kTable[] = {
    ARIA_FAULT_COUNTERS(ARIA_COUNTER_ENTRY)    //
    ARIA_HEALING_COUNTERS(ARIA_COUNTER_ENTRY)  //
    ARIA_NODE_COUNTERS(ARIA_COUNTER_ENTRY)};
#undef ARIA_COUNTER_ENTRY
inline constexpr std::size_t kCount = std::size(kTable);

/// One value per table entry, in table order.
using Values = std::array<std::uint64_t, kCount>;

constexpr std::uint64_t fold(Agg agg, std::uint64_t acc, std::uint64_t v) {
  return agg == Agg::max ? std::max(acc, v) : acc + v;
}

/// acc[i] = fold(kTable[i].agg, acc[i], v[i]) for every entry.
constexpr void fold(Values& acc, const Values& v) {
  for (std::size_t i = 0; i < kCount; ++i) {
    acc[i] = fold(kTable[i].agg, acc[i], v[i]);
  }
}

// dst.<name> = fold(agg, dst.<name>, src.<name>) over one owner's list; dst
// and src are any types carrying that list's fields (owner struct or
// RunResult).
#define ARIA_COUNTER_FOLD(plane, name, agg, doc)                          \
  dst.name = ::aria::counters::fold(::aria::counters::Agg::agg, dst.name, \
                                    src.name);
template <class D, class S>
constexpr void fold_fault(D& dst, const S& src) {
  ARIA_FAULT_COUNTERS(ARIA_COUNTER_FOLD)
}
template <class D, class S>
constexpr void fold_healing(D& dst, const S& src) {
  ARIA_HEALING_COUNTERS(ARIA_COUNTER_FOLD)
}
template <class D, class S>
constexpr void fold_node(D& dst, const S& src) {
  ARIA_NODE_COUNTERS(ARIA_COUNTER_FOLD)
}
#undef ARIA_COUNTER_FOLD

}  // namespace aria::counters
