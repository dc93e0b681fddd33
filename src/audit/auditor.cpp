#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>

#include "core/messages.hpp"

namespace aria::audit {

AuditCollector::AuditCollector(const AuditConfig& config, AuditContext ctx)
    : config_{config}, ctx_{ctx} {}

void AuditCollector::violate(std::string kind, std::string detail,
                             TimePoint at) {
  ++violation_count_;
  ++by_kind_[kind];
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(
        Violation{std::move(kind), std::move(detail), at});
  }
}

AuditCollector::JobAudit& AuditCollector::touch(const JobId& id,
                                                TimePoint at) {
  JobAudit& j = jobs_[id];
  j.last_event = at;
  j.pending_delegation.reset();  // the escalation produced *some* signal
  return j;
}

bool AuditCollector::offer_known(const JobAudit& j, NodeId collector,
                                 NodeId bidder) const {
  return std::find(j.offers.begin(), j.offers.end(),
                   std::make_pair(collector, bidder)) != j.offers.end();
}

// --- online checks ----------------------------------------------------------

template <class Event>
void AuditCollector::check(const Event& e, TimePoint at) {
  if constexpr (requires { e.job; }) {
    touch(e.job.id, at);
  } else {
    touch(e.id, at);
  }
}

void AuditCollector::on_event(TimePoint at,
                              const proto::ProtocolEvent& event) {
  std::visit([&](const auto& e) { check(e, at); }, event);
}

void AuditCollector::check(const proto::event::Unschedulable& e,
                           TimePoint at) {
  touch(e.id, at).terminal = true;
}

void AuditCollector::check(const proto::event::BidReceived& e, TimePoint at) {
  JobAudit& j = touch(e.id, at);
  if (!offer_known(j, e.collector, e.bidder)) {
    j.offers.emplace_back(e.collector, e.bidder);
  }
}

void AuditCollector::check(const proto::event::Delegated& e, TimePoint at) {
  JobAudit& j = touch(e.id, at);
  // No ASSIGN without a matching ACCEPT: the delegator must have collected
  // an offer from the chosen assignee in some earlier round. Crashes wipe a
  // node's round state but not the audit record, so the check is a strict
  // superset of what any live delegator could legitimately know.
  if (!offer_known(j, e.from, e.to)) {
    violate("assign-without-accept",
            "job " + e.id.to_string() + ": " + e.from.to_string() +
                " delegated to " + e.to.to_string() +
                " which never offered to it",
            at);
  }
}

void AuditCollector::check(const proto::event::Completed& e, TimePoint at) {
  JobAudit& j = touch(e.id, at);
  // Exactly-once modulo recovery: each failsafe recovery (watchdog re-flood
  // or ASSIGN_ACK rediscovery) licenses at most one extra execution, each
  // hedged re-dispatch (the revoked straggler may still finish) one more,
  // and the watchdog may fire *before* the original run finishes — so the
  // orderings are free but the budget is not: completions <= 1 + recoveries
  // + hedges always. A completion past that budget is a protocol bug.
  if (j.completions > 0 && j.completions > j.recoveries + j.hedges) {
    violate("duplicate-completion",
            "job " + e.id.to_string() + " completed again on " +
                e.node.to_string() + " (" +
                std::to_string(j.completions + 1) + " completions, " +
                std::to_string(j.recoveries) + " recoveries, " +
                std::to_string(j.hedges) + " hedges)",
            at);
  }
  ++j.completions;
  j.terminal = true;
}

void AuditCollector::check(const proto::event::Recovery& e, TimePoint at) {
  JobAudit& j = touch(e.id, at);
  ++j.recoveries;
  // Budget: watchdog recovery attempts are 1-based and abandon past
  // failsafe_max_recoveries, so a larger attempt number must never appear.
  if (ctx_.failsafe_max_recoveries > 0 &&
      e.attempt > ctx_.failsafe_max_recoveries) {
    violate("recovery-budget-exceeded",
            "job " + e.id.to_string() + " recovery attempt " +
                std::to_string(e.attempt) + " > budget " +
                std::to_string(ctx_.failsafe_max_recoveries),
            at);
  }
}

void AuditCollector::check(const proto::event::Abandoned& e, TimePoint at) {
  touch(e.id, at).terminal = true;
}

void AuditCollector::check(const proto::event::RegionDelegated& e,
                           TimePoint at) {
  JobAudit& j = touch(e.id, at);
  j.pending_delegation = at;  // must produce some later event for the job
  if (ctx_.region_count > 0 && (e.from_region >= ctx_.region_count ||
                                e.to_region >= ctx_.region_count)) {
    violate("delegation-bad-region",
            "job " + e.id.to_string() + ": delegation " +
                std::to_string(e.from_region) + " -> " +
                std::to_string(e.to_region) + " outside R=" +
                std::to_string(ctx_.region_count),
            at);
  }
}

void AuditCollector::check(const proto::event::DigestClamped& e,
                           TimePoint at) {
  // A clamp must be *justified*: the rejected digest's (originator, region,
  // epoch) must have failed a conservation check when it crossed the tap
  // (send precedes delivery, so the key is always recorded first). A clamp
  // with no matching lie threw away an honest aggregator's digest — the
  // defense harming the protocol it guards.
  if (bad_digests_.find({static_cast<std::uint32_t>(e.from.value()), e.region,
                         e.epoch}) == bad_digests_.end()) {
    violate("clamp-without-cause",
            e.owner.to_string() + " clamped a conserving digest from " +
                e.from.to_string() + " (region " + std::to_string(e.region) +
                ", epoch " + std::to_string(e.epoch) + ")",
            at);
  }
}

void AuditCollector::check(const proto::event::Reputation& e, TimePoint at) {
  if (ctx_.reputation_alpha <= 0.0) return;  // defense off: stream must be
                                             // empty anyway, nothing to bound
  constexpr double kEps = 1e-9;
  if (e.score < -kEps || e.score > 1.0 + kEps) {
    violate("reputation-out-of-range",
            e.owner.to_string() + " scored " + e.subject.to_string() +
                " at " + std::to_string(e.score),
            at);
  }
  // EWMA movement bound: one observation moves a score by at most
  // alpha * |outcome - score| <= alpha. A larger jump means the ledger is
  // folding something other than single clamped observations.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(e.owner.value()) << 32) |
      static_cast<std::uint64_t>(e.subject.value());
  const auto it = rep_scores_.find(key);
  const double prev =
      it == rep_scores_.end() ? ctx_.reputation_initial : it->second;
  if (std::abs(e.score - prev) > ctx_.reputation_alpha + kEps) {
    violate("reputation-jump",
            e.owner.to_string() + " moved " + e.subject.to_string() +
                " from " + std::to_string(prev) + " to " +
                std::to_string(e.score) +
                " (bound " + std::to_string(ctx_.reputation_alpha) + ")",
            at);
  }
  rep_scores_[key] = e.score;
}

// --- wire tap ---------------------------------------------------------------

void AuditCollector::on_message(NodeId from, NodeId,
                                const sim::Message& message, TimePoint sent,
                                TimePoint, bool) {
  // Digest conservation against ground truth: a REGION_DIGEST may summarize
  // fewer members than the region holds (staleness ages reporters out) but
  // never more, idle capacity can never exceed the member count, backlogs
  // are non-negative, and epochs never run backwards per aggregator (the
  // fault plane may *duplicate* a digest, so equality is legitimate).
  // Conservation failures from *designated* adversaries (the poison
  // injection doing its job) are re-attributed to an informational counter;
  // either way the (originator, region, epoch) key is remembered so the
  // defense clamp's rejections can be matched against real lies.
  if (const auto* rd = dynamic_cast<const proto::RegionDigestMsg*>(&message)) {
    const overlay::RegionDigest& d = rd->digest;
    bool bad = false;
    const bool expected =
        ctx_.expected_adversary && ctx_.expected_adversary(rd->from);
    const auto flag = [&](std::string kind, std::string detail) {
      bad = true;
      if (expected) {
        ++expected_adversary_digests_;
      } else {
        violate(std::move(kind), std::move(detail), sent);
      }
    };
    const overlay::DigestBreaches breaches = overlay::conservation_breaches(
        d, ctx_.region_count, ctx_.node_count);
    if (breaches.bad_region) {
      flag("digest-bad-region",
           from.to_string() + " digests region " + std::to_string(d.region) +
               " outside R=" + std::to_string(ctx_.region_count));
    } else if (breaches.overcount) {
      flag("digest-overcount",
           from.to_string() + " claims " + std::to_string(d.members) +
               " members in region " + std::to_string(d.region) +
               " (population " +
               std::to_string(overlay::region_population(
                   ctx_.node_count, ctx_.region_count, d.region)) +
               ")");
    }
    if (breaches.idle_overcount) {
      flag("digest-idle-overcount",
           from.to_string() + ": idle " + std::to_string(d.idle) + " > " +
               std::to_string(d.members) + " members");
    }
    if (breaches.negative_backlog) {
      flag("digest-negative-backlog",
           from.to_string() + ": backlog " +
               std::to_string(d.backlog_seconds) + "s");
    }
    if (bad) {
      bad_digests_.insert({static_cast<std::uint32_t>(rd->from.value()),
                           d.region, d.epoch});
    }
    const auto it = digest_epochs_.find(rd->from);
    if (it != digest_epochs_.end() && d.epoch < it->second) {
      violate("digest-epoch-regression",
              rd->from.to_string() + ": epoch " + std::to_string(d.epoch) +
                  " after " + std::to_string(it->second),
              sent);
    } else {
      digest_epochs_[rd->from] = d.epoch;
    }
  }
  // Hedge metering: every hedged delegation carries the flag on the wire,
  // and ACK retransmissions reuse the assign_id — so distinct ids per job
  // count dispatch decisions, compared against the per-job budget. A nil id
  // (hedging without acknowledged delegation) cannot be deduplicated, so
  // each send counts; the engine always arms assign_ack with the defenses.
  if (const auto* as = dynamic_cast<const proto::AssignMsg*>(&message)) {
    if (as->hedge) {
      JobAudit& j = job(as->job.id);
      bool fresh = as->assign_id.is_nil();
      if (!fresh && std::find(j.hedge_ids.begin(), j.hedge_ids.end(),
                              as->assign_id) == j.hedge_ids.end()) {
        j.hedge_ids.push_back(as->assign_id);
        fresh = true;
      }
      if (fresh) {
        ++j.hedges;
        if (j.hedges > ctx_.hedge_budget) {
          violate("hedge-budget-exceeded",
                  "job " + as->job.id.to_string() + ": hedge " +
                      std::to_string(j.hedges) + " from " + from.to_string() +
                      " exceeds budget " + std::to_string(ctx_.hedge_budget),
                  sent);
        }
      }
    }
  }
}

// --- end-of-run checks ------------------------------------------------------

void AuditCollector::finish(TimePoint horizon) {
  if (finished_) return;
  finished_ = true;
  // Every cross-region delegation must resolve: after an aggregator
  // forwarded a job, *something* must happen to that job — an offer, a
  // retry, a recovery, a terminal state. A job whose last trace is the
  // delegation itself fell into a void (unless the run ended right away, or
  // the job did terminate through a path the delegation raced with).
  for (const auto& [id, j] : jobs_) {
    if (!j.pending_delegation || j.terminal) continue;
    if (*j.pending_delegation + config_.delegation_grace > horizon) continue;
    violate("unresolved-delegation",
            "job " + id.to_string() +
                ": nothing happened after its cross-region delegation",
            *j.pending_delegation);
  }
}

}  // namespace aria::audit
