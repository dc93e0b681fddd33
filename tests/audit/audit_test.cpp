// Online invariant auditor (docs/audit.md). Two layers: unit tests drive an
// AuditCollector directly with synthetic lifecycle events and wire messages
// to pin every violation kind, and integration tests run real scenarios to
// pin the ends of the contract — a clean run (even under the full fault
// cocktail) audits clean, attaching the auditor never perturbs a run's
// metrics or wire traffic, and it composes with the other subscribers.
#include "audit/auditor.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "sim/pdes/journal.hpp"
#include "trace/export.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::audit {
namespace {

using namespace aria::literals;
namespace ev = proto::event;

TimePoint at(std::int64_t minutes) {
  return TimePoint::origin() + Duration::minutes(minutes);
}

JobId job_id(std::uint64_t salt) {
  Rng rng{salt};
  return JobId::generate(rng);
}

grid::JobSpec spec(const JobId& id) {
  grid::JobSpec s;
  s.id = id;
  s.ert = 10_min;
  return s;
}

AuditCollector make_collector(AuditContext ctx = {}) {
  return AuditCollector{AuditConfig{}, ctx};
}

// ---------------------------------------------------------------------------
// Unit: lifecycle checks
// ---------------------------------------------------------------------------

TEST(Audit, CleanLifecycleAuditsClean) {
  AuditCollector a = make_collector();
  const JobId id = job_id(1);
  a.on_event(at(0), ev::Submitted{spec(id), NodeId{0}});
  a.on_event(at(1), ev::BidReceived{id, NodeId{0}, NodeId{7}, 3.0});
  a.on_event(at(2), ev::Delegated{id, NodeId{0}, NodeId{7}, false});
  a.on_event(at(2), ev::Assigned{spec(id), NodeId{7}, false});
  a.on_event(at(3), ev::Started{id, NodeId{7}});
  a.on_event(at(13), ev::Completed{id, NodeId{7}, 10_min});
  a.finish(at(1000));
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_TRUE(a.violations().empty());
  EXPECT_TRUE(a.by_kind().empty());
}

TEST(Audit, DelegationWithoutOfferIsFlagged) {
  AuditCollector a = make_collector();
  const JobId id = job_id(2);
  a.on_event(at(0), ev::Submitted{spec(id), NodeId{0}});
  // Node 9 never bid, yet the initiator hands the job to it.
  a.on_event(at(1), ev::Delegated{id, NodeId{0}, NodeId{9}, false});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "assign-without-accept");
  EXPECT_EQ(a.by_kind().at("assign-without-accept"), 1u);
}

TEST(Audit, DuplicateCompletionWithoutRecoveryIsFlagged) {
  AuditCollector a = make_collector();
  const JobId id = job_id(3);
  a.on_event(at(10), ev::Completed{id, NodeId{4}, 10_min});
  a.on_event(at(12), ev::Completed{id, NodeId{5}, 10_min});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "duplicate-completion");
}

TEST(Audit, RecoveryExplainsASecondCompletion) {
  // The failsafe's at-least-once contract: a watchdog re-flood between the
  // two completions makes the duplicate legitimate.
  AuditCollector a = make_collector();
  const JobId id = job_id(4);
  a.on_event(at(10), ev::Completed{id, NodeId{4}, 10_min});
  a.on_event(at(11), ev::Recovery{id, 1});
  a.on_event(at(20), ev::Completed{id, NodeId{5}, 10_min});
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Audit, RecoveryBudgetOverrunIsFlagged) {
  AuditContext ctx;
  ctx.failsafe_max_recoveries = 3;
  AuditCollector a = make_collector(ctx);
  const JobId id = job_id(5);
  a.on_event(at(10), ev::Recovery{id, 3});  // at the budget: fine
  EXPECT_EQ(a.violation_count(), 0u);
  // Past the budget: the watchdog should have abandoned.
  a.on_event(at(20), ev::Recovery{id, 4});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "recovery-budget-exceeded");

  // Budget 0 = failsafe off = check skipped entirely.
  AuditCollector off = make_collector();
  off.on_event(at(10), ev::Recovery{id, 99});
  EXPECT_EQ(off.violation_count(), 0u);
}

TEST(Audit, UnresolvedDelegationSurfacesAtFinish) {
  AuditContext ctx;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  const JobId id = job_id(6);
  a.on_event(at(10), ev::RegionDelegated{id, NodeId{1}, 0, 2});
  a.finish(at(1000));  // nothing ever happened to the job afterwards
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "unresolved-delegation");
}

TEST(Audit, LaterEventResolvesADelegation) {
  AuditContext ctx;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  const JobId id = job_id(7);
  a.on_event(at(10), ev::RegionDelegated{id, NodeId{1}, 0, 2});
  a.on_event(at(15), ev::BidReceived{id, NodeId{0}, NodeId{42}, 2.0});
  a.finish(at(1000));
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Audit, DelegationNearHorizonGetsGrace) {
  AuditContext ctx;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  const JobId id = job_id(8);
  a.on_event(at(995), ev::RegionDelegated{id, NodeId{1}, 0, 2});
  a.finish(at(1000));  // inside kDelegationGrace: in flight, not stranded
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Audit, DelegationOutsideRegionRangeIsFlagged) {
  AuditContext ctx;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  a.on_event(at(10), ev::RegionDelegated{job_id(9), NodeId{1}, 0, 7});
  ASSERT_GE(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "delegation-bad-region");
}

// ---------------------------------------------------------------------------
// Unit: digest conservation on the wire tap
// ---------------------------------------------------------------------------

void tap_digest(AuditCollector& a, NodeId from, overlay::RegionDigest d,
                std::int64_t minute = 10) {
  const proto::RegionDigestMsg msg{from, d};
  a.on_message(from, NodeId{99}, msg, at(minute), at(minute), false);
}

TEST(Audit, WellFormedDigestPasses) {
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {/*region=*/1, /*epoch=*/3, /*members=*/25,
                            /*idle=*/10, /*backlog_seconds=*/12.5,
                            /*queue_len=*/4});
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Audit, DigestClaimingMoreMembersThanThePopulationIsFlagged) {
  AuditContext ctx;
  ctx.node_count = 100;   // region 1 of R=4 holds exactly 25 nodes
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {1, 3, /*members=*/26, 0, 0.0, 0});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "digest-overcount");
}

TEST(Audit, DigestMalformationsAreFlagged) {
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {/*region=*/9, 1, 5, 0, 0.0, 0});   // bad region
  tap_digest(a, NodeId{2}, {2, 1, 5, /*idle=*/6, 0.0, 0});     // idle > members
  tap_digest(a, NodeId{3}, {3, 1, 5, 0, /*backlog=*/-1.0, 0}); // negative
  EXPECT_EQ(a.by_kind().at("digest-bad-region"), 1u);
  EXPECT_EQ(a.by_kind().at("digest-idle-overcount"), 1u);
  EXPECT_EQ(a.by_kind().at("digest-negative-backlog"), 1u);
}

TEST(Audit, DigestEpochMayRepeatButNeverRegress) {
  // The fault plane duplicates messages, so an equal epoch is legitimate;
  // only a strictly smaller one means the aggregator ran backwards.
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {1, /*epoch=*/5, 5, 0, 0.0, 0});
  tap_digest(a, NodeId{1}, {1, /*epoch=*/5, 5, 0, 0.0, 0});  // duplicate: fine
  EXPECT_EQ(a.violation_count(), 0u);
  tap_digest(a, NodeId{1}, {1, /*epoch=*/4, 5, 0, 0.0, 0});  // regression
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "digest-epoch-regression");
}

// ---------------------------------------------------------------------------
// Unit: adversary-plane checks (docs/adversary.md)
// ---------------------------------------------------------------------------

TEST(Audit, DesignatedPoisonerDigestsAreReattributedNotViolations) {
  // With an expected-adversary predicate, a poisoned digest from a
  // designated liar is the injection working as configured: it lands in the
  // informational counter, not the violation total. Honest senders still
  // get flagged.
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  ctx.expected_adversary = [](NodeId n) { return n == NodeId{1}; };
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {1, 3, /*members=*/80, 0, 0.0, 0});  // designated
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_EQ(a.expected_adversary_digests(), 1u);
  tap_digest(a, NodeId{2}, {2, 3, /*members=*/80, 0, 0.0, 0});  // honest!
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "digest-overcount");
}

TEST(Audit, ClampWithoutAPoisonedDigestIsFlagged) {
  // A defender may only clamp digests the wire actually saw misbehave;
  // clamping a clean one would silently blind the hierarchy.
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  AuditCollector a = make_collector(ctx);
  a.on_event(at(10), ev::DigestClamped{NodeId{9}, NodeId{1}, /*region=*/1,
                                        /*epoch=*/3});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "clamp-without-cause");
}

TEST(Audit, ClampOfAPoisonedDigestIsLegitimate) {
  AuditContext ctx;
  ctx.node_count = 100;
  ctx.region_count = 4;
  ctx.expected_adversary = [](NodeId n) { return n == NodeId{1}; };
  AuditCollector a = make_collector(ctx);
  tap_digest(a, NodeId{1}, {1, 3, /*members=*/80, 0, 0.0, 0});
  // The send tap recorded the bad (from, region, epoch); the receiver's
  // clamp of exactly that digest is cause-backed.
  a.on_event(at(11), ev::DigestClamped{NodeId{9}, NodeId{1}, 1, 3});
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Audit, ReputationMovesAreBoundedByAlpha) {
  AuditContext ctx;
  ctx.reputation_alpha = 0.3;
  AuditCollector a = make_collector(ctx);
  // Never-observed peers start at kInitialReputation (1.0): one EWMA step
  // can move the score by at most alpha.
  // |1.0 - 0.79| <= 0.3
  a.on_event(at(1), ev::Reputation{NodeId{0}, NodeId{7}, 0.79});
  EXPECT_EQ(a.violation_count(), 0u);
  // 0.59 jump: flagged
  a.on_event(at(2), ev::Reputation{NodeId{0}, NodeId{7}, 0.20});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "reputation-jump");
}

TEST(Audit, ReputationOutsideTheUnitIntervalIsFlagged) {
  AuditContext ctx;
  ctx.reputation_alpha = 0.3;
  AuditCollector a = make_collector(ctx);
  // The step is legal, the range is not.
  a.on_event(at(1), ev::Reputation{NodeId{0}, NodeId{7}, 1.25});
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "reputation-out-of-range");

  // Alpha 0 = defense plane off = reputation checks skipped entirely.
  AuditCollector off = make_collector();
  off.on_event(at(1), ev::Reputation{NodeId{0}, NodeId{7}, 42.0});
  EXPECT_EQ(off.violation_count(), 0u);
}

TEST(Audit, HedgeBudgetIsMeteredOnTheWire) {
  AuditContext ctx;
  ctx.hedge_budget = 1;
  AuditCollector a = make_collector(ctx);
  Rng rng{99};
  const JobId id = job_id(30);
  const proto::AssignMsg first{NodeId{0}, spec(id), false,
                               Uuid::generate(rng), /*hedge=*/true};
  a.on_message(NodeId{0}, NodeId{5}, first, at(1), at(1), false);
  // Retransmission of the same attempt reuses the assign id: still 1 hedge.
  a.on_message(NodeId{0}, NodeId{5}, first, at(2), at(2), false);
  EXPECT_EQ(a.violation_count(), 0u);
  // A second distinct hedged attempt blows the budget of 1.
  const proto::AssignMsg second{NodeId{0}, spec(id), false,
                                Uuid::generate(rng), /*hedge=*/true};
  a.on_message(NodeId{0}, NodeId{6}, second, at(3), at(3), false);
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "hedge-budget-exceeded");
}

TEST(Audit, AHedgeExplainsASecondCompletion) {
  // Revoke-before-grant cannot always stop a racing straggler from
  // finishing after the hedge landed; completions up to
  // 1 + recoveries + hedges are accounted for, one more is not.
  AuditContext ctx;
  ctx.hedge_budget = 1;
  AuditCollector a = make_collector(ctx);
  Rng rng{7};
  const JobId id = job_id(31);
  const proto::AssignMsg hedge{NodeId{0}, spec(id), false,
                               Uuid::generate(rng), /*hedge=*/true};
  a.on_message(NodeId{0}, NodeId{5}, hedge, at(1), at(1), false);
  a.on_event(at(10), ev::Completed{id, NodeId{5}, 10_min});
  a.on_event(at(11), ev::Completed{id, NodeId{6}, 10_min});  // the hedge pair
  EXPECT_EQ(a.violation_count(), 0u);
  a.on_event(at(12), ev::Completed{id, NodeId{7}, 10_min});  // a third is not
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "duplicate-completion");
}

// ---------------------------------------------------------------------------
// Unit: subscriber + recording cap
// ---------------------------------------------------------------------------

TEST(Audit, DefaultRecordingCapSurvivesAViolationFlood) {
  // The shipped default (max_recorded 64): flood well past it and the
  // stored records plateau while the count and by-kind totals keep going.
  AuditCollector a = make_collector();
  for (int i = 0; i < 100; ++i) {
    const JobId id = job_id(1000 + i);
    a.on_event(at(10), ev::Completed{id, NodeId{1}, 10_min});
    a.on_event(at(11), ev::Completed{id, NodeId{2}, 10_min});  // a duplicate
  }
  EXPECT_EQ(a.violation_count(), 100u);
  EXPECT_EQ(a.violations().size(), AuditConfig{}.max_recorded);
  EXPECT_EQ(a.by_kind().at("duplicate-completion"), 100u);
}

TEST(Audit, ForwardsEveryCallbackToTheWrappedObserver) {
  // The auditor sits ahead of another subscriber on one ObserverList; the
  // one behind it still sees every event, in order.
  struct Recorder : proto::ProtocolObserver {
    std::vector<std::string> calls;
    void on_event(TimePoint, const proto::ProtocolEvent& event) override {
      if (std::holds_alternative<ev::Submitted>(event)) {
        calls.push_back("submitted");
      } else if (std::holds_alternative<ev::Delegated>(event)) {
        calls.push_back("delegated");
      } else if (std::holds_alternative<ev::Completed>(event)) {
        calls.push_back("completed");
      }
    }
  } rec;
  AuditCollector a = make_collector();
  proto::ObserverList list;
  list.add(&a);
  list.add(&rec);
  const JobId id = job_id(10);
  list.on_event(at(0), ev::Submitted{spec(id), NodeId{0}});
  list.on_event(at(1), ev::Delegated{id, NodeId{0}, NodeId{1}, false});
  list.on_event(at(5), ev::Completed{id, NodeId{1}, 4_min});
  EXPECT_EQ(rec.calls,
            (std::vector<std::string>{"submitted", "delegated", "completed"}));
  // The auditor saw them too: node 1 never bid for the job it was handed.
  ASSERT_EQ(a.violation_count(), 1u);
  EXPECT_EQ(a.violations()[0].kind, "assign-without-accept");
}

TEST(Audit, RecordingCapBoundsMemoryNotTheCount) {
  AuditConfig cfg;
  cfg.max_recorded = 2;
  AuditCollector a{cfg, AuditContext{}};
  for (int i = 0; i < 5; ++i) {
    // The same job id every time.
    a.on_event(at(i + 1), ev::Completed{job_id(20), NodeId{1}, 1_min});
  }
  EXPECT_EQ(a.violation_count(), 4u);   // every duplicate counted...
  EXPECT_EQ(a.violations().size(), 2u); // ...but only the first two stored
}

// ---------------------------------------------------------------------------
// Integration: real runs
// ---------------------------------------------------------------------------

workload::ScenarioConfig small_grid() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 60;
  cfg.job_count = 80;
  return cfg;
}

TEST(Audit, EnabledAuditorIsMetricInertAndCleanOnAHealthyRun) {
  const workload::RunResult base = workload::run_scenario(small_grid(), 31);

  workload::ScenarioConfig cfg = small_grid();
  cfg.audit.enabled = true;
  const workload::RunResult r = workload::run_scenario(cfg, 31);

  ASSERT_TRUE(r.audit_enabled);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_TRUE(r.violations.empty());
  // The auditor observes; it must never perturb.
  EXPECT_EQ(r.completed(), base.completed());
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

TEST(Audit, CleanUnderHierarchyFaultCocktail) {
  // The point of the auditor: under churn + loss + duplication with the
  // hierarchy on, the protocol must still satisfy every invariant.
  workload::ScenarioConfig cfg = small_grid();
  cfg.aria.hierarchy.enabled = true;
  cfg.aria.hierarchy.region_count = 4;
  cfg.aria.failsafe = true;
  cfg.aria.assign_ack = true;  // the CLI arms this with any message fault
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xAD17;
  cfg.faults.loss = 0.02;
  cfg.faults.duplicate = 0.02;
  cfg.faults.churn = sim::FaultConfig::Churn{};
  cfg.audit.enabled = true;

  const workload::RunResult r = workload::run_scenario(cfg, 37);
  ASSERT_TRUE(r.audit_enabled);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_EQ(r.audit_violations, 0u)
      << (r.violations.empty()
              ? std::string{}
              : r.violations[0].kind + ": " + r.violations[0].detail);
}

TEST(Audit, ComposesWithTheJournalAndTheTracer) {
  // Journal, tracer and auditor all subscribe at once: each still sees
  // exactly the stream it sees alone.
  workload::ScenarioConfig journal_only = small_grid();
  journal_only.pdes_journal = true;
  workload::GridSimulation journaled{journal_only, 41};
  journaled.run();

  workload::ScenarioConfig trace_only = small_grid();
  trace_only.trace.enabled = true;
  const workload::RunResult traced = workload::run_scenario(trace_only, 41);

  workload::ScenarioConfig all = small_grid();
  all.pdes_journal = true;
  all.trace.enabled = true;
  all.audit.enabled = true;
  workload::GridSimulation composed{all, 41};
  const workload::RunResult r = composed.run();

  EXPECT_EQ(r.audit_violations, 0u);
  const auto journal = composed.journal_entries();
  EXPECT_FALSE(journal.empty());
  EXPECT_EQ(journal, journaled.journal_entries());
  std::ostringstream composed_jsonl;
  std::ostringstream traced_jsonl;
  trace::export_jsonl(*r.trace, composed_jsonl);
  trace::export_jsonl(*traced.trace, traced_jsonl);
  EXPECT_EQ(composed_jsonl.str(), traced_jsonl.str());
}

}  // namespace
}  // namespace aria::audit
