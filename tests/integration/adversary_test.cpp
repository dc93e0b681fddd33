// Adversarial-node plane (docs/adversary.md): deterministic misbehavior
// injection (underbid, blackhole, freeride, poison) and the defense plane
// that answers it (reputation-weighted bidding, suspicion filtering,
// revoke-then-hedge re-dispatch, digest clamping). The contracts mirror the
// fault plane's: inert plans are draw-for-draw invisible (byte-identical
// runs), armed plans misbehave exactly as designated, every adversarial run
// replays exactly — and the defended grid strands nothing and audits clean.
#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;
using Role = sim::FaultConfig::Adversary::Role;

workload::ScenarioConfig small_grid() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 60;
  cfg.job_count = 80;
  return cfg;
}

workload::ScenarioConfig hier_scenario() {
  workload::ScenarioConfig cfg = small_grid();
  cfg.aria.hierarchy.enabled = true;
  cfg.aria.hierarchy.region_count = 4;
  return cfg;
}

/// Arms the adversary plan on `cfg` the way the CLI does: faults master
/// switch on, failsafe on (a lying grid needs crash recovery machinery).
void arm_adversaries(workload::ScenarioConfig& cfg, double fraction,
                     std::vector<Role> roles, std::uint64_t seed = 0) {
  cfg.faults.enabled = true;
  cfg.faults.adversary = sim::FaultConfig::Adversary{};
  cfg.faults.adversary->fraction = fraction;
  cfg.faults.adversary->roles = std::move(roles);
  cfg.faults.adversary->seed = seed;
  cfg.aria.failsafe = true;
}

// ---------------------------------------------------------------------------
// adversary_role: the stateless designation predicate
// ---------------------------------------------------------------------------

TEST(Adversary, DesignationIsStatelessFractionBoundedAndRoleClosed) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.adversary = sim::FaultConfig::Adversary{};
  fc.adversary->fraction = 0.3;
  fc.adversary->roles = {Role::kUnderbid, Role::kBlackhole, Role::kFreeride,
                         Role::kPoison};
  fc.adversary->seed = 0xCAFE;
  const sim::FaultPlane plane{fc};
  const sim::FaultPlane twin{fc};

  std::size_t designated = 0;
  for (std::uint32_t n = 0; n < 2000; ++n) {
    const auto role = plane.adversary_role(NodeId{n});
    // Pure function of the config: a twin plane (no shared state, no RNG
    // draws consumed) agrees on every node.
    EXPECT_EQ(role, twin.adversary_role(NodeId{n})) << n;
    if (role) ++designated;
  }
  // fraction 0.3 of 2000: the stateless hash lands near 600.
  EXPECT_GT(designated, 480u);
  EXPECT_LT(designated, 720u);

  // A single-role plan only ever hands out that role.
  fc.adversary->roles = {Role::kBlackhole};
  const sim::FaultPlane mono{fc};
  for (std::uint32_t n = 0; n < 500; ++n) {
    const auto role = mono.adversary_role(NodeId{n});
    if (role) {
      EXPECT_EQ(*role, Role::kBlackhole) << n;
    }
  }
}

TEST(Adversary, ZeroFractionAndEmptyRoleListAreInert) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.adversary = sim::FaultConfig::Adversary{};
  fc.adversary->seed = 0xCAFE;

  fc.adversary->fraction = 0.0;
  fc.adversary->roles = {Role::kUnderbid};
  for (std::uint32_t n = 0; n < 200; ++n) {
    EXPECT_FALSE(sim::FaultPlane{fc}.adversary_role(NodeId{n})) << n;
  }

  fc.adversary->fraction = 1.0;
  fc.adversary->roles = {};  // no roles to assume
  for (std::uint32_t n = 0; n < 200; ++n) {
    EXPECT_FALSE(sim::FaultPlane{fc}.adversary_role(NodeId{n})) << n;
  }
}

// ---------------------------------------------------------------------------
// Inert plans are byte-identical
// ---------------------------------------------------------------------------

TEST(Adversary, InertAdversaryPlanIsByteIdentical) {
  // An attached plan with fraction 0 designates nobody, consumes no RNG
  // draws, and changes no code path: the run must be bitwise identical to
  // one without the plan (the zeroed-knobs contract every plane honours).
  workload::ScenarioConfig cfg = small_grid();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xAD00;
  cfg.faults.loss = 0.02;
  cfg.aria.failsafe = true;
  const workload::RunResult base = workload::run_scenario(cfg, 61);

  cfg.faults.adversary = sim::FaultConfig::Adversary{};
  cfg.faults.adversary->fraction = 0.0;
  cfg.faults.adversary->roles = {Role::kUnderbid, Role::kBlackhole};
  const workload::RunResult r = workload::run_scenario(cfg, 61);

  EXPECT_FALSE(r.adversaries_enabled);
  EXPECT_EQ(r.adversary_count, 0u);
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.completed(), base.completed());
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

TEST(Adversary, DisabledDefensePlaneIsByteIdentical) {
  // Tuning DefenseParams while enabled stays false must change nothing:
  // no ledger exists, rankings are the plain lowest-cost rule.
  workload::ScenarioConfig cfg = small_grid();
  const workload::RunResult base = workload::run_scenario(cfg, 67);

  cfg.aria.defense.straggler_factor = 1.0;
  cfg.aria.defense.straggler_min_overdue = 1_min;
  const workload::RunResult r = workload::run_scenario(cfg, 67);

  EXPECT_FALSE(r.defense_enabled);
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Each role misbehaves as designated
// ---------------------------------------------------------------------------

TEST(Adversary, UnderbiddersLieOnTheWire) {
  workload::ScenarioConfig cfg = small_grid();
  arm_adversaries(cfg, 0.2, {Role::kUnderbid});
  const workload::RunResult r = workload::run_scenario(cfg, 71);

  ASSERT_TRUE(r.adversaries_enabled);
  EXPECT_GT(r.adversary_count, 0u);
  EXPECT_GT(r.adv_underbids, 0u);
  // Underbidders run what they win (slowly); nothing strands.
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Adversary, BlackholesSwallowAssignsButTheFailsafeRecovers) {
  workload::ScenarioConfig cfg = small_grid();
  arm_adversaries(cfg, 0.2, {Role::kBlackhole});
  cfg.aria.assign_ack = true;  // the ACK is the lie: queued, then dropped
  const workload::RunResult r = workload::run_scenario(cfg, 73);

  ASSERT_TRUE(r.adversaries_enabled);
  EXPECT_GT(r.adv_assigns_swallowed, 0u);
  // Every swallowed job came back through the watchdog re-flood.
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Adversary, FreeridersDeflateTheirAdvertisements) {
  workload::ScenarioConfig cfg = small_grid();
  arm_adversaries(cfg, 0.25, {Role::kFreeride});
  const workload::RunResult r = workload::run_scenario(cfg, 79);

  ASSERT_TRUE(r.adversaries_enabled);
  EXPECT_GT(r.adv_informs_deflated, 0u);
  EXPECT_EQ(r.stranded(), 0u);
}

TEST(Adversary, PoisonersInflateDigestsAndTheClampRejectsThem) {
  workload::ScenarioConfig cfg = hier_scenario();
  arm_adversaries(cfg, 0.5, {Role::kPoison}, /*seed=*/0xAD01);
  cfg.audit.enabled = true;
  const workload::RunResult undefended = workload::run_scenario(cfg, 83);

  ASSERT_TRUE(undefended.adversaries_enabled);
  EXPECT_GT(undefended.adv_digests_poisoned, 0u);
  // The auditor knows who was designated: poisoned digests land in the
  // informational expected-adversary counter, not in the violation total.
  EXPECT_EQ(undefended.audit_violations, 0u);

  cfg.aria.defense.enabled = true;
  const workload::RunResult defended = workload::run_scenario(cfg, 83);
  EXPECT_GT(defended.digests_clamped, 0u);
  EXPECT_EQ(defended.audit_violations, 0u);
  EXPECT_EQ(defended.stranded(), 0u);
}

// ---------------------------------------------------------------------------
// Replay and defense end to end
// ---------------------------------------------------------------------------

TEST(Adversary, SameSeedCocktailReplaysByteIdentically) {
  workload::ScenarioConfig cfg = hier_scenario();
  arm_adversaries(
      cfg, 0.2,
      {Role::kUnderbid, Role::kBlackhole, Role::kFreeride, Role::kPoison});
  cfg.aria.defense.enabled = true;
  cfg.aria.assign_ack = true;
  cfg.audit.enabled = true;

  const workload::RunResult a = workload::run_scenario(cfg, 89);
  const workload::RunResult b = workload::run_scenario(cfg, 89);

  EXPECT_EQ(a.adversary_count, b.adversary_count);
  EXPECT_EQ(a.adv_underbids, b.adv_underbids);
  EXPECT_EQ(a.adv_assigns_swallowed, b.adv_assigns_swallowed);
  EXPECT_EQ(a.adv_digests_poisoned, b.adv_digests_poisoned);
  EXPECT_EQ(a.offers_distrusted, b.offers_distrusted);
  EXPECT_EQ(a.hedges_dispatched, b.hedges_dispatched);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

TEST(Adversary, DefendedCocktailFiltersOffersAndAuditsClean) {
  workload::ScenarioConfig cfg = hier_scenario();
  arm_adversaries(
      cfg, 0.2,
      {Role::kUnderbid, Role::kBlackhole, Role::kFreeride, Role::kPoison});
  cfg.aria.defense.enabled = true;
  cfg.aria.assign_ack = true;
  cfg.audit.enabled = true;
  const workload::RunResult r = workload::run_scenario(cfg, 97);

  ASSERT_TRUE(r.defense_enabled);
  // The ledger convicted repeat offenders and the ranking skipped them.
  EXPECT_GT(r.offers_distrusted, 0u);
  // The acceptance bar of docs/adversary.md: nothing strands, the online
  // auditor sees no invariant violation, the lifecycle tracker agrees.
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Adversary, HedgedRedispatchFiresButNeverDoubleRuns) {
  // Tight straggler screws so revoke-then-hedge actually triggers: a
  // blackhole ACKs the ASSIGN and sits on the job, the quoted-ETTC deadline
  // expires, the revoke goes unanswered, and the initiator hedges onto the
  // runner-up. The auditor's hedge-budget and duplicate-completion checks
  // prove on the wire that no job ran twice and no budget was exceeded.
  workload::ScenarioConfig cfg = small_grid();
  arm_adversaries(cfg, 0.3, {Role::kBlackhole});
  cfg.aria.assign_ack = true;
  cfg.aria.defense.enabled = true;
  cfg.aria.defense.straggler_factor = 1.0;
  cfg.aria.defense.straggler_min_overdue = 1_min;
  cfg.audit.enabled = true;
  const workload::RunResult r = workload::run_scenario(cfg, 101);

  ASSERT_TRUE(r.defense_enabled);
  EXPECT_GT(r.stragglers_detected, 0u);
  EXPECT_GT(r.revokes_sent, 0u);
  EXPECT_GT(r.hedges_dispatched, 0u);
  // Proof of single execution: zero audit violations means every completion
  // fit the 1 + recoveries + hedges budget and no hedge exceeded its cap.
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
  EXPECT_EQ(r.stranded(), 0u);
}

TEST(Adversary, ZeroedCliKnobsReproduceTheGolden) {
  // Every new flag zeroed / defaulted: the run reproduces the exact golden
  // constants determinism_test.cpp pinned for this workload.
  workload::CliOptions o;
  ASSERT_FALSE(workload::parse_cli({"--adversaries", "0", "--adversary-roles",
                                    "underbid,blackhole,freeride,poison",
                                    "--adversary-seed", "7"},
                                   o)
                   .has_value());
  EXPECT_FALSE(o.any_faults());
  workload::ScenarioConfig cfg = workload::resolve_scenario(o);
  cfg.node_count = 60;
  cfg.job_count = 80;
  cfg.submission_interval = cfg.submission_interval / 2;
  cfg.horizon = Duration::hours(30);
  const workload::RunResult r = workload::run_scenario(cfg, 42);

  // The same pins as Determinism.GoldenRunMatchesRecordedKernelBehaviour.
  EXPECT_EQ(r.completed(), 80u);
  EXPECT_EQ(r.events_fired, 91227u);
  EXPECT_EQ(r.traffic.total().messages, 67226u);
  EXPECT_EQ(r.traffic.total().bytes, 68025856u);
  EXPECT_EQ(r.tracker.total_reschedules(), 37u);
}

}  // namespace
}  // namespace aria::proto
