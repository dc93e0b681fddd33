#include "workload/cli.hpp"

#include <gtest/gtest.h>

namespace aria::workload {
namespace {

using namespace aria::literals;

TEST(Cli, DefaultsWhenNoArgs) {
  CliOptions o;
  EXPECT_FALSE(parse_cli({}, o).has_value());
  EXPECT_FALSE(o.show_help);
  EXPECT_FALSE(o.list_scenarios);
  EXPECT_EQ(o.scenario, "iMixed");
  EXPECT_EQ(o.runs, 1u);
  EXPECT_EQ(o.seed, 1u);
  EXPECT_EQ(o.nodes, 0u);
  EXPECT_FALSE(o.rescheduling.has_value());
}

TEST(Cli, ParsesAllOptions) {
  CliOptions o;
  const auto err = parse_cli({"--scenario", "HighLoad", "--runs", "5",
                              "--seed", "42", "--nodes", "200", "--jobs",
                              "400", "--resched", "--csv", "/tmp/out",
                              "--quiet"},
                             o);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(o.scenario, "HighLoad");
  EXPECT_EQ(o.runs, 5u);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.nodes, 200u);
  EXPECT_EQ(o.jobs, 400u);
  ASSERT_TRUE(o.rescheduling.has_value());
  EXPECT_TRUE(*o.rescheduling);
  EXPECT_EQ(o.csv_dir, "/tmp/out");
  EXPECT_TRUE(o.quiet);
}

TEST(Cli, HelpAndList) {
  CliOptions o;
  EXPECT_FALSE(parse_cli({"--help"}, o).has_value());
  EXPECT_TRUE(o.show_help);
  CliOptions o2;
  EXPECT_FALSE(parse_cli({"-h"}, o2).has_value());
  EXPECT_TRUE(o2.show_help);
  CliOptions o3;
  EXPECT_FALSE(parse_cli({"--list"}, o3).has_value());
  EXPECT_TRUE(o3.list_scenarios);
}

TEST(Cli, NoResched) {
  CliOptions o;
  EXPECT_FALSE(parse_cli({"--no-resched"}, o).has_value());
  ASSERT_TRUE(o.rescheduling.has_value());
  EXPECT_FALSE(*o.rescheduling);
}

TEST(Cli, FailsafeAndOverlayFlags) {
  CliOptions o;
  EXPECT_FALSE(parse_cli({"--failsafe", "--overlay", "smallworld"}, o)
                   .has_value());
  EXPECT_TRUE(o.failsafe);
  EXPECT_EQ(o.overlay, "smallworld");
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.aria.failsafe);
  EXPECT_EQ(cfg.overlay_family, ScenarioConfig::OverlayFamily::kSmallWorld);

  CliOptions o2;
  EXPECT_FALSE(parse_cli({"--overlay", "random"}, o2).has_value());
  EXPECT_EQ(resolve_scenario(o2).overlay_family,
            ScenarioConfig::OverlayFamily::kRandomRegular);

  CliOptions bad;
  EXPECT_TRUE(parse_cli({"--overlay", "torus"}, bad).has_value());
  EXPECT_TRUE(parse_cli({"--overlay"}, bad).has_value());
}

TEST(Cli, ParsesFaultFlags) {
  CliOptions o;
  const auto err = parse_cli({"--loss", "0.05", "--dup", "0.02", "--spike",
                              "0.1", "--churn", "--partition", "120,30",
                              "--partition", "300,15", "--fault-seed", "99"},
                             o);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_DOUBLE_EQ(o.loss, 0.05);
  EXPECT_DOUBLE_EQ(o.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(o.spike, 0.1);
  EXPECT_TRUE(o.churn);
  ASSERT_EQ(o.partitions.size(), 2u);
  EXPECT_DOUBLE_EQ(o.partitions[0].first, 120.0);
  EXPECT_DOUBLE_EQ(o.partitions[0].second, 30.0);
  EXPECT_EQ(o.fault_seed, 99u);
  EXPECT_TRUE(o.any_faults());
}

TEST(Cli, RejectsBadFaultValues) {
  CliOptions o;
  EXPECT_TRUE(parse_cli({"--loss", "1.5"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--loss", "-0.1"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--dup", "nope"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--partition", "120"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--partition", "x,30"}, o).has_value());
  // nan slips past every range comparison, so it needs its own rejection;
  // comma-separated values go through the same finite-number parser.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--loss", "nan"},
           {"--dup", "inf"},
           {"--spike", "-nan"},
           {"--adversaries", "nan"},
           {"--lie-factor", "inf"},
           {"--lie-factor", "nan"},
           {"--partition", "nan,30"},
           {"--partition", "120,inf"},
           {"--partition", ",30"},
           {"--region-partition", "1,nan,30"},
           {"--region-partition", "-1,0,30"},
           {"--msg-fault-bias", "REQUEST:nan,1"},
           {"--msg-fault-bias", "REQUEST:1,inf"},
           {"--target-churn", "-1"},
           {"--target-churn", "2@1,-3"},
           {"--target-churn", "4294967296"},
           {"--fault-seed", "-1"},
           {"--adversary-seed", "-1"},
           {"--seed", "-1"},
           {"--seed", "+1"},
           {"--seed", "18446744073709551616"},
       }) {
    CliOptions bad;
    const auto err = parse_cli(args, bad);
    ASSERT_TRUE(err.has_value()) << args[0] << " " << args[1];
    EXPECT_NE(err->find(args[0]), std::string::npos) << *err;
  }
  for (const char* flag : {"--loss", "--dup", "--spike", "--partition",
                           "--fault-seed"}) {
    CliOptions o2;
    EXPECT_TRUE(parse_cli({flag}, o2).has_value()) << flag;
  }
}

TEST(Cli, FaultFlagsArmThePlaneAndTheHardenings) {
  CliOptions o;
  ASSERT_FALSE(parse_cli({"--loss", "0.05", "--churn", "--partition",
                          "120,30", "--seed", "7"},
                         o)
                   .has_value());
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_DOUBLE_EQ(cfg.faults.loss, 0.05);
  ASSERT_TRUE(cfg.faults.churn.has_value());
  ASSERT_EQ(cfg.faults.partitions.size(), 1u);
  EXPECT_EQ(cfg.faults.partitions[0].start, 120_min);
  EXPECT_EQ(cfg.faults.partitions[0].duration, 30_min);
  // Loss implies acknowledged delegation; churn implies the failsafe.
  EXPECT_TRUE(cfg.aria.assign_ack);
  EXPECT_TRUE(cfg.aria.failsafe);
  // Fault seed derives from --seed when not given explicitly.
  EXPECT_NE(cfg.faults.seed, 0u);

  CliOptions o2 = o;
  o2.fault_seed = 123;
  EXPECT_EQ(resolve_scenario(o2).faults.seed, 123u);
}

TEST(Cli, ParsesTargetedFaultFlags) {
  CliOptions o;
  const auto err = parse_cli(
      {"--target-churn", "2@1,3", "--region-partition", "3,120,90",
       "--msg-fault-bias", "REGION_DIGEST:25,1", "--audit"},
      o);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(o.target_churn_ranks, 2u);
  EXPECT_EQ(o.target_churn_regions, (std::vector<std::uint32_t>{1, 3}));
  ASSERT_EQ(o.region_partitions.size(), 1u);
  EXPECT_EQ(o.region_partitions[0].region, 3u);
  EXPECT_DOUBLE_EQ(o.region_partitions[0].start_min, 120.0);
  EXPECT_DOUBLE_EQ(o.region_partitions[0].duration_min, 90.0);
  ASSERT_EQ(o.msg_fault_bias.size(), 1u);
  EXPECT_EQ(o.msg_fault_bias[0].type, "REGION_DIGEST");
  EXPECT_DOUBLE_EQ(o.msg_fault_bias[0].loss_mult, 25.0);
  EXPECT_DOUBLE_EQ(o.msg_fault_bias[0].dup_mult, 1.0);
  EXPECT_TRUE(o.audit);
  EXPECT_TRUE(o.any_faults());
}

TEST(Cli, RejectsBadTargetedFaultValues) {
  CliOptions o;
  EXPECT_TRUE(parse_cli({"--target-churn", "x"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--target-churn", "2@"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--region-partition", "3,120"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--region-partition", "3,120,-5"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--msg-fault-bias", "REGION_DIGEST"}, o).has_value());
  EXPECT_TRUE(
      parse_cli({"--msg-fault-bias", "REGION_DIGEST:25"}, o).has_value());
  EXPECT_TRUE(
      parse_cli({"--msg-fault-bias", "REGION_DIGEST:-1,1"}, o).has_value());
  for (const char* flag :
       {"--target-churn", "--region-partition", "--msg-fault-bias"}) {
    CliOptions o2;
    EXPECT_TRUE(parse_cli({flag}, o2).has_value()) << flag;
  }
}

TEST(Cli, TargetedFlagsArmThePlaneAndImplyTheirPlanes) {
  CliOptions o;
  ASSERT_FALSE(parse_cli({"--target-churn", "2", "--region-partition",
                          "3,120,90", "--msg-fault-bias", "REGION_LOAD:25,1"},
                         o)
                   .has_value());
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.faults.enabled);
  ASSERT_TRUE(cfg.faults.targeted_churn.has_value());
  EXPECT_EQ(cfg.faults.targeted_churn->ranks, 2u);
  ASSERT_EQ(cfg.faults.region_partitions.size(), 1u);
  EXPECT_EQ(cfg.faults.region_partitions[0].region, 3u);
  EXPECT_EQ(cfg.faults.region_partitions[0].start, 120_min);
  EXPECT_EQ(cfg.faults.region_partitions[0].duration, 90_min);
  ASSERT_EQ(cfg.faults.message_bias.size(), 1u);
  EXPECT_EQ(cfg.faults.message_bias[0].type, "REGION_LOAD");
  // Targeting the hierarchy's interior implies the hierarchy (and churn
  // implies the failsafe); with both planes on, the nodes arm the silence
  // escalation themselves.
  EXPECT_TRUE(cfg.aria.hierarchy.enabled);
  EXPECT_TRUE(cfg.aria.failsafe);
}

TEST(Cli, ZeroedTargetedKnobsStayInert) {
  // Every new flag present but zeroed: the fault plane must stay off and
  // the resolved scenario must equal the flagless one (the byte-for-byte
  // run-level pin lives in TargetedFault.ZeroedCliKnobsReproduceTheGolden).
  CliOptions o;
  ASSERT_FALSE(parse_cli({"--target-churn", "0", "--region-partition",
                          "1,60,0", "--msg-fault-bias", "REGION_DIGEST:1,1"},
                         o)
                   .has_value());
  EXPECT_FALSE(o.any_faults());
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_FALSE(cfg.faults.enabled);
  EXPECT_FALSE(cfg.faults.targeted_churn.has_value());
  EXPECT_TRUE(cfg.faults.region_partitions.empty());
  EXPECT_FALSE(cfg.aria.hierarchy.enabled);
  EXPECT_FALSE(cfg.audit.enabled);
}

TEST(Cli, AuditFlagArmsTheAuditorOnly) {
  CliOptions o;
  ASSERT_FALSE(parse_cli({"--audit"}, o).has_value());
  EXPECT_FALSE(o.any_faults());
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.audit.enabled);
  EXPECT_FALSE(cfg.faults.enabled);
  EXPECT_FALSE(cfg.aria.hierarchy.enabled);
}

TEST(Cli, NoFaultFlagsLeaveThePlaneOff) {
  CliOptions o;
  ASSERT_FALSE(parse_cli({"--scenario", "iMixed"}, o).has_value());
  EXPECT_FALSE(o.any_faults());
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_FALSE(cfg.faults.enabled);
  EXPECT_FALSE(cfg.aria.assign_ack);
}

TEST(Cli, RejectsUnknownOption) {
  CliOptions o;
  const auto err = parse_cli({"--frobnicate"}, o);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown option"), std::string::npos);
}

TEST(Cli, RejectsMissingValues) {
  for (const char* flag : {"--scenario", "--runs", "--seed", "--nodes",
                           "--jobs", "--csv"}) {
    CliOptions o;
    EXPECT_TRUE(parse_cli({flag}, o).has_value()) << flag;
  }
}

TEST(Cli, RejectsBadNumbers) {
  CliOptions o;
  EXPECT_TRUE(parse_cli({"--runs", "zero"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--runs", "0"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--nodes", "12x"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--jobs", "0"}, o).has_value());
  // A leading minus used to wrap to 2^64 - 1 and abort the run with
  // bad_alloc; overflow, other signs and trailing junk (which atoll reads
  // as the leading digits) are refused the same way.
  for (const char* flag : {"--nodes", "--jobs", "--runs", "--shards",
                           "--regions", "--trace-sample", "--seed",
                           "--fault-seed"}) {
    for (const char* value : {"-1", "-2", "+3", " 4", "99999999999999999999",
                              "3x", "1e2", "2abc", "12junk"}) {
      CliOptions bad;
      const auto err = parse_cli({flag, value}, bad);
      ASSERT_TRUE(err.has_value()) << flag << " " << value;
      EXPECT_NE(err->find(flag), std::string::npos) << *err;
    }
  }
}

TEST(Cli, SharedNumberParsersAreStrict) {
  // aria_sweep's flags and the ARIA_BENCH_* variables parse through these.
  std::uint64_t u = 7;
  for (const char* bad : {"", "3x", "1e2", "2abc", "12junk", "-1", "+3", " 4",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_uint(bad, u)) << bad;
  }
  EXPECT_TRUE(parse_uint("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615u);
  double d = 0.0;
  for (const char* bad : {"", "0.2x", "nan", "inf", "1e999", "0,2"}) {
    EXPECT_FALSE(parse_real(bad, d)) << bad;
  }
  EXPECT_TRUE(parse_real("0.2", d));
  EXPECT_DOUBLE_EQ(d, 0.2);
}

TEST(Cli, UsageMentionsEveryFlag) {
  const std::string usage = cli_usage();
  for (const char* flag : {"--list", "--scenario", "--runs", "--seed",
                           "--nodes", "--jobs", "--interval", "--horizon",
                           "--expand", "--resched", "--no-resched",
                           "--failsafe", "--overlay", "--csv", "--quiet",
                           "--loss", "--dup", "--spike", "--churn",
                           "--partition", "--fault-seed", "--target-churn",
                           "--region-partition", "--msg-fault-bias",
                           "--audit"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(Cli, ParsesWorkloadOverrides) {
  CliOptions o;
  const auto err = parse_cli(
      {"--interval", "5.5", "--horizon", "1800", "--expand", "140,30"}, o);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_DOUBLE_EQ(o.interval_s, 5.5);
  EXPECT_DOUBLE_EQ(o.horizon_min, 1800.0);
  ASSERT_TRUE(o.expand.has_value());
  EXPECT_EQ(o.expand->first, 140u);
  EXPECT_EQ(o.expand->second, 30_s);
}

TEST(Cli, RejectsBadWorkloadOverrides) {
  CliOptions o;
  EXPECT_TRUE(parse_cli({"--interval", "0"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--interval", "-1"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--interval", "5x"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--horizon", "0"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--horizon"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--expand", "140"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--expand", "0,30"}, o).has_value());
  // nan and inf used to run, with undefined Duration conversions.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--horizon", "nan"},
           {"--horizon", "inf"},
           {"--interval", "nan"},
           {"--interval", "inf"},
           {"--queue-cap", "nan"},
           {"--queue-cap", "inf"},
           {"--storm", "0,inf,6"},
           {"--storm", "nan,20,6"},
           {"--storm", "0,20,nan"},
           {"--expand", "1e300,30"},
           {"--expand", "140,nan"},
           {"--expand", "-140,30"},
       }) {
    CliOptions bad;
    const auto err = parse_cli(args, bad);
    ASSERT_TRUE(err.has_value()) << args[0] << " " << args[1];
    EXPECT_NE(err->find(args[0]), std::string::npos) << *err;
  }
}

TEST(Cli, ResolveAppliesWorkloadOverrides) {
  CliOptions o;
  o.scenario = "iMixed";  // no expansion plan of its own
  o.interval_s = 5.0;
  o.horizon_min = 30.0 * 60.0;
  o.expand = {140, 30_s};
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_EQ(cfg.submission_interval, 5_s);
  EXPECT_EQ(cfg.horizon, 30_h);
  ASSERT_TRUE(cfg.expansion.has_value());
  EXPECT_EQ(cfg.expansion->target_node_count, 140u);
  EXPECT_EQ(cfg.expansion->mean_interval, 30_s);
}

TEST(Cli, ResolveExpandKeepsExistingPlanFields) {
  CliOptions o;
  o.scenario = "Expanding";
  o.expand = {600, 40_s};
  const ScenarioConfig cfg = resolve_scenario(o);
  ASSERT_TRUE(cfg.expansion.has_value());
  EXPECT_EQ(cfg.expansion->target_node_count, 600u);
  EXPECT_EQ(cfg.expansion->mean_interval, 40_s);
  // Scenario-defined start / contacts survive the override.
  EXPECT_EQ(cfg.expansion->start,
            scenario_by_name("Expanding").expansion->start);
}

TEST(Cli, ResolveAppliesOverrides) {
  CliOptions o;
  o.scenario = "Mixed";
  o.nodes = 77;
  o.jobs = 88;
  o.rescheduling = true;
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_EQ(cfg.name, "Mixed");
  EXPECT_EQ(cfg.node_count, 77u);
  EXPECT_EQ(cfg.job_count, 88u);
  EXPECT_TRUE(cfg.aria.dynamic_rescheduling);
}

TEST(Cli, ResolveKeepsScenarioDefaults) {
  CliOptions o;
  o.scenario = "iMixed";
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_EQ(cfg.node_count, 500u);
  EXPECT_EQ(cfg.job_count, 1000u);
  EXPECT_TRUE(cfg.aria.dynamic_rescheduling);
}

TEST(Cli, ResolveThrowsForUnknownScenario) {
  CliOptions o;
  o.scenario = "Nope";
  EXPECT_THROW(resolve_scenario(o), std::out_of_range);
}

TEST(Cli, ParsesAdversaryFlags) {
  CliOptions o;
  const auto err = parse_cli(
      {"--adversaries", "0.1", "--lie-factor", "8", "--adversary-roles",
       "underbid,poison", "--adversary-seed", "42", "--defenses"},
      o);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_DOUBLE_EQ(o.adversaries, 0.1);
  EXPECT_DOUBLE_EQ(o.lie_factor, 8.0);
  ASSERT_EQ(o.adversary_roles.size(), 2u);
  EXPECT_EQ(o.adversary_roles[0], sim::FaultConfig::Adversary::Role::kUnderbid);
  EXPECT_EQ(o.adversary_roles[1], sim::FaultConfig::Adversary::Role::kPoison);
  EXPECT_EQ(o.adversary_seed, 42u);
  EXPECT_TRUE(o.defenses);
  EXPECT_TRUE(o.any_faults());  // adversaries arm the fault plane
}

TEST(Cli, RepeatedListFlagsKeepTheLastOccurrence) {
  // Like every scalar flag, a repeated --target-churn or --adversary-roles
  // replaces the earlier value instead of merging with it.
  CliOptions o;
  ASSERT_FALSE(
      parse_cli({"--target-churn", "2@1", "--target-churn", "3"}, o)
          .has_value());
  EXPECT_EQ(o.target_churn_ranks, 3u);
  EXPECT_TRUE(o.target_churn_regions.empty());
  ASSERT_FALSE(
      parse_cli({"--target-churn", "2@1,3", "--target-churn", "2@4"}, o)
          .has_value());
  EXPECT_EQ(o.target_churn_regions, (std::vector<std::uint32_t>{4}));

  CliOptions a;
  ASSERT_FALSE(parse_cli({"--adversary-roles", "underbid",
                          "--adversary-roles", "poison"},
                         a)
                   .has_value());
  EXPECT_EQ(a.adversary_roles,
            (std::vector<sim::FaultConfig::Adversary::Role>{
                sim::FaultConfig::Adversary::Role::kPoison}));
}

TEST(Cli, BadAdversaryRoleNamesTheOffendingToken) {
  CliOptions o;
  const auto err =
      parse_cli({"--adversary-roles", "underbid,blackhol,poison"}, o);
  ASSERT_TRUE(err.has_value());
  // The diagnostic pinpoints which entry of the list is broken.
  EXPECT_NE(err->find("blackhol"), std::string::npos) << *err;
  EXPECT_NE(err->find("entry 2"), std::string::npos) << *err;
}

TEST(Cli, RejectsBadAdversaryFlags) {
  CliOptions o;
  EXPECT_TRUE(parse_cli({"--adversaries", "1.5"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--adversaries", "-0.1"}, o).has_value());
  EXPECT_TRUE(parse_cli({"--lie-factor", "0.5"}, o).has_value());  // < 1 dilutes
  EXPECT_TRUE(parse_cli({"--adversary-roles", ""}, o).has_value());
  EXPECT_TRUE(parse_cli({"--adversary-roles"}, o).has_value());
}

TEST(Cli, ResolveArmsTheAdversaryPlan) {
  CliOptions o;
  o.scenario = "iMixed";
  o.adversaries = 0.1;
  o.lie_factor = 6.0;
  o.adversary_seed = 9;
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.faults.enabled);
  ASSERT_TRUE(cfg.faults.adversary.has_value());
  EXPECT_DOUBLE_EQ(cfg.faults.adversary->fraction, 0.1);
  EXPECT_DOUBLE_EQ(cfg.faults.adversary->lie_factor, 6.0);
  EXPECT_EQ(cfg.faults.adversary->seed, 9u);
  // No explicit role list = the full cocktail.
  EXPECT_EQ(cfg.faults.adversary->roles.size(), 4u);
  // A lying grid needs the crash-recovery machinery armed.
  EXPECT_TRUE(cfg.aria.failsafe);
}

TEST(Cli, ResolveArmsTheDefensePlane) {
  CliOptions o;
  o.scenario = "iMixed";
  o.defenses = true;
  const ScenarioConfig cfg = resolve_scenario(o);
  EXPECT_TRUE(cfg.aria.defense.enabled);
  // Revoke-then-hedge rides the failsafe watchdog and acknowledged
  // delegation; --defenses arms both.
  EXPECT_TRUE(cfg.aria.failsafe);
  EXPECT_TRUE(cfg.aria.assign_ack);
  // Defenses alone do not arm fault injection.
  EXPECT_FALSE(cfg.faults.enabled);
}

}  // namespace
}  // namespace aria::workload
