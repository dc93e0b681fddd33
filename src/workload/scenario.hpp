// Scenario definitions (paper Table II) and the registry of all 26.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "common/time.hpp"
#include "core/config.hpp"
#include "grid/job.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "trace/record.hpp"
#include "workload/jobgen.hpp"

namespace aria::workload {

struct ScenarioConfig {
  std::string name;
  std::string description;

  // --- grid -------------------------------------------------------------
  std::size_t node_count{500};
  static constexpr double kBootstrapAvgDegree = 4.0;
  /// Overlay construction/maintenance family. The paper evaluates on
  /// BLATANT-S; the alternatives implement its future work of comparing
  /// meta-scheduling across overlay types.
  enum class OverlayFamily { kBlatant, kRandomRegular, kSmallWorld };
  OverlayFamily overlay_family{OverlayFamily::kBlatant};
  /// Small-world rewiring probability (kSmallWorld only).
  static constexpr double kSmallWorldBeta = 0.1;

  /// Virtual organizations (paper §III-B's example execution constraint).
  /// With vo_count > 1, nodes are tagged "vo0".."vo<n-1>" round-robin and
  /// `vo_job_fraction` of the jobs is pinned to a random organization.
  std::size_t vo_count{1};
  double vo_job_fraction{0.0};
  /// Local schedulers are drawn uniformly from this set per node.
  std::vector<sched::SchedulerKind> scheduler_mix{
      sched::SchedulerKind::kFcfs, sched::SchedulerKind::kSjf};

  // --- protocol -----------------------------------------------------------
  proto::AriaConfig aria{};

  // --- workload -----------------------------------------------------------
  std::size_t job_count{1000};
  Duration submission_start{Duration::minutes(20)};
  Duration submission_interval{Duration::seconds(10)};
  JobGenParams jobs{};
  /// Request storm: compresses arrivals inside a window (docs/overload.md).
  /// Requires no RNG — the deterministic arrival schedule just changes — so
  /// storms compose with every scenario without perturbing its seed.
  std::optional<StormParams> storm{};
  grid::ErtErrorModel ert_error{};

  // --- expanding network (Expanding / iExpanding) --------------------------
  struct Expansion {
    Duration start{Duration::minutes(83)};           // 1h23m
    Duration mean_interval{Duration::seconds(50)};
    std::size_t target_node_count{700};
    static constexpr std::size_t kJoinContacts = 2;
  };
  std::optional<Expansion> expansion{};

  // --- fault injection ------------------------------------------------------
  /// All-off by default; Table II scenarios never enable faults, so the
  /// baseline figures stay untouched. See docs/faults.md.
  sim::FaultConfig faults{};

  // --- tracing --------------------------------------------------------------
  /// Off by default: no collector is constructed and no tap attached, so
  /// default output stays byte-identical. See docs/tracing.md.
  trace::TraceConfig trace{};

  // --- invariant auditing ---------------------------------------------------
  /// Off by default, same zero-cost contract as tracing: no collector and
  /// no subscription. See docs/audit.md.
  audit::AuditConfig audit{};

  // --- simulation ----------------------------------------------------------
  Duration horizon{Duration::hours(41) + Duration::minutes(40)};
  static constexpr Duration kMetricsSamplePeriod = Duration::seconds(60);
  static constexpr Duration kMaintenancePeriod = Duration::minutes(5);

  // --- sharded execution (docs/pdes.md) -------------------------------------
  /// Number of PDES shards the node plane is split across. 1 (the default)
  /// is the plain single-threaded kernel; N > 1 runs one simulation on N
  /// worker threads under the conservative barrier-window executor, with a
  /// byte-for-byte determinism contract against the sequential run.
  std::size_t shards{1};
  /// Record the canonical send journal (works in both execution modes).
  /// Costs memory proportional to message count; used by the equivalence
  /// verifier to name the first divergent event on mismatch.
  bool pdes_journal{false};

  bool deadline_scenario() const { return jobs.deadline_slack_mean.has_value(); }
  TimePoint submission_end() const {
    return TimePoint::origin() + submission_start +
           submission_interval * static_cast<std::int64_t>(job_count - 1);
  }
};

/// All 26 scenarios of Table II, in the paper's order.
const std::vector<ScenarioConfig>& all_scenarios();

/// Lookup by Table II name (e.g. "iMixed"); throws std::out_of_range on
/// unknown names.
const ScenarioConfig& scenario_by_name(const std::string& name);

}  // namespace aria::workload
