// Command-line options for the `aria_sim` scenario runner, plus the strict
// number parsers the tools and benches share. Parsing lives in the library
// so it is unit-testable; the tool itself is a thin main().
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/scenario.hpp"

namespace aria::workload {

struct CliOptions {
  bool show_help{false};
  bool list_scenarios{false};
  std::string scenario{"iMixed"};
  std::size_t runs{1};
  std::uint64_t seed{1};
  /// Overrides applied on top of the named scenario (0 / empty = keep).
  std::size_t nodes{0};
  std::size_t jobs{0};
  /// Base submission interval override in seconds (0 = keep).
  double interval_s{0.0};
  /// Simulation horizon override in minutes (0 = keep).
  double horizon_min{0.0};
  /// Expansion override as (target node count, mean join interval). Applied
  /// on top of the scenario's expansion plan; on non-expanding scenarios it
  /// arms a default plan first.
  std::optional<std::pair<std::size_t, Duration>> expand{};
  std::optional<bool> rescheduling{};
  bool failsafe{false};
  /// Self-healing overlay plane (PING/PONG liveness, eviction, repair).
  bool healing{false};
  /// Overload plane (bounded queues, admission REJECT, shed-and-forward).
  bool overload{false};
  /// Hierarchical discovery plane (super-peer regions, docs/hierarchy.md).
  bool hierarchy{false};
  /// Region count override (0 = auto-size to the target region size).
  /// Setting it implies --hierarchy.
  std::size_t regions{0};
  /// Queue bound override: jobs per unit of performance index (0 = keep the
  /// default). Setting it implies --overload.
  double queue_cap{0.0};
  /// Request storm as (start, duration, intensity): minutes into the
  /// submission phase, window length in minutes, arrival-rate multiplier.
  /// Implies --overload.
  std::optional<StormParams> storm{};
  /// "blatant" (default), "random", or "smallworld".
  std::string overlay{};
  /// PDES shard count (docs/pdes.md): 1 = plain sequential kernel, N > 1 =
  /// region-parallel execution under the conservative executor.
  std::size_t shards{1};
  /// Run each seed twice — sequential oracle then sharded — with send
  /// journals on, and compare: exit nonzero naming the first divergent
  /// event on mismatch. Requires --shards > 1.
  bool pdes_verify{false};
  /// Directory to drop CSV series into (empty = no CSV output).
  std::string csv_dir{};
  bool quiet{false};

  // --- tracing (any output path turns the tracing plane on) ---------------
  /// Chrome trace_event JSON output path (Perfetto / chrome://tracing).
  std::string trace_path{};
  /// JSONL event-log output path (machine-diffable, byte-stable per seed).
  std::string trace_jsonl_path{};
  /// Record every Nth wire message (default 16; 1 = every message).
  std::uint64_t trace_sample{16};

  bool tracing() const { return !trace_path.empty() || !trace_jsonl_path.empty(); }

  // --- fault injection (any flag set turns the fault plane on) -----------
  double loss{0.0};       // per-message loss probability
  double duplicate{0.0};  // per-message duplication probability
  double spike{0.0};      // per-message latency-spike probability
  bool churn{false};      // node crash/restart schedules
  /// Partition windows as "START,DURATION" in minutes (repeatable flag).
  std::vector<std::pair<double, double>> partitions;
  /// Fault stream seed; 0 = derive from the run seed.
  std::uint64_t fault_seed{0};

  // --- targeted faults (docs/faults.md "Targeted faults") -----------------
  /// Role-targeted churn: crash/restart cycles aimed at the aggregator
  /// candidates of ranks [0, N), optionally restricted to listed regions
  /// ("N@r1,r2,..."). 0 = flag present but inert. Implies --hierarchy and
  /// the failsafe.
  std::uint32_t target_churn_ranks{0};
  std::vector<std::uint32_t> target_churn_regions;
  /// Region-aligned partitions as (region, start min, duration min):
  /// severs the whole region — members and aggregators — from the rest of
  /// the grid. Zero-duration windows are inert. Implies --hierarchy.
  struct RegionPartitionOpt {
    std::size_t region{0};
    double start_min{0.0};
    double duration_min{0.0};
  };
  std::vector<RegionPartitionOpt> region_partitions;
  /// Message-class loss/dup multipliers ("TYPE:LOSS_MULT,DUP_MULT"). A
  /// modifier, not a fault source: it never arms the plane by itself, and
  /// 1,1 entries are draw-for-draw inert.
  std::vector<sim::FaultConfig::MessageBias> msg_fault_bias;

  // --- adversarial nodes (docs/adversary.md) ------------------------------
  /// Fraction of nodes designated as adversaries (0 = plane off). Implies
  /// the fault plane, acknowledged delegation and the failsafe.
  double adversaries{0.0};
  /// How hard adversaries lie (cost divisor / digest multiplier). 0 = keep
  /// the FaultConfig default.
  double lie_factor{0.0};
  /// Roles the designation hash draws from; empty = all four.
  std::vector<sim::FaultConfig::Adversary::Role> adversary_roles;
  /// Designation seed; 0 = derive from the fault stream (the engine mixes
  /// the run seed in), so an explicit seed pins the cast across scenarios.
  std::uint64_t adversary_seed{0};
  /// Defense plane: reputation-weighted bidding, suspicion filtering,
  /// straggler revoke + hedged re-dispatch, digest clamping.
  bool defenses{false};

  // --- invariant auditing (docs/audit.md) ---------------------------------
  /// Online invariant auditor; metrics stay byte-identical, violations make
  /// aria_sim exit nonzero.
  bool audit{false};

  bool any_region_partitions() const {
    for (const auto& rp : region_partitions) {
      if (rp.duration_min > 0.0) return true;
    }
    return false;
  }

  bool any_faults() const {
    return loss > 0.0 || duplicate > 0.0 || spike > 0.0 || churn ||
           !partitions.empty() || target_churn_ranks > 0 ||
           any_region_partitions() || adversaries > 0.0;
  }
};

// The number parsers aria_sim, aria_sweep and the benches share. They are
// static so each includer gets a private copy the compiler inlines freely:
// with external linkage GCC inlines them less into parse_cli, which changes
// the code of every binary that links it.

/// Decimal unsigned integer: digits only. A sign, a blank, trailing junk or
/// a value `out` cannot hold is an error (strtoull would silently wrap "-1"
/// to 2^64 - 1, and atoll reads "3x" as 3).
template <class UInt>
static bool parse_uint(std::string_view text, UInt& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && end == last;
}

/// Finite decimal number. nan, inf and trailing junk are errors (strtod
/// accepts the first two, which then reach Duration conversions as UB).
static inline bool parse_real(std::string_view text, double& out) {
  const char* last = text.data() + text.size();
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Parses argv (excluding argv[0]). On error returns the message; on
/// success fills `out`.
std::optional<std::string> parse_cli(const std::vector<std::string>& args,
                                     CliOptions& out);

/// Usage text for --help.
std::string cli_usage();

/// Applies the option overrides to the named scenario. Throws
/// std::out_of_range for unknown scenario names.
ScenarioConfig resolve_scenario(const CliOptions& options);

}  // namespace aria::workload
