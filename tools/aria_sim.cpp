// aria_sim: command-line runner for the paper's evaluation scenarios.
//
//   aria_sim --list
//   aria_sim --scenario iMixed --runs 3 --seed 7
//   aria_sim --scenario HighLoad --resched --nodes 200 --jobs 400 --csv out/

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "metrics/report.hpp"
#include "sweep/runner.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "workload/aggregate.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"

int main(int argc, char** argv) {
  using namespace aria;

  std::vector<std::string> args{argv + 1, argv + argc};
  workload::CliOptions options;
  if (const auto error = workload::parse_cli(args, options)) {
    std::cerr << "error: " << *error << "\n\n" << workload::cli_usage();
    return 2;
  }
  if (options.show_help) {
    std::cout << workload::cli_usage();
    return 0;
  }
  if (options.list_scenarios) {
    metrics::Table table{{"name", "description"}};
    for (const auto& s : workload::all_scenarios()) {
      table.add_row({s.name, s.description});
    }
    table.print(std::cout);
    return 0;
  }

  workload::ScenarioConfig cfg;
  try {
    cfg = workload::resolve_scenario(options);
  } catch (const std::out_of_range& e) {
    std::cerr << "error: " << e.what() << " (use --list)\n";
    return 2;
  }

  // Determinism-contract mode (docs/pdes.md): run every seed twice —
  // sequential oracle, then sharded — and diff the full results. Exits
  // nonzero naming the first divergent event on any mismatch.
  if (options.pdes_verify) {
    if (cfg.shards < 2) {
      std::cerr << "error: --pdes-verify needs --shards N with N >= 2\n";
      return 2;
    }
    int exit_code = 0;
    for (std::size_t i = 0; i < options.runs; ++i) {
      const std::uint64_t seed = options.seed + i;
      workload::PdesEquivalence eq;
      try {
        eq = workload::verify_sharded_equivalence(cfg, cfg.shards, seed);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
      std::cout << "pdes-verify " << cfg.name << " seed " << seed
                << " shards " << cfg.shards << ": "
                << (eq.identical ? "IDENTICAL" : "DIVERGED") << "\n";
      if (!eq.identical) {
        std::cout << "  " << eq.detail << "\n";
        exit_code = 1;
      } else if (!options.quiet) {
        std::cout << "  " << eq.detail << "\n";
      }
    }
    return exit_code;
  }

  if (!options.quiet) {
    std::cout << "scenario " << cfg.name << ": " << cfg.node_count
              << " nodes, " << cfg.job_count << " jobs, rescheduling "
              << (cfg.aria.dynamic_rescheduling ? "on" : "off") << ", "
              << options.runs << " run(s), base seed " << options.seed
              << "\n";
  }

  // One spec per seed, on the sweep runner's pool; results come back in
  // seed order whatever the worker count.
  std::vector<sweep::RunSpec> specs;
  for (std::size_t i = 0; i < options.runs; ++i) {
    specs.push_back(
        {.label = cfg.name, .config = cfg, .seed = options.seed + i});
  }
  std::vector<workload::RunResult> results;
  try {
    results = sweep::run_all(specs);
  } catch (const std::invalid_argument& e) {
    // Sharded execution rejects planes the executor cannot host.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto summary = workload::summarize(cfg, results);

  metrics::Table table{{"metric", "mean", "stddev", "min", "max"}};
  auto row = [&](const std::string& name, const RunningStats& s,
                 int precision = 1) {
    table.add_row({name, metrics::Table::num(s.mean(), precision),
                   metrics::Table::num(s.stddev(), precision),
                   metrics::Table::num(s.min(), precision),
                   metrics::Table::num(s.max(), precision)});
  };
  row("completed jobs", summary.completed_jobs, 0);
  row("completion [min]", summary.completion_minutes);
  row("waiting [min]", summary.waiting_minutes);
  row("execution [min]", summary.execution_minutes);
  row("reschedules", summary.reschedules, 0);
  if (cfg.deadline_scenario()) {
    row("missed deadlines", summary.missed_deadlines);
    row("met slack [min]", summary.met_slack_minutes);
    row("missed time [min]", summary.missed_time_minutes);
  }
  row("overlay avg path length", summary.overlay_avg_path_length, 2);
  row("overlay avg degree", summary.overlay_avg_degree, 2);
  RunningStats gini;
  for (const auto& r : results) gini.add(r.busy_time_balance().gini);
  row("busy-time Gini", gini, 3);
  table.print(std::cout);

  std::cout << "\ntraffic (mean per run):\n";
  for (const auto& [type, entry] : summary.traffic.by_type()) {
    std::cout << "  " << type << ": "
              << metrics::Table::num(summary.traffic_mib_mean(type), 2)
              << " MiB\n";
  }

  // Jobs with no terminal state feed the exit code whenever a robustness
  // plane ran: under faults, overload, *and* hierarchical discovery the
  // protocol promises every submitted job still terminates.
  std::size_t stranded = 0;
  if (cfg.faults.enabled || cfg.aria.overload.enabled ||
      cfg.aria.hierarchy.enabled) {
    for (const auto& r : results) stranded += r.stranded();
  }

  // Plane blocks (docs/README.md "Plane blocks"): one per plane that ran,
  // gated on the plane's switch so plane-off output stays byte-identical to
  // historical runs. Each lists the plane's table counters
  // (docs/counters.md) totalled over the runs, then its derived extras.
  using workload::RunResult;
  counters::Values totals{};
  std::uint64_t recoveries = 0, abandoned = 0, rejected = 0;
  double probe_mib = 0.0, region_mib = 0.0, max_heal = 0.0;
  bool end_connected = true;
  for (const auto& r : results) {
    counters::fold(totals, workload::counter_values(r));
    recoveries += r.tracker.total_recoveries();
    abandoned += r.tracker.abandoned_count();
    rejected += r.tracker.rejected_incomplete_count();
    probe_mib += r.probe_traffic_mib();
    region_mib += r.region_traffic_mib();
    max_heal = std::max(max_heal, r.max_heal_minutes());
    end_connected = end_connected && r.live_subgraph_connected_at_end;
  }
  const auto add = [&]<class T>(T RunResult::*field) {
    T total{};
    for (const auto& r : results) total += r.*field;
    return total;
  };
  const auto str = [](auto v) { return std::to_string(v); };
  using Extras = std::vector<std::pair<std::string, std::string>>;
  const auto block = [&](std::string_view plane, const std::string& note,
                         const Extras& extras) {
    std::cout << "\n" << plane << " (totals over " << results.size()
              << " run(s)" << note << "):\n";
    for (std::size_t i = 0; i < counters::kCount; ++i) {
      if (counters::kTable[i].plane != plane) continue;
      std::cout << "  " << counters::kTable[i].name << ": " << totals[i]
                << "\n";
    }
    for (const auto& [key, value] : extras) {
      std::cout << "  " << key << ": " << value << "\n";
    }
    std::cout << "  jobs_stranded: " << stranded << "\n";
  };
  const auto sum = [&](auto field) { return str(add(field)); };
  if (cfg.faults.enabled) {
    block("fault", "",
          {{"failsafe_recoveries", str(recoveries)},
           {"jobs_abandoned", str(abandoned)}});
  }
  if (cfg.aria.healing.enabled) {
    block("healing", "",
          {{"probe_traffic_mib", metrics::Table::num(probe_mib, 2)},
           {"max_heal_minutes", metrics::Table::num(max_heal, 1)},
           {"connected_at_end", end_connected ? "yes" : "NO"}});
  }
  if (cfg.aria.overload.enabled) {
    block("overload", "", {{"rejected_incomplete", str(rejected)}});
  }
  if (cfg.aria.hierarchy.enabled && !results.empty()) {
    block("hierarchy", ", " + str(results.front().region_count) + " regions",
          {{"region_traffic_mib", metrics::Table::num(region_mib, 2)}});
  }
  if (!results.empty() && results.front().adversaries_enabled) {
    block("adversary",
          ", " + sum(&RunResult::adversary_count) + " designated", {});
  }
  if (cfg.aria.defense.enabled) block("defense", "", {});
  // Sharded-execution telemetry (docs/pdes.md): outside the counter table
  // because it legitimately differs between execution modes.
  if (cfg.shards > 1) {
    const auto shard_events = add(&RunResult::pdes_shard_events);
    const auto events = shard_events + add(&RunResult::pdes_engine_events);
    const double parallel =
        events == 0 ? 0.0
                    : 100.0 * static_cast<double>(shard_events) /
                          static_cast<double>(events);
    block("pdes", ", " + str(cfg.shards) + " shards",
          {{"pdes_windows", sum(&RunResult::pdes_windows)},
           {"pdes_inline_windows", sum(&RunResult::pdes_inline_windows)},
           {"pdes_engine_phases", sum(&RunResult::pdes_engine_phases)},
           {"pdes_shard_events", str(shard_events)},
           {"pdes_engine_events", sum(&RunResult::pdes_engine_events)},
           {"parallelizable_pct", metrics::Table::num(parallel, 1)},
           {"pdes_messages_forwarded",
            sum(&RunResult::pdes_messages_forwarded)},
           {"pdes_channel_overflows",
            sum(&RunResult::pdes_channel_overflows)}});
  }

  // Printed only when the tracing plane ran (same byte-identity contract):
  // the per-job critical-path summary from the first run's trace.
  if (cfg.trace.enabled && !results.empty() && results.front().trace) {
    const auto& buf = *results.front().trace;
    const auto paths = trace::critical_paths(buf);
    const auto agg = trace::aggregate(paths);
    std::cout << "\ntrace critical path (first run, " << agg.jobs
              << " traced jobs: " << agg.completed << " completed, "
              << agg.unschedulable << " unschedulable, " << agg.abandoned
              << " abandoned, " << agg.open << " open at horizon):\n";
    metrics::Table cp{{"metric", "mean", "stddev", "min", "max", "jobs"}};
    auto cp_row = [&](const std::string& name, const RunningStats& s,
                      int precision) {
      cp.add_row({name, metrics::Table::num(s.mean(), precision),
                  metrics::Table::num(s.stddev(), precision),
                  metrics::Table::num(s.min(), precision),
                  metrics::Table::num(s.max(), precision),
                  std::to_string(s.count())});
    };
    cp_row("time to first bid [s]", agg.time_to_first_bid_s, 3);
    cp_row("bids per job", agg.bids, 1);
    cp_row("delegation latency [s]", agg.delegation_latency_s, 3);
    cp_row("queue wait [s]", agg.queue_wait_s, 1);
    cp_row("reschedules", agg.reschedules, 2);
    cp_row("makespan [s]", agg.makespan_s, 1);
    cp.print(std::cout);
    std::cout << "  records: " << buf.total_recorded() << " collected, "
              << buf.dropped_job_events() << " job + "
              << buf.dropped_message_events()
              << " message records dropped at ring capacity\n";
  }

  // Printed only when the auditor ran (same byte-identity contract).
  std::uint64_t audit_violations = 0;
  if (cfg.audit.enabled) {
    std::map<std::string, std::uint64_t> by_kind;
    for (const auto& r : results) {
      audit_violations += r.audit_violations;
      for (const auto& [kind, n] : r.audit_by_kind) by_kind[kind] += n;
    }
    std::cout << "\ninvariant audit (totals over " << results.size()
              << " run(s)): " << audit_violations << " violation(s)\n";
    for (const auto& [kind, n] : by_kind) {
      std::cout << "  " << kind << ": " << n << "\n";
    }
    for (const auto& r : results) {
      for (const auto& v : r.violations) {
        std::cout << "  [" << v.kind << "] " << v.detail << "\n";
      }
    }
  }

  bool violations = false;
  for (const auto& r : results) {
    if (!r.tracker.violations().empty()) violations = true;
  }
  std::cout << "lifecycle violations: " << (violations ? "YES" : "none")
            << "\n";

  if (!options.csv_dir.empty()) {
    std::filesystem::create_directories(options.csv_dir);
    const auto base = std::filesystem::path{options.csv_dir};
    {
      std::ofstream out{base / (cfg.name + "_idle.csv")};
      metrics::write_series_csv(out, {summary.idle_series});
    }
    {
      std::ofstream out{base / (cfg.name + "_completed.csv")};
      metrics::write_series_csv(out, {summary.completed_curve});
    }
    {
      std::ofstream out{base / (cfg.name + "_nodes.csv")};
      metrics::write_series_csv(out, {summary.node_count_series});
    }
    if (cfg.aria.overload.enabled) {
      std::ofstream out{base / (cfg.name + "_overload.csv")};
      metrics::write_series_csv(out,
                                {summary.queue_depth_series,
                                 summary.shed_series, summary.reject_series});
    }
    std::cout << "CSV series written to " << options.csv_dir << "\n";
  }

  if (options.tracing() && !results.empty() && results.front().trace) {
    const auto& buf = *results.front().trace;
    if (!options.trace_path.empty()) {
      std::ofstream out{options.trace_path};
      if (!out) {
        std::cerr << "error: cannot write " << options.trace_path << "\n";
        return 2;
      }
      trace::export_chrome(buf, out);
      std::cout << "Chrome trace written to " << options.trace_path
                << " (load at ui.perfetto.dev)\n";
    }
    if (!options.trace_jsonl_path.empty()) {
      std::ofstream out{options.trace_jsonl_path};
      if (!out) {
        std::cerr << "error: cannot write " << options.trace_jsonl_path << "\n";
        return 2;
      }
      trace::export_jsonl(buf, out);
      std::cout << "JSONL trace written to " << options.trace_jsonl_path
                << "\n";
    }
  }
  return (violations || stranded != 0 || audit_violations != 0) ? 1 : 0;
}
