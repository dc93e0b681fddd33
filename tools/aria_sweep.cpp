// aria_sweep: multi-worker scenario sweep runner with deterministic merged
// reports (docs/sweep.md).
//
//   aria_sweep --preset table2-smoke --seeds 2 --workers 8 --out out/
//   aria_sweep --matrix my_matrix.txt --workers 4 --out out/
//   aria_sweep --list-presets
//
// Report files (summary.json / summary.csv / runs.csv) are byte-identical
// for any --workers value; wall-clock is printed to stderr only, so stdout
// and the report directory stay deterministic.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "metrics/report.hpp"
#include "sweep/matrix.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/cli.hpp"

namespace {

struct SweepCli {
  std::string preset;
  std::string matrix_file;
  std::size_t seeds{1};
  std::uint64_t seed{1};
  std::size_t workers{0};  // 0 = all hardware threads
  std::string out_dir;
  bool list_presets{false};
  bool quiet{false};
  bool show_help{false};
};

std::string usage() {
  std::string presets;
  for (const auto& name : aria::sweep::SweepMatrix::preset_names()) {
    presets += (presets.empty() ? "" : ", ") + name;
  }
  return R"(aria_sweep: parallel scenario sweeps with deterministic merged reports

usage: aria_sweep (--preset NAME | --matrix FILE) [options]

  --preset NAME       built-in matrix (presets listed below)
  --matrix FILE       matrix file: one row per line of aria_sim flags
                      (plus --label NAME); '#' comments
  --seeds N           seeds per preset row (default: 1; matrix rows use
                      their own --runs)
  --seed S            base seed for presets (default: 1)
  --workers N         worker threads (default: one per hardware thread)
  --out DIR           write summary.json, summary.csv, runs.csv into DIR
  --list-presets      print the built-in preset names
  --quiet             suppress the stdout summary table
  --help              this text

The merged report bytes are identical for any --workers value; see
docs/sweep.md for the determinism contract and the matrix file format.

presets: )" + presets + "\n";
}

std::optional<std::string> parse(const std::vector<std::string>& args,
                                 SweepCli& out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (a == "--help" || a == "-h") {
      out.show_help = true;
    } else if (a == "--list-presets") {
      out.list_presets = true;
    } else if (a == "--quiet") {
      out.quiet = true;
    } else if (a == "--preset") {
      const auto v = next();
      if (!v) return "--preset requires a name";
      out.preset = *v;
    } else if (a == "--matrix") {
      const auto v = next();
      if (!v) return "--matrix requires a file path";
      out.matrix_file = *v;
    } else if (a == "--out") {
      const auto v = next();
      if (!v) return "--out requires a directory";
      out.out_dir = *v;
    } else if (a == "--seeds") {
      const auto v = next();
      if (!v || !aria::workload::parse_uint(*v, out.seeds) || out.seeds == 0) {
        return "--seeds requires a positive integer";
      }
    } else if (a == "--seed") {
      const auto v = next();
      if (!v || !aria::workload::parse_uint(*v, out.seed)) {
        return "--seed requires a non-negative integer";
      }
    } else if (a == "--workers") {
      const auto v = next();
      if (!v || !aria::workload::parse_uint(*v, out.workers) ||
          out.workers == 0) {
        return "--workers requires a positive integer";
      }
    } else {
      return "unknown option: " + a;
    }
  }
  if (!out.show_help && !out.list_presets) {
    if (out.preset.empty() == out.matrix_file.empty()) {
      return "exactly one of --preset or --matrix is required";
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aria;

  SweepCli cli;
  if (const auto error = parse({argv + 1, argv + argc}, cli)) {
    std::cerr << "error: " << *error << "\n\n" << usage();
    return 2;
  }
  if (cli.show_help) {
    std::cout << usage();
    return 0;
  }
  if (cli.list_presets) {
    for (const auto& name : sweep::SweepMatrix::preset_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  sweep::SweepMatrix matrix;
  std::vector<sweep::RunSpec> specs;
  try {
    matrix = cli.preset.empty()
                 ? sweep::SweepMatrix::parse_file(cli.matrix_file)
                 : sweep::SweepMatrix::preset(cli.preset, cli.seeds, cli.seed);
    specs = matrix.expand();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const std::size_t workers =
      cli.workers == 0 ? default_worker_count() : cli.workers;
  std::cerr << "sweep: " << matrix.entries().size() << " row(s), "
            << specs.size() << " run(s), " << workers << " worker(s)\n";

  sweep::RunnerOptions options;
  options.workers = workers;
  if (!cli.quiet) {
    options.progress = [](std::size_t done, std::size_t total,
                          const sweep::RunSpec& spec) {
      std::cerr << "  [" << done << "/" << total << "] " << spec.label
                << " seed " << spec.seed << "\n";
    };
  }

  const auto start = std::chrono::steady_clock::now();
  const auto results = sweep::run_all(specs, options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto report = sweep::SweepReport::build(specs, results);

  if (!cli.quiet) {
    metrics::Table table{{"label", "runs", "completed", "completion[min]",
                          "resched", "missed dl", "traffic MiB/run",
                          "stranded"}};
    for (const auto& row : report.rows) {
      table.add_row({row.label, std::to_string(row.runs),
                     metrics::Table::num(row.completed.mean(), 0),
                     metrics::Table::num(row.completion_minutes.mean()),
                     metrics::Table::num(row.reschedules.mean(), 0),
                     metrics::Table::num(row.missed_deadlines.mean(), 0),
                     metrics::Table::num(row.traffic_mib.mean(), 2),
                     std::to_string(row.stranded)});
    }
    table.print(std::cout);
    std::cout << "totals: " << report.total_runs << " run(s), stranded "
              << report.total_stranded << ", lifecycle violations "
              << report.total_violations << ", audit violations "
              << report.total_audit_violations << ", traffic "
              << metrics::Table::num(
                     static_cast<double>(report.traffic.total().bytes) /
                         (1024.0 * 1024.0),
                     1)
              << " MiB\n";
  }
  std::cerr << "sweep wall: " << metrics::Table::num(wall_s, 2) << " s ("
            << specs.size() << " runs, " << workers << " workers)\n";

  if (!cli.out_dir.empty()) {
    std::filesystem::create_directories(cli.out_dir);
    const auto base = std::filesystem::path{cli.out_dir};
    const auto write = [&](const char* name, auto&& writer) {
      std::ofstream out{base / name, std::ios::binary};
      if (!out) {
        std::cerr << "error: cannot write " << (base / name).string() << "\n";
        std::exit(2);
      }
      writer(out);
    };
    write("summary.json",
          [&](std::ostream& o) { report.write_json(o); });
    write("summary.csv",
          [&](std::ostream& o) { report.write_summary_csv(o); });
    write("runs.csv", [&](std::ostream& o) { report.write_runs_csv(o); });
    std::cerr << "report written to " << cli.out_dir
              << " (summary.json, summary.csv, runs.csv)\n";
  }

  return report.clean() ? 0 : 1;
}
