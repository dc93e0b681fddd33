#include "sweep/matrix.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace aria::sweep {

namespace {

/// Options that configure the aria_sim process rather than a simulation run
/// have no meaning inside a matrix row.
std::string reject_process_options(const workload::CliOptions& o) {
  if (o.show_help) return "--help";
  if (o.list_scenarios) return "--list";
  if (o.quiet) return "--quiet";
  if (!o.csv_dir.empty()) return "--csv";
  if (!o.trace_path.empty()) return "--trace";
  if (!o.trace_jsonl_path.empty()) return "--trace-jsonl";
  if (o.pdes_verify) return "--pdes-verify";
  return {};
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in{line};
  std::string t;
  while (in >> t) tokens.push_back(t);
  return tokens;
}

}  // namespace

void SweepMatrix::add(MatrixEntry entry) {
  if (entry.label.empty()) entry.label = entry.options.scenario;
  if (const std::string bad = reject_process_options(entry.options);
      !bad.empty()) {
    throw std::invalid_argument("matrix row '" + entry.label + "': " + bad +
                                " is not valid inside a sweep matrix");
  }
  for (const MatrixEntry& existing : entries_) {
    if (existing.label == entry.label) {
      throw std::invalid_argument(
          "duplicate matrix label '" + entry.label +
          "': rows repeating a scenario need distinct --label names");
    }
  }
  entries_.push_back(std::move(entry));
}

std::size_t SweepMatrix::run_count() const {
  std::size_t n = 0;
  for (const MatrixEntry& e : entries_) n += e.options.runs;
  return n;
}

std::vector<RunSpec> SweepMatrix::expand() const {
  if (entries_.empty()) {
    throw std::invalid_argument("empty sweep matrix: no rows to run");
  }
  std::vector<RunSpec> specs;
  specs.reserve(run_count());
  for (std::size_t row = 0; row < entries_.size(); ++row) {
    const MatrixEntry& e = entries_[row];
    workload::ScenarioConfig config;
    try {
      config = workload::resolve_scenario(e.options);
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("matrix row '" + e.label +
                                  "': unknown scenario '" +
                                  e.options.scenario + "'");
    }
    for (std::size_t rep = 0; rep < e.options.runs; ++rep) {
      specs.push_back(RunSpec{e.label, config, e.options.seed + rep, row, rep});
    }
  }
  return specs;
}

SweepMatrix SweepMatrix::parse(std::istream& in, const std::string& source) {
  SweepMatrix matrix;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;

    const std::string where =
        source + ":" + std::to_string(line_no) + ": ";
    MatrixEntry entry;
    // --label is a matrix-level flag; strip it before the aria_sim parser.
    std::vector<std::string> args;
    args.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i] == "--label") {
        if (i + 1 >= tokens.size()) {
          throw std::invalid_argument(where + "--label requires a name");
        }
        entry.label = tokens[++i];
      } else {
        args.push_back(tokens[i]);
      }
    }
    if (const auto error = workload::parse_cli(args, entry.options)) {
      throw std::invalid_argument(where + *error);
    }
    try {
      matrix.add(std::move(entry));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where + e.what());
    }
  }
  return matrix;
}

SweepMatrix SweepMatrix::parse_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::invalid_argument("cannot open matrix file: " + path);
  }
  return parse(in, path);
}

SweepMatrix SweepMatrix::preset(const std::string& name, std::size_t seeds,
                                std::uint64_t base_seed) {
  if (seeds == 0) seeds = 1;
  SweepMatrix matrix;
  auto row = [&](const std::string& scenario) {
    MatrixEntry e;
    e.options.scenario = scenario;
    e.options.runs = seeds;
    e.options.seed = base_seed;
    return e;
  };

  if (name == "table2") {
    for (const auto& s : workload::all_scenarios()) matrix.add(row(s.name));
    return matrix;
  }
  if (name == "table2-smoke") {
    // Every scenario at smoke size: 100 nodes, 150 jobs, doubled arrival
    // rate, 30 h horizon, expansion shrunk to 140 nodes joining every 30 s.
    for (const auto& s : workload::all_scenarios()) {
      MatrixEntry e = row(s.name);
      e.options.nodes = 100;
      e.options.jobs = 150;
      e.options.interval_s = s.submission_interval.to_seconds() / 2.0;
      e.options.horizon_min = 30.0 * 60.0;
      if (s.expansion) e.options.expand = {140, Duration::seconds(30)};
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "quick") {
    // One plain + one rescheduling + one high-load + one deadline scenario,
    // tiny: the cheapest matrix that still exercises distinct planes.
    for (const char* scenario : {"FCFS", "iMixed", "iHighLoad", "iDeadline"}) {
      MatrixEntry e = row(scenario);
      e.options.nodes = 40;
      e.options.jobs = 60;
      e.options.horizon_min = 20.0 * 60.0;
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "scale2k") {
    // Flat vs hierarchical ARiA head-to-head at 2 000 nodes: same scenario,
    // same workload, same seeds — only the discovery plane differs. The
    // merged report's traffic columns are the Fig.-10-style comparison
    // docs/hierarchy.md quotes.
    for (const bool hier : {false, true}) {
      MatrixEntry e = row("iMixed");
      e.label = hier ? "scale2k-hier" : "scale2k-flat";
      e.options.nodes = 2000;
      e.options.jobs = 400;
      e.options.horizon_min = 16.0 * 60.0;
      e.options.hierarchy = hier;
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "chaos-hier") {
    // Chaos certification for the hierarchy at 2 000 nodes (same grid and
    // workload as scale2k-hier): a fault-free control, then aggregator-
    // targeted churn, a region-aligned partition, digest starvation via
    // message-class bias, and the full cocktail. Every row runs the
    // invariant auditor; the acceptance bar is zero stranded jobs and zero
    // violations on every row (docs/audit.md, docs/faults.md).
    auto base = [&](const char* label) {
      MatrixEntry e = row("iMixed");
      e.label = label;
      e.options.nodes = 2000;
      e.options.jobs = 400;
      e.options.horizon_min = 16.0 * 60.0;
      e.options.hierarchy = true;
      e.options.audit = true;
      return e;
    };
    matrix.add(base("chaos-control"));
    {
      MatrixEntry e = base("chaos-target-churn");
      e.options.target_churn_ranks = 2;
      matrix.add(std::move(e));
    }
    {
      MatrixEntry e = base("chaos-region-partition");
      e.options.region_partitions.push_back({3, 120.0, 90.0});
      e.options.failsafe = true;  // severed initiators need recovery
      matrix.add(std::move(e));
    }
    {
      MatrixEntry e = base("chaos-digest-starve");
      e.options.loss = 0.02;
      e.options.msg_fault_bias.push_back({"REGION_DIGEST", 25.0, 1.0});
      e.options.msg_fault_bias.push_back({"REGION_LOAD", 25.0, 1.0});
      matrix.add(std::move(e));
    }
    {
      MatrixEntry e = base("chaos-cocktail");
      e.options.target_churn_ranks = 2;
      e.options.region_partitions.push_back({3, 120.0, 90.0});
      e.options.loss = 0.02;
      e.options.msg_fault_bias.push_back({"REGION_DIGEST", 25.0, 1.0});
      e.options.msg_fault_bias.push_back({"REGION_LOAD", 25.0, 1.0});
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "adversary") {
    // Adversarial certification at 2 000 nodes (same grid and workload as
    // chaos-hier): an honest control, each misbehavior role alone, the
    // four-role cocktail, and the cocktail with the defense plane armed.
    // Every row runs the invariant auditor; the acceptance bar is zero
    // stranded jobs and zero violations on every row, with the defended
    // cocktail recovering the honest profile (docs/adversary.md).
    auto base = [&](const char* label) {
      MatrixEntry e = row("iMixed");
      e.label = label;
      e.options.nodes = 2000;
      e.options.jobs = 400;
      e.options.horizon_min = 16.0 * 60.0;
      e.options.hierarchy = true;
      e.options.audit = true;
      return e;
    };
    matrix.add(base("adv-control"));
    using Role = sim::FaultConfig::Adversary::Role;
    const std::pair<const char*, Role> roles[] = {
        {"adv-underbid", Role::kUnderbid},
        {"adv-blackhole", Role::kBlackhole},
        {"adv-freeride", Role::kFreeride},
        {"adv-poison", Role::kPoison},
    };
    for (const auto& [label, role] : roles) {
      MatrixEntry e = base(label);
      e.options.adversaries = 0.1;
      e.options.adversary_roles = {role};
      matrix.add(std::move(e));
    }
    {
      MatrixEntry e = base("adv-cocktail");
      e.options.adversaries = 0.1;
      matrix.add(std::move(e));
    }
    {
      MatrixEntry e = base("adv-cocktail-defended");
      e.options.adversaries = 0.1;
      e.options.defenses = true;
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "pdes-shards") {
    // One 2 000-node hierarchical simulation at four shard counts
    // (docs/pdes.md): by the determinism contract every row must report
    // byte-identical metrics — the merged report doubles as an equivalence
    // check — while wall-clock varies with the shard count. Pair with
    // tools/bench_all.sh's pdes_shard_scaling bench for the timing curve.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
      MatrixEntry e = row("iMixed");
      e.label = "pdes-shards" + std::to_string(shards);
      e.options.nodes = 2000;
      e.options.jobs = 400;
      e.options.horizon_min = 16.0 * 60.0;
      e.options.hierarchy = true;
      e.options.shards = shards;
      matrix.add(std::move(e));
    }
    return matrix;
  }
  if (name == "scale10k-hier") {
    // 10 000 nodes under the fault cocktail — hierarchy only (flat flooding
    // at this scale is global-fanout-bound and takes hours of wall clock).
    // Churn implies the failsafe, so the zero-stranded-jobs guarantee is
    // what this preset certifies.
    MatrixEntry e = row("iMixed");
    e.label = "scale10k-hier";
    e.options.nodes = 10000;
    e.options.jobs = 1000;
    e.options.horizon_min = 24.0 * 60.0;
    e.options.hierarchy = true;
    e.options.churn = true;
    e.options.loss = 0.01;
    matrix.add(std::move(e));
    return matrix;
  }
  throw std::invalid_argument("unknown sweep preset: " + name);
}

const std::vector<std::string>& SweepMatrix::preset_names() {
  static const std::vector<std::string> names{
      "table2", "table2-smoke", "quick", "scale2k", "scale10k-hier",
      "chaos-hier", "adversary", "pdes-shards"};
  return names;
}

}  // namespace aria::sweep
