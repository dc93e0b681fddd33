// aria_bench: the repository benchmark (see README.md beside this file).
//
//   aria_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//   aria_bench --quick
//
// Untraced (--trace 0): runs about T seconds' worth of workload units, each
// at its own seed derived from S, timing each unit's set-up and wall time,
// and prints every end-to-end metric (host times as the median over units
// with quartiles). Traced (--trace 1): unit 0 twice plain, once instrumented
// with spans around calls into each layer's public functions, an observer
// probe and per-layer micro-benchmarks; prints the per-layer metrics. Both
// check every simulation run for correctness and end with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --quick runs the traced procedure on shrunk workloads as a correctness
// test (sliced == plain fingerprint, sharded == sequential, audit/trace
// inertness, determinism across repeats) and exits nonzero on any failure.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/uuid.hpp"
#include "core/messages.hpp"
#include "grid/job.hpp"
#include "overlay/flooding.hpp"
#include "overlay/region.hpp"
#include "sched/scheduler.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sweep/matrix.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"

namespace {

using namespace aria;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Keeps a timed loop's results observable so it is not optimized away.
/// Instrumented runs call it from several lanes at once, hence the atomic.
void consume(double x) {
  static std::atomic<double> sink{0.0};
  sink.store(x, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload: a sweep preset or an aria_sim flag row. One
/// *unit* is the preset (or row) run once at one base seed; a run of the
/// benchmark times units at distinct seeds derived from --seed, because the
/// seed-to-seed spread of the simulated work is far larger than the timing
/// noise of repeating one seed. `quick_*` is the shrunk variant --quick
/// checks.
struct Workload {
  std::string name{};
  std::string preset{};
  std::string flags{};
  /// Host seconds one unit takes on the reference machine (4 CPUs, see
  /// README.md); --seconds / unit_s sets how many units a run times.
  double unit_s{1.0};
  /// Simulations in flight for one unit (sweep::run_all pool size).
  std::size_t workers{1};
  /// Tracing plane on (every 16th wire message) with each run's trace
  /// exported to Chrome + JSONL in memory and reduced by critical_paths.
  bool traced{false};
  std::string quick_preset{};
  std::string quick_flags{};
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {.name = "table2-smoke",
       .preset = "table2-smoke",
       .unit_s = 0.95,
       .workers = 2,
       .quick_preset = "quick"},
      {.name = "hier4k-loss",
       .flags = "--scenario iMixed --nodes 4000 --jobs 100 --horizon 720 "
                "--hierarchy --loss 0.01",
       .unit_s = 1.8,
       .quick_flags = "--scenario iMixed --nodes 400 --jobs 60 --horizon 600 "
                      "--hierarchy --loss 0.01"},
      {.name = "hier1k-shards4",
       .flags = "--scenario iMixed --nodes 1000 --jobs 60 --horizon 480 "
                "--hierarchy --shards 4",
       .unit_s = 3.0,
       .quick_flags = "--scenario iMixed --nodes 300 --jobs 40 --horizon 480 "
                      "--hierarchy --shards 4"},
      {.name = "hier2k-defended-audit",
       .flags = "--scenario iMixed --nodes 2000 --jobs 400 --horizon 960 "
                "--hierarchy --audit --adversaries 0.1 "
                "--adversary-roles underbid,freeride,poison --defenses",
       .unit_s = 1.2,
       .traced = true,
       .quick_flags = "--scenario iMixed --nodes 300 --jobs 60 --horizon 600 "
                      "--hierarchy --audit --adversaries 0.1 "
                      "--adversary-roles underbid,freeride,poison --defenses"},
  };
  return all;
}

/// Known protocol failures (README.md, "Known failures"), which keep the
/// blackhole role and churn out of the timed workloads. Traced runs report
/// each repro's failure count (stranded jobs + lifecycle and audit
/// violations) so a fix shows up as 0.
struct KnownFailure {
  const char* metric;
  const char* flags;
};
constexpr KnownFailure kKnownFailures[] = {
    {"core.repro_blackhole_failures",
     "--scenario iMixed --nodes 2000 --jobs 400 --horizon 960 --hierarchy "
     "--audit --adversaries 0.1 --defenses --fault-seed 4194401556 --seed 7"},
    {"core.repro_churn_failures",
     "--scenario iMixed --nodes 2500 --jobs 100 --horizon 1440 --hierarchy "
     "--churn --seed 1"},
};

std::vector<std::string> split_words(const std::string& s) {
  std::istringstream in{s};
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

workload::CliOptions parse_flags(const std::string& flags) {
  workload::CliOptions o;
  if (const auto error = workload::parse_cli(split_words(flags), o)) {
    throw std::invalid_argument("bad workload flags \"" + flags +
                                "\": " + *error);
  }
  return o;
}

/// Base seed of unit `k` of a benchmark run at --seed `seed`: distinct
/// --seed values never share a unit.
std::uint64_t unit_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000 + k;
}

/// Matrix expansion: the concrete (config, seed) runs of one unit.
std::vector<sweep::RunSpec> expand(const Workload& w, std::uint64_t seed,
                                   bool quick) {
  const std::string& preset = quick ? w.quick_preset : w.preset;
  sweep::SweepMatrix matrix;
  if (!preset.empty()) {
    matrix = sweep::SweepMatrix::preset(preset, 1, seed);
  } else {
    workload::CliOptions o = parse_flags(quick ? w.quick_flags : w.flags);
    o.seed = seed;
    matrix.add({w.name, o});
  }
  std::vector<sweep::RunSpec> specs = matrix.expand();
  if (w.traced) {
    for (auto& s : specs) {
      s.config.trace.enabled = true;
      s.config.trace.message_sample_every = 16;
    }
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Tallies simulation runs and the checks they failed.
struct Verdict {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Checks that are not per-run (report bytes across repeats).
  std::uint64_t failed_checks{0};
  std::vector<std::string> notes;

  void fail_check(const std::string& why) {
    ++failed_checks;
    if (notes.size() < 32) notes.push_back(why);
  }
  bool correct() const { return failed == 0 && failed_checks == 0; }
};

/// Checks one run: no stranded jobs, no lifecycle or audit violations, and
/// (when given) a fingerprint equal to `expected_fp`. As in aria_sim, only
/// the robustness planes promise that every job terminates by the horizon;
/// a plain run may end with jobs still queued or executing.
void check_run(const workload::RunResult& r, const std::string& fp,
               const std::string* expected_fp, const std::string& label,
               Verdict& v) {
  ++v.attempted;
  const bool must_terminate =
      r.faults_enabled || r.overload_enabled || r.hierarchy_enabled;
  std::string why;
  if (must_terminate && r.stranded() > 0) {
    why = std::to_string(r.stranded()) + " stranded job(s)";
  } else if (!r.tracker.violations().empty()) {
    why = "lifecycle violation: " + r.tracker.violations().front();
  } else if (r.audit_violations > 0) {
    why = std::to_string(r.audit_violations) + " audit violation(s)";
  } else if (expected_fp != nullptr && fp != *expected_fp) {
    why = "fingerprint differs";
  }
  if (why.empty()) return;
  ++v.failed;
  if (v.notes.size() < 32) {
    v.notes.push_back(label + " seed " + std::to_string(r.seed) + ": " + why);
  }
}

// ---------------------------------------------------------------------------
// One unit: expansion through harvested and exported results
// ---------------------------------------------------------------------------

struct Unit {
  double wall_s{0.0};
  std::vector<sweep::RunSpec> specs;
  std::vector<workload::RunResult> results;
  std::string report_json;
};

Unit run_unit(const Workload& w, std::uint64_t seed, bool quick) {
  Unit u;
  const auto t0 = Clock::now();
  u.specs = expand(w, seed, quick);
  u.results = sweep::run_all(u.specs, {.workers = w.workers});
  if (w.traced) {
    for (const auto& r : u.results) {
      std::ostringstream chrome;
      std::ostringstream jsonl;
      trace::export_chrome(*r.trace, chrome);
      trace::export_jsonl(*r.trace, jsonl);
      const auto agg = trace::aggregate(trace::critical_paths(*r.trace));
      if (agg.jobs == 0 && !r.tracker.records().empty()) {
        throw std::logic_error("trace of " + r.scenario_name + " is empty");
      }
    }
  }
  std::ostringstream report;
  sweep::SweepReport::build(u.specs, u.results).write_json(report);
  u.report_json = report.str();
  u.wall_s = seconds_between(t0, Clock::now());
  return u;
}

/// The sequential twin of a sharded spec: by the PDES determinism contract
/// its fingerprint equals the sharded run's.
workload::ScenarioConfig sequential(workload::ScenarioConfig c) {
  c.shards = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

struct Summary {
  double median{0.0};
  double q1{0.0};
  double q3{0.0};
  std::size_t n{0};
};

/// Quartiles with the (n + 1) positions Python's statistics.quantiles uses.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&](double pos) {  // 1-based position, clamped to the data
    pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo >= v.size()) return v.back();
    return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
  };
  const double m = static_cast<double>(v.size() + 1);
  s.q1 = at(m / 4.0);
  s.median = at(m / 2.0);
  s.q3 = at(3.0 * m / 4.0);
  return s;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// A reported value: the median of `samples` when there are several, else
/// the single measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
  std::vector<double> samples{};
};

Metric repeated(std::string name, std::string unit, std::vector<double> v) {
  const double median = summarize(v).median;
  return {std::move(name), std::move(unit), median, std::move(v)};
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-32s %-8s %16s %16s %16s %4s\n", "metric", "unit", "median",
              "q1", "q3", "n");
  for (const Metric& m : ms) {
    if (!m.samples.empty()) {
      const Summary s = summarize(m.samples);
      std::printf("  %-32s %-8s %16.6g %16.6g %16.6g %4zu\n", m.name.c_str(),
                  m.unit.c_str(), s.median, s.q1, s.q3, s.n);
    } else {
      std::printf("  %-32s %-8s %16.6g %16s %16s %4s\n", m.name.c_str(),
                  m.unit.c_str(), m.value, "", "", "1");
    }
  }
}

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out{path};
  out << body;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Metric objects: the result line carries exactly {value, unit}; result
/// files (`detail`) add the quartiles and raw samples.
std::string metrics_json(const std::vector<Metric>& ms, bool detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out += (i > 0 ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           num(m.value) + ", \"unit\": " + quoted(m.unit);
    if (detail && !m.samples.empty()) {
      const Summary s = summarize(m.samples);
      out += ", \"q1\": " + num(s.q1) + ", \"q3\": " + num(s.q3) +
             ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        out += (k > 0 ? ", " : "") + num(m.samples[k]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "}";
}

/// Prints the metric table, writes `file` (the run's verdict and detailed
/// metrics, with `extra` appended as further top-level fields) and ends with
/// the one-line JSON result.
void report(const Workload& w, std::uint64_t seed, const Verdict& v,
            const std::vector<Metric>& ms, const std::filesystem::path& file,
            const std::string& extra) {
  print_table(w.name + " (seed " + std::to_string(seed) + ", runs " +
                  std::to_string(v.attempted) + ", runs_failed " +
                  std::to_string(v.failed) + ")",
              ms);
  std::string failures = "[";
  for (std::size_t i = 0; i < v.notes.size(); ++i) {
    std::printf("  FAIL %s\n", v.notes[i].c_str());
    failures += (i > 0 ? ", " : "") + quoted(v.notes[i]);
  }
  const std::string correct = v.correct() ? "true" : "false";
  write_file(file, "{\"workload\": " + quoted(w.name) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"runs\": " + std::to_string(v.attempted) +
                       ", \"runs_failed\": " + std::to_string(v.failed) +
                       ", \"correct\": " + correct +
                       ", \"failures\": " + failures + "]" +
                       ", \"metrics\": " + metrics_json(ms, true) + extra +
                       "}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct.c_str(), static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed),
              metrics_json(ms, false).c_str());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Untraced: end-to-end metrics
// ---------------------------------------------------------------------------

constexpr std::size_t kMinUnits = 3;
/// Set-up is timed this many times per unit and the fastest kept.
constexpr std::size_t kSetupTries = 3;

/// Expansion + GridSimulation construction + build() of every run of one
/// unit (destruction excluded).
double time_setup(const Workload& w, std::uint64_t base_seed) {
  double best = 0.0;
  for (std::size_t t = 0; t < kSetupTries; ++t) {
    std::vector<std::unique_ptr<workload::GridSimulation>> built;
    const auto t0 = Clock::now();
    for (const auto& spec : expand(w, base_seed, false)) {
      built.push_back(
          std::make_unique<workload::GridSimulation>(spec.config, spec.seed));
      built.back()->build();
    }
    const double s = seconds_between(t0, Clock::now());
    best = t == 0 ? s : std::min(best, s);
  }
  return best;
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                 const std::filesystem::path& out_dir) {
  Verdict verdict;
  const auto units = std::max(
      kMinUnits, static_cast<std::size_t>(std::lround(seconds / w.unit_s)));
  std::vector<double> walls;
  std::vector<double> setup;
  double completion_sum = 0.0;
  double traffic_sum = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  double runs = 0.0;
  // Determinism across repeats is checked by the traced mode and --quick;
  // here every unit has its own seed.
  for (std::size_t k = 0; k < units; ++k) {
    setup.push_back(time_setup(w, unit_seed(seed, k)));
    const Unit u = run_unit(w, unit_seed(seed, k), false);
    walls.push_back(u.wall_s);
    for (std::size_t i = 0; i < u.results.size(); ++i) {
      const auto& r = u.results[i];
      const std::string fp = workload::run_fingerprint(r);
      std::optional<std::string> oracle;  // sequential twin, untimed
      if (u.specs[i].config.shards > 1) {
        oracle = workload::run_fingerprint(workload::run_scenario(
            sequential(u.specs[i].config), u.specs[i].seed));
      }
      check_run(r, fp, oracle ? &*oracle : nullptr, u.specs[i].label,
                verdict);
      completion_sum += r.mean_completion_minutes();
      traffic_sum += r.traffic_mib_total();
      submitted += r.tracker.submitted_count();
      completed += r.completed();
      ++runs;
    }
  }
  const double completed_frac =
      submitted == 0 ? 0.0
                     : static_cast<double>(completed) /
                           static_cast<double>(submitted);

  std::vector<Metric> ms{
      repeated("wall_s", "s", std::move(walls)),
      repeated("setup_s", "s", std::move(setup)),
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"sim_completion_min", "min", completion_sum / runs},
      {"sim_traffic_mib", "MiB", traffic_sum / runs},
      {"jobs_completed_frac", "frac", completed_frac},
  };

  report(w, seed, verdict, ms, out_dir / ("results_" + w.name + ".json"),
         ", \"units\": " + std::to_string(units));
  return 0;
}

// ---------------------------------------------------------------------------
// Traced: spans recorded around calls into each layer
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s{0.0};  // since the traced run's origin
  double end_s{0.0};
  int parent{-1};       // index into the same lane's span list
  std::size_t lane{0};  // simulation run index (one lane per run)
};

/// In-memory span log for one lane; spans nest through an open stack.
class SpanLog {
 public:
  SpanLog(std::size_t lane, Clock::time_point origin)
      : lane_{lane}, origin_{origin} {}

  /// Runs `fn` inside a span named `name`; returns the span's seconds.
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now(), 0.0, parent, lane_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    fn();
    Span& s = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    s.end_s = now();
    return s.end_s - s.start_s;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  std::size_t lane_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One wire send as the replay micro needs it.
struct SendRecord {
  NodeId from;
  NodeId to;
  sim::MessageTypeId type;
  std::uint32_t bytes{0};
};

/// Bench-owned tap: records up to kMaxSends sends and forwards every send
/// to the tap it displaced (the auditor, which samples every message).
class RecordingTap final : public sim::MessageTap {
 public:
  static constexpr std::size_t kMaxSends = std::size_t{1} << 20;

  explicit RecordingTap(sim::MessageTap* next) : next_{next} {}

  void on_message(NodeId from, NodeId to, const sim::Message& message,
                  TimePoint sent, TimePoint deliver, bool faulted) override {
    if (sends.size() < kMaxSends) {
      sends.push_back({from, to, message.type_id(),
                       static_cast<std::uint32_t>(message.wire_size())});
    }
    if (next_ != nullptr) {
      next_->on_message(from, to, message, sent, deliver, faulted);
    }
  }

  std::vector<SendRecord> sends;

 private:
  sim::MessageTap* next_;
};

/// Everything one instrumented run measured.
struct RunProbe {
  std::vector<Span> spans;
  std::string fingerprint;
  workload::RunResult result;
  double run_s{0.0};  // construction through harvest
  double build_s{0.0};
  double harvest_s{0.0};
  double fingerprint_s{0.0};
  double slices_s{0.0};
  double quote_s{0.0};
  std::uint64_t quotes{0};
  std::uint64_t events{0};
  std::size_t peak_pending{0};
  std::size_t slab_slots{0};
  std::uint64_t compactions{0};
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped{0};
  std::uint64_t faulted{0};
  double queue_depth_sum{0.0};
  std::uint64_t queue_samples{0};
  std::uint64_t queue_depth_max{0};
  std::uint64_t accepts{0};
  std::uint64_t requests{0};
  // Micro-benchmark inputs, kept for lane 0 only.
  std::optional<overlay::Topology> topology;
  std::vector<SendRecord> sends;
  std::size_t region_count{0};
  std::size_t fanout{0};
};

/// Runs one spec in hourly Simulator::run_until slices, sampling the kernel
/// gauges and every live node's quote at each slice boundary, then harvests
/// with GridSimulation::run(). Sharded specs run as their sequential twin.
RunProbe instrumented_run(const sweep::RunSpec& spec, std::size_t lane,
                          Clock::time_point origin, bool keep_inputs) {
  RunProbe p;
  SpanLog log{lane, origin};
  const workload::ScenarioConfig cfg = sequential(spec.config);
  const bool tap_free = !cfg.trace.enabled || cfg.audit.enabled;
  p.run_s = log.time("bench.run", [&] {
    std::unique_ptr<workload::GridSimulation> g;
    p.build_s = log.time("workload.build", [&] {
      g = std::make_unique<workload::GridSimulation>(cfg, spec.seed);
      g->build();
    });
    // The tracer alone samples through the tap slot; the auditor takes
    // every message, so a forwarding tap leaves it unchanged.
    std::optional<RecordingTap> tap;
    if (tap_free && keep_inputs) {
      tap.emplace(g->network().tap());
      g->network().set_tap(&*tap, 1);
    }
    sim::Simulator& sim = g->simulator();
    Rng probe_rng{spec.seed ^ 0xB3C4ULL};
    grid::JobSpec probe;
    probe.id = JobId::generate(probe_rng);
    probe.ert = Duration::minutes(150);
    const TimePoint end = TimePoint::origin() + cfg.horizon;
    for (TimePoint t = TimePoint::origin();;) {
      t = std::min(t + Duration::hours(1), end);
      p.slices_s += log.time("sim.kernel.run_until",
                             [&] { p.events += sim.run_until(t); });
      p.peak_pending = std::max(p.peak_pending, sim.pending_events());
      double sink = 0.0;
      p.quote_s += log.time("sched.quote", [&] {
        probe.deadline = sim.now() + Duration::minutes(450);
        for (proto::AriaNode* n : g->all_nodes()) {
          if (n->crashed()) continue;
          sink += n->quote(probe);
          ++p.quotes;
          const std::uint64_t depth = n->queue_length();
          p.queue_depth_sum += static_cast<double>(depth);
          p.queue_depth_max = std::max(p.queue_depth_max, depth);
          ++p.queue_samples;
        }
      });
      consume(sink);
      if (t == end) break;
    }
    p.harvest_s = log.time("workload.harvest", [&] { p.result = g->run(); });
    p.slab_slots = sim.slab_slots();
    p.compactions = sim.compactions();
    const sim::Network& net = g->network();
    p.sent = net.sent_messages();
    p.delivered = net.delivered_messages();
    p.dropped = net.dropped_messages();
    p.faulted = net.faulted_messages();
    for (const proto::AriaNode* n : g->all_nodes()) {
      p.accepts += n->counters().accepts_sent;
      p.requests += n->counters().requests_initiated;
    }
    if (keep_inputs) {
      p.topology = g->topology();
      if (tap) p.sends = std::move(tap->sends);
      // build() resolved the auto-sized region count into the engine's copy.
      const auto& aria = g->config().aria;
      p.region_count = aria.hierarchy.enabled ? aria.hierarchy.region_count : 0;
      p.fanout = aria.request_fanout;
    }
    g->network().set_tap(nullptr);  // the tap dies before the simulation
  });
  p.fingerprint_s = log.time("workload.fingerprint", [&] {
    p.fingerprint = workload::run_fingerprint(p.result);
  });
  p.spans = log.spans();
  return p;
}

// --- micro-benchmarks over the workload's own shapes -----------------------

/// Schedule + fire pairs with the heap held at `pending` live events.
double dispatch_ns(std::size_t pending, std::uint64_t seed, std::size_t iters) {
  sim::Simulator s;
  Rng rng{seed};
  const Duration span = Duration::hours(1);
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    s.schedule_after(rng.uniform_duration(Duration::zero(), span), [] {});
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    s.schedule_after(rng.uniform_duration(Duration::zero(), span), [] {});
    s.step();
  }
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iters);
}

/// Stands in for a recorded message: same interned type, same wire size.
class ReplayMessage final : public sim::Message {
 public:
  ReplayMessage(sim::MessageTypeId type, std::size_t bytes)
      : type_{type}, bytes_{bytes} {}
  std::size_t wire_size() const override { return bytes_; }
  sim::MessageTypeId type_id() const override { return type_; }

 private:
  sim::MessageTypeId type_;
  std::size_t bytes_;
};

/// Replays recorded sends into a fresh Network (GeoLatencyModel, every node
/// attached): metering, per-sender RNG and delivery-key lookups, the event
/// round trip and handler dispatch.
double send_deliver_ns(const std::vector<SendRecord>& sends,
                       std::size_t node_count, std::uint64_t seed) {
  if (sends.empty()) return 0.0;
  sim::Simulator s;
  sim::Network net{s,
                   std::make_unique<sim::GeoLatencyModel>(
                       sim::GeoLatencyModel::Params{.seed = seed}),
                   Rng{seed}};
  std::uint64_t handled = 0;
  for (std::uint32_t i = 0; i < node_count; ++i) {
    net.attach(NodeId{i}, [&handled](sim::Envelope) { ++handled; });
  }
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < sends.size(); ++k) {
    const SendRecord& r = sends[k];
    net.send(r.from, r.to, std::make_unique<ReplayMessage>(r.type, r.bytes));
    if ((k & 1023) == 1023) s.run();
  }
  s.run();
  const double ns = seconds_between(t0, Clock::now()) * 1e9 /
                    static_cast<double>(sends.size());
  if (handled != net.delivered_messages()) {
    throw std::logic_error("replay lost deliveries");
  }
  return ns;
}

double flood_pick_ns(const overlay::Topology& topo, std::size_t fanout,
                     std::size_t regions, std::uint64_t seed,
                     std::size_t iters) {
  const std::vector<NodeId> nodes = topo.nodes();
  if (nodes.empty()) return 0.0;
  overlay::FloodRelay relay{topo, Rng{seed}};
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const NodeId n = nodes[i % nodes.size()];
    sink += regions > 1
                ? relay
                      .pick_targets_in_region(n, fanout, regions,
                                              overlay::region_of(n, regions))
                      .size()
                : relay.pick_targets(n, fanout).size();
  }
  const double ns =
      seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iters);
  consume(static_cast<double>(sink));
  return ns;
}

/// mark_seen in flood-sized batches (one fresh flood id per batch, forgotten
/// afterwards, as the protocol does once a flood can no longer be in flight).
double mark_seen_ns(const overlay::Topology& topo, std::size_t batch,
                    std::uint64_t seed, std::size_t iters) {
  const std::vector<NodeId> nodes = topo.nodes();
  if (nodes.empty()) return 0.0;
  batch = std::clamp<std::size_t>(batch, 1, 4096);
  Rng rng{seed};
  std::vector<NodeId> picks(iters);
  for (auto& n : picks) {
    n = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  }
  std::vector<Uuid> ids(iters / batch + 1);
  for (auto& id : ids) id = Uuid::generate(rng);
  overlay::FloodRelay relay{topo, Rng{seed}};
  std::size_t fresh = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const Uuid& id = ids[i / batch];
    fresh += relay.mark_seen(picks[i], id) ? 1 : 0;
    if (i % batch == batch - 1) relay.forget(id);
  }
  const double ns =
      seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iters);
  consume(static_cast<double>(fresh));
  return ns;
}

/// cost_of_adding on a depth-16 queue, averaged over every SchedulerKind.
double cost_depth16_ns(std::uint64_t seed, std::size_t iters) {
  using sched::SchedulerKind;
  Rng rng{seed};
  const TimePoint t0p = TimePoint::origin();
  double total_ns = 0.0;
  double sink = 0.0;
  const SchedulerKind kinds[] = {SchedulerKind::kFcfs, SchedulerKind::kSjf,
                                 SchedulerKind::kEdf, SchedulerKind::kPriority,
                                 SchedulerKind::kFairSjf};
  for (const SchedulerKind kind : kinds) {
    auto s = sched::make_scheduler(kind);
    for (int i = 0; i < 16; ++i) {
      grid::JobSpec j;
      j.id = JobId::generate(rng);
      j.ert = Duration::minutes(rng.uniform_int(60, 240));
      j.deadline = t0p + Duration::hours(10);
      s->enqueue({j, j.ert, t0p, 0});
    }
    grid::JobSpec job;
    job.id = JobId::generate(rng);
    job.ert = Duration::hours(2);
    job.deadline = t0p + Duration::hours(8);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      sink += s->cost_of_adding(job, Duration::minutes(90 + (i & 7)),
                                Duration::minutes(30), t0p);
    }
    total_ns +=
        seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(iters);
  }
  consume(sink);
  return total_ns / static_cast<double>(std::size(kinds));
}

// --- traced run --------------------------------------------------------------

std::string spans_chrome_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
       << ", \"ts\": " << num(s.start_s * 1e6)
       << ", \"dur\": " << num((s.end_s - s.start_s) * 1e6)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

struct LayerTime {
  double total_s{0.0};
  double self_s{0.0};
  std::uint64_t count{0};
};

/// Per span name: total time, and self time (duration minus the part of it
/// its direct children cover; parallel lanes overlap, so the union counts).
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_s, s.end_s});
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = spans[i].start_s;
    for (const auto& [lo, hi] : iv) {
      covered += std::max(0.0, hi - std::max(lo, reach));
      reach = std::max(reach, hi);
    }
    LayerTime& t = out[spans[i].name];
    const double d = spans[i].end_s - spans[i].start_s;
    t.total_s += d;
    t.self_s += d - covered;
    ++t.count;
  }
  return out;
}

struct TracedOutcome {
  Verdict verdict;
  std::vector<Metric> metrics;
  std::vector<Span> spans;
};

/// The traced procedure; `quick` shrinks workloads and micro iterations.
TracedOutcome traced(const Workload& w, std::uint64_t seed, bool quick) {
  TracedOutcome out;
  Verdict& v = out.verdict;
  const auto origin = Clock::now();
  const std::size_t micro_iters = quick ? (1u << 12) : (1u << 20);

  // 1. Unit 0 plain (the untraced operation), twice: determinism.
  const Unit plain = run_unit(w, unit_seed(seed, 0), quick);
  const Unit again = run_unit(w, unit_seed(seed, 0), quick);
  std::vector<std::string> plain_fp;
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    plain_fp.push_back(workload::run_fingerprint(plain.results[i]));
    check_run(plain.results[i], plain_fp[i], nullptr, plain.specs[i].label, v);
    check_run(again.results[i], workload::run_fingerprint(again.results[i]),
              &plain_fp[i], plain.specs[i].label + " (repeat)", v);
  }
  if (again.report_json != plain.report_json) {
    v.fail_check("merged sweep report differs between repeats");
  }

  // 2. Instrumented repeat on the same pool size; sliced (and, for sharded
  //    specs, sequential) runs must reproduce the plain fingerprints.
  const auto& specs = plain.specs;
  std::vector<RunProbe> probes(specs.size());
  SpanLog root{specs.size(), origin};
  const double traced_wall = root.time("bench.instrumented_repeat", [&] {
    parallel_for_index(specs.size(), w.workers, [&](std::size_t i) {
      probes[i] = instrumented_run(specs[i], i, origin, i == 0);
    });
  });
  for (std::size_t i = 0; i < probes.size(); ++i) {
    check_run(probes[i].result, probes[i].fingerprint, &plain_fp[i],
              specs[i].label + " (sliced)", v);
  }

  const double report_s = root.time("sweep.report", [&] {
    std::ostringstream os;
    sweep::SweepReport::build(plain.specs, plain.results).write_json(os);
  });

  // 3. Observer probe: first run with --audit --trace vs without; the
  //    fingerprints must match (the observers are inert).
  workload::ScenarioConfig with_obs = sequential(specs[0].config);
  with_obs.audit.enabled = true;
  with_obs.trace.enabled = true;
  with_obs.trace.message_sample_every = 16;
  workload::ScenarioConfig without_obs = sequential(specs[0].config);
  without_obs.audit.enabled = false;
  without_obs.trace.enabled = false;
  workload::RunResult observed;
  workload::RunResult bare;
  const double observed_s = root.time("audit.observed_run", [&] {
    observed = workload::run_scenario(with_obs, specs[0].seed);
  });
  const double bare_s = root.time("bench.bare_run", [&] {
    bare = workload::run_scenario(without_obs, specs[0].seed);
  });
  const std::string bare_fp = workload::run_fingerprint(bare);
  check_run(observed, workload::run_fingerprint(observed), &bare_fp,
            specs[0].label + " (audit+trace)", v);
  check_run(bare, bare_fp, nullptr, specs[0].label + " (bare)", v);
  std::ostringstream sink;
  const double chrome_s = root.time(
      "trace.export_chrome", [&] { trace::export_chrome(*observed.trace, sink); });
  const double jsonl_s = root.time(
      "trace.export_jsonl", [&] { trace::export_jsonl(*observed.trace, sink); });
  const double critical_s = root.time("trace.critical_paths", [&] {
    if (trace::aggregate(trace::critical_paths(*observed.trace)).jobs == 0) {
      v.fail_check("critical_paths found no jobs");
    }
  });

  // 4. Micro-benchmarks on lane 0's recorded shapes.
  const RunProbe& p0 = probes[0];
  std::size_t peak_pending = 0;
  for (const auto& p : probes) peak_pending = std::max(peak_pending, p.peak_pending);
  double dispatch = 0.0, send_deliver = 0.0, pick = 0.0, seen = 0.0;
  double path_s = 0.0, cost16 = 0.0;
  const std::uint64_t flood_msgs0 =
      p0.result.traffic.of(proto::kRequestType).messages;
  root.time("bench.micros", [&] {
    root.time("sim.kernel.dispatch", [&] {
      dispatch = dispatch_ns(peak_pending, seed, micro_iters);
    });
    root.time("sim.net.replay", [&] {
      send_deliver =
          send_deliver_ns(p0.sends, p0.result.final_node_count, seed);
    });
    root.time("overlay.flood_pick", [&] {
      pick = flood_pick_ns(*p0.topology, p0.fanout, p0.region_count, seed,
                           micro_iters / 4);
    });
    root.time("overlay.mark_seen", [&] {
      seen = mark_seen_ns(*p0.topology,
                          p0.requests == 0 ? 1 : flood_msgs0 / p0.requests,
                          seed, micro_iters / 4);
    });
    path_s = root.time("overlay.path_length", [&] {
      consume(p0.topology->average_path_length());
    });
    root.time("sched.cost_depth16",
              [&] { cost16 = cost_depth16_ns(seed, micro_iters / 16); });
  });

  // 5. The known-failure repros (full size only).
  std::vector<Metric> repros;
  for (const KnownFailure& k : kKnownFailures) {
    double failures = 0.0;
    if (!quick) {
      root.time("bench.known_failure", [&] {
        const workload::CliOptions o = parse_flags(k.flags);
        const workload::RunResult r =
            workload::run_scenario(workload::resolve_scenario(o), o.seed);
        failures = static_cast<double>(r.stranded() +
                                       r.tracker.violations().size() +
                                       r.audit_violations);
      });
    }
    repros.push_back({k.metric, "count", failures});
  }

  // Aggregates over the instrumented runs.
  double build_s = 0, harvest_s = 0, fp_s = 0, slices_s = 0, quote_s = 0;
  double run_sum = 0, longest = 0, depth_sum = 0;
  std::uint64_t events = 0, quotes = 0, compactions = 0, sent = 0;
  std::uint64_t delivered = 0, dropped = 0, faulted = 0, depth_samples = 0;
  std::uint64_t depth_max = 0, accepts = 0, requests = 0;
  std::size_t slab_slots = 0;
  for (const auto& p : probes) {
    build_s += p.build_s;
    harvest_s += p.harvest_s;
    fp_s += p.fingerprint_s;
    slices_s += p.slices_s;
    quote_s += p.quote_s;
    run_sum += p.run_s;
    longest = std::max(longest, p.run_s);
    events += p.events;
    quotes += p.quotes;
    compactions += p.compactions;
    slab_slots = std::max(slab_slots, p.slab_slots);
    sent += p.sent;
    delivered += p.delivered;
    dropped += p.dropped;
    faulted += p.faulted;
    depth_sum += p.queue_depth_sum;
    depth_samples += p.queue_samples;
    depth_max = std::max(depth_max, p.queue_depth_max);
    accepts += p.accepts;
    requests += p.requests;
  }
  std::uint64_t flood_msgs = 0, submitted = 0, reschedules = 0;
  std::uint64_t recoveries = 0, region_queries = 0, load_reports = 0;
  std::uint64_t digests = 0, windows = 0, phases = 0, shard_events = 0;
  std::uint64_t cross = 0, overflows = 0, violations = observed.audit_violations;
  double plain_loop_s = 0.0;
  for (const auto& r : plain.results) {
    flood_msgs += r.traffic.of(proto::kRequestType).messages +
                  r.traffic.of(proto::kInformType).messages;
    submitted += r.tracker.submitted_count();
    reschedules += r.tracker.total_reschedules();
    recoveries += r.tracker.total_recoveries();
    region_queries += r.region_queries;
    load_reports += r.load_reports;
    digests += r.digests_sent;
    windows += r.pdes_windows;
    phases += r.pdes_engine_phases;
    shard_events += r.pdes_shard_events;
    cross += r.pdes_messages_forwarded;
    overflows += r.pdes_channel_overflows;
    violations += r.audit_violations;
    plain_loop_s += r.wall_seconds;
  }
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };

  out.metrics = {
      {"workload.build_s", "s", build_s},
      {"workload.harvest_s", "s", harvest_s},
      {"workload.fingerprint_s", "s", fp_s},
      {"sim.kernel.events", "count", d(events)},
      {"sim.kernel.ns_per_event", "ns", ratio(slices_s * 1e9, d(events))},
      {"sim.kernel.peak_pending", "count", d(peak_pending)},
      {"sim.kernel.slab_slots", "count", d(slab_slots)},
      {"sim.kernel.compactions", "count", d(compactions)},
      {"sim.kernel.dispatch_ns", "ns", dispatch},
      {"sim.net.sent", "count", d(sent)},
      {"sim.net.delivered", "count", d(delivered)},
      {"sim.net.dropped", "count", d(dropped)},
      {"sim.net.faulted", "count", d(faulted)},
      {"sim.net.send_deliver_ns", "ns", send_deliver},
      {"overlay.flood_msgs", "count", d(flood_msgs)},
      {"overlay.flood_pick_ns", "ns", pick},
      {"overlay.mark_seen_ns", "ns", seen},
      {"overlay.path_length_s", "s", path_s},
      {"sched.quote_ns", "ns", ratio(quote_s * 1e9, d(quotes))},
      {"sched.queue_depth_mean", "jobs", ratio(depth_sum, d(depth_samples))},
      {"sched.queue_depth_max", "jobs", d(depth_max)},
      {"sched.accepts_per_request", "ratio", ratio(d(accepts), d(requests))},
      {"sched.cost_depth16_ns", "ns", cost16},
      {"core.reschedules_per_job", "ratio", ratio(d(reschedules), d(submitted))},
      {"core.failsafe_recoveries", "count", d(recoveries)},
      {"core.region_queries", "count", d(region_queries)},
      {"core.load_reports", "count", d(load_reports)},
      {"core.digests_sent", "count", d(digests)},
      {"pdes.windows", "count", d(windows)},
      {"pdes.events_per_window", "ratio", ratio(d(shard_events), d(windows))},
      {"pdes.engine_phases", "count", d(phases)},
      {"pdes.cross_shard_msgs", "count", d(cross)},
      {"pdes.channel_overflows", "count", d(overflows)},
      {"pdes.seq_wall_s", "s", slices_s},
      {"pdes.speedup_vs_seq", "x", ratio(slices_s, plain_loop_s)},
      {"audit.violations", "count", d(violations)},
      {"audit.observer_overhead_s", "s", observed_s - bare_s},
      {"trace.records", "count", d(observed.trace->total_recorded())},
      {"trace.export_chrome_s", "s", chrome_s},
      {"trace.export_jsonl_s", "s", jsonl_s},
      {"trace.critical_paths_s", "s", critical_s},
      {"sweep.pool_busy_frac", "frac",
       ratio(run_sum, d(w.workers) * traced_wall)},
      {"sweep.longest_run_s", "s", longest},
      {"sweep.report_s", "s", report_s},
      // Sharded specs run instrumented as their sequential twin, so there
      // this also carries the PDES slowdown (negative while PDES loses).
      {"bench.trace_overhead_s", "s",
       traced_wall - (plain.wall_s + again.wall_s) / 2.0},
  };
  out.metrics.insert(out.metrics.end(), repros.begin(), repros.end());

  // Root spans first; each lane's indices are rebased onto the merged list
  // and its top span hangs under the instrumented repeat (root span 0).
  out.spans = root.spans();
  for (const auto& p : probes) {
    const int base = static_cast<int>(out.spans.size());
    for (Span s : p.spans) {
      s.parent = s.parent < 0 ? 0 : s.parent + base;
      out.spans.push_back(std::move(s));
    }
  }
  return out;
}

int run_traced(const Workload& w, std::uint64_t seed,
               const std::filesystem::path& out_dir) {
  const TracedOutcome t = traced(w, seed, false);
  std::string spans = ", \"spans\": {";
  for (const auto& [name, lt] : layer_times(t.spans)) {
    spans += (spans.back() == '{' ? "" : ", ") + quoted(name) +
             ": {\"count\": " + std::to_string(lt.count) +
             ", \"total_s\": " + num(lt.total_s) +
             ", \"self_s\": " + num(lt.self_s) + "}";
  }
  write_file(out_dir / ("trace_" + w.name + ".json"),
             spans_chrome_json(t.spans));
  report(w, seed, t.verdict, t.metrics,
         out_dir / ("layers_" + w.name + ".json"), spans + "}");
  return 0;
}

int run_quick() {
  bool ok = true;
  for (const Workload& w : workloads()) {
    const auto t0 = Clock::now();
    const TracedOutcome t = traced(w, 1, true);
    std::printf("%-24s %s  (%llu runs, %.2f s)\n", w.name.c_str(),
                t.verdict.correct() ? "ok" : "FAILED",
                static_cast<unsigned long long>(t.verdict.attempted),
                seconds_between(t0, Clock::now()));
    for (const auto& n : t.verdict.notes) std::printf("  FAIL %s\n", n.c_str());
    ok = ok && t.verdict.correct();
  }
  return ok ? 0 : 1;
}

int usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: aria_bench --workload NAME [--seed S] "
               "[--seconds T] [--trace 0|1]\n"
               "       aria_bench --quick\nworkloads:",
               error.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kError);
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace_on = false;
  bool quick = false;
  const std::filesystem::path out_dir = "bench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--quick") {
        quick = true;
      } else if (a == "--workload" && has_value) {
        name = argv[++i];
      } else if (a == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        seconds = std::stod(argv[++i]);
        if (!(seconds >= 0.0 && seconds <= 86400.0)) {
          return usage("--seconds must be in [0, 86400]");
        }
      } else if (a == "--trace" && has_value) {
        trace_on = std::stoi(argv[++i]) != 0;
      } else {
        return usage("unknown or incomplete argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a);
    }
  }
  try {
    if (quick) return run_quick();
    const auto it = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const Workload& w) { return w.name == name; });
    if (it == workloads().end()) return usage("unknown workload \"" + name + "\"");
    std::filesystem::create_directories(out_dir);
    return trace_on ? run_traced(*it, seed, out_dir)
                    : run_untraced(*it, seed, seconds, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
