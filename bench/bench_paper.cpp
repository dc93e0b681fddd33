// The paper's evaluation in one program: Table II, Figs. 1–10, and the four
// ablations the repository adds (an omniscient centralized scheduler, the
// flood parameters, overlay families, gossip dissemination).
//
// The evaluation is one run list: the 26 Table-II scenarios, the six
// non-paper flood-parameter variants and the two non-BLATANT overlay
// families of iMixed, each × ARIA_BENCH_RUNS seeds, plus the centralized and
// gossip baselines on iMixed's seeds. Every run is simulated exactly once,
// on one pool with a worker per hardware thread (the gossip seeds first:
// they take longest). Each table and figure is then a view over those runs;
// an ablation row that is the paper's own configuration reads the iMixed
// runs the figures use. Every section prints its qualitative claims as
// [shape OK]/[shape MISS] verdicts, and the program exits 1 if any missed.
// EXPERIMENTS.md carries this program's default output verbatim
// (tools/check_experiments.sh keeps it in sync).
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string_view>
#include <utility>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "core/centralized.hpp"
#include "core/gossip.hpp"
#include "core/tracker.hpp"
#include "grid/profile_gen.hpp"
#include "overlay/bootstrap.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"
#include "workload/engine.hpp"
#include "workload/jobgen.hpp"

namespace {

using namespace aria;
using namespace aria::bench;

/// One simulated ARiA configuration: the summary the tables read, plus the
/// config and the per-seed runs it was computed from.
struct Scenario : workload::ScenarioSummary {
  std::string label;  // the Table-II name, or an ablation row's label
  workload::ScenarioConfig config;
  std::vector<workload::RunResult> runs;

  /// REQUEST retry floods per run.
  double retries() const {
    double sum = 0.0;
    for (const auto& r : runs) {
      for (const auto& [id, rec] : r.tracker.records()) {
        sum += static_cast<double>(rec.retries);
      }
    }
    return sum / static_cast<double>(runs.size());
  }
};

/// One seed of a non-ARiA baseline on iMixed's grid and workload.
struct BaselineRun {
  double completion_minutes{0.0};  // over the completed jobs
  double waiting_minutes{0.0};
  std::size_t completed{0};
  std::uint64_t moves{0};     // centralized: global rebalance moves
  double traffic_mib{0.0};    // gossip: everything sent
  double gossip_mib{0.0};     // gossip: the GOSSIP background share
};

/// Per-run mean of one baseline field, summed in seed order.
template <class T>
double mean(const std::vector<BaselineRun>& runs, T BaselineRun::*field) {
  double sum = 0.0;
  for (const auto& r : runs) sum += static_cast<double>(r.*field);
  return sum / static_cast<double>(runs.size());
}

/// Completed jobs and their mean completion and waiting times.
BaselineRun tally(const proto::JobTracker& tracker) {
  BaselineRun r;
  double completion = 0.0, waiting = 0.0;
  for (const auto& [id, rec] : tracker.records()) {
    if (!rec.done()) continue;
    ++r.completed;
    completion += rec.completion_time().to_minutes();
    waiting += rec.waiting_time().to_minutes();
  }
  if (r.completed > 0) {
    r.completion_minutes = completion / static_cast<double>(r.completed);
    r.waiting_minutes = waiting / static_cast<double>(r.completed);
  }
  return r;
}

// Runs the grid/workload through the omniscient centralized baseline: same
// node profiles, same job distribution, direct assignment plus a periodic
// global rebalance sweep standing in for the INFORM phase.
BaselineRun run_centralized(const workload::ScenarioConfig& cfg,
                            std::uint64_t seed) {
  workload::ScenarioConfig quiet = cfg;
  quiet.job_count = 0;  // the engine builds the grid; we drive submissions
  workload::GridSimulation sim{quiet, seed};
  sim.build();

  // The engine's tracker already observes every node's lifecycle events;
  // the meta-scheduler must report into the same one.
  proto::JobTracker& tracker = sim.tracker();
  proto::CentralizedMetaScheduler meta{sim.simulator(), sim.all_nodes(),
                                       &tracker};
  Rng rng{seed ^ 0xC3A7ULL};
  workload::JobGenerator gen{cfg.jobs, rng.fork(1)};
  Rng pick_rng = rng.fork(2);

  std::uint64_t moves = 0;
  auto nodes = sim.all_nodes();
  for (std::size_t i = 0; i < cfg.job_count; ++i) {
    const TimePoint at = TimePoint::origin() + cfg.submission_start +
                         cfg.submission_interval * static_cast<std::int64_t>(i);
    sim.simulator().schedule_at(at, [&sim, &meta, &gen, &pick_rng, &nodes] {
      auto feasible = [&nodes](const grid::JobRequirements& req) {
        for (auto* n : nodes) {
          if (grid::satisfies(n->profile(), req, n->virtual_org())) return true;
        }
        return false;
      };
      const grid::JobSpec job = gen.next(sim.simulator().now(), feasible);
      const auto pick = static_cast<std::size_t>(pick_rng.uniform_int(
          0, static_cast<std::int64_t>(nodes.size()) - 1));
      meta.submit(job, nodes[pick]->id());
    });
  }
  // Global rebalance sweep with the same period/threshold as ARiA's INFORM.
  sim.simulator().schedule_periodic(
      cfg.aria.inform_period, cfg.aria.inform_period, [&meta, &moves, &cfg] {
        moves += meta.rebalance(cfg.aria.reschedule_threshold.to_seconds());
      });
  sim.simulator().run_until(TimePoint::origin() + cfg.horizon);

  BaselineRun r = tally(tracker);
  r.moves = moves;
  return r;
}

// Runs the grid/workload through gossip-based state dissemination (Erdil &
// Lewis style, [25]): nodes push backlog summaries to random neighbors
// every 30 s, and initiators assign from their cache instead of flooding.
BaselineRun run_gossip(const workload::ScenarioConfig& cfg,
                       std::uint64_t seed) {
  Rng rng{seed};
  sim::Simulator simulator;
  sim::Network net{simulator,
                   std::make_unique<sim::GeoLatencyModel>(
                       sim::GeoLatencyModel::Params{.seed = seed ^ 0xA51C17ULL}),
                   rng.fork(1)};
  Rng boot_rng = rng.fork(5);
  overlay::Topology topo = overlay::bootstrap_random(
      cfg.node_count, workload::ScenarioConfig::kBootstrapAvgDegree, boot_rng);

  proto::GossipConfig gossip_config;
  gossip_config.gossip_period = Duration::seconds(30);
  grid::ErtErrorModel ert_error = cfg.ert_error;
  proto::JobTracker tracker;

  std::vector<std::unique_ptr<proto::GossipNode>> nodes;
  nodes.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    Rng profile_rng = rng.fork(100 + id.value());
    grid::NodeProfile profile = grid::random_node_profile(profile_rng);
    proto::GossipNode::Context ctx;
    ctx.sim = &simulator;
    ctx.net = &net;
    ctx.topo = &topo;
    ctx.config = &gossip_config;
    ctx.ert_error = &ert_error;
    ctx.observer = &tracker;
    nodes.push_back(std::make_unique<proto::GossipNode>(
        ctx, id, profile,
        sched::make_scheduler(profile_rng.uniform_int(0, 1) == 0
                                  ? sched::SchedulerKind::kFcfs
                                  : sched::SchedulerKind::kSjf),
        profile_rng.fork(7)));
    nodes.back()->start();
  }

  workload::JobGenerator gen{cfg.jobs, rng.fork(4)};
  Rng submit_rng = rng.fork(3);
  auto feasible = [&nodes](const grid::JobRequirements& req) {
    for (const auto& n : nodes) {
      if (grid::satisfies(n->profile(), req)) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < cfg.job_count; ++i) {
    const TimePoint at = TimePoint::origin() + cfg.submission_start +
                         cfg.submission_interval * static_cast<std::int64_t>(i);
    simulator.schedule_at(at, [&] {
      grid::JobSpec job = gen.next(simulator.now(), feasible);
      const auto pick = static_cast<std::size_t>(submit_rng.uniform_int(
          0, static_cast<std::int64_t>(nodes.size()) - 1));
      nodes[pick]->submit(std::move(job));
    });
  }
  simulator.run_until(TimePoint::origin() + cfg.horizon);

  BaselineRun r = tally(tracker);
  constexpr double kMiB = 1024.0 * 1024.0;
  r.traffic_mib = static_cast<double>(net.traffic().total().bytes) / kMiB;
  r.gossip_mib = static_cast<double>(net.traffic().of("GOSSIP").bytes) / kMiB;
  nodes.clear();
  return r;
}

// Flood-parameter variants of iMixed around the paper's 9x4 REQUEST and
// 8x2 INFORM floods (§IV-E). INFORM floods keep 8 hops in every variant.
struct FloodVariant {
  const char* label;
  std::size_t request_hops;
  std::size_t request_fanout;
  std::size_t inform_fanout;
};
constexpr FloodVariant kFloodVariants[] = {
    {"request 5x2 (starved)", 5, 2, 2}, {"request 9x2", 9, 2, 2},
    {"request 5x4", 5, 4, 2},           {"request 9x4 (paper)", 9, 4, 2},
    {"request 9x6 (greedy)", 9, 6, 2},  {"inform 8x1", 9, 4, 1},
    {"inform 8x4", 9, 4, 4},
};

workload::ScenarioConfig with(workload::ScenarioConfig c,
                              const FloodVariant& v) {
  c.aria.request_hops = v.request_hops;
  c.aria.request_fanout = v.request_fanout;
  c.aria.inform_fanout = v.inform_fanout;
  return c;
}

// Overlay families of equal average degree (the paper's future work, §VI).
struct OverlayVariant {
  const char* label;
  workload::ScenarioConfig::OverlayFamily family;
};
constexpr OverlayVariant kOverlayVariants[] = {
    {"blatant (paper)", workload::ScenarioConfig::OverlayFamily::kBlatant},
    {"random-k", workload::ScenarioConfig::OverlayFamily::kRandomRegular},
    {"small-world b=0.1", workload::ScenarioConfig::OverlayFamily::kSmallWorld},
};

workload::ScenarioConfig with(workload::ScenarioConfig c,
                              const OverlayVariant& v) {
  c.overlay_family = v.family;
  return c;
}

/// Is the variant iMixed itself? Its row then reads the iMixed runs.
template <class Variant>
bool is_imixed(const Variant& v) {
  const auto imixed = workload::scenario_by_name("iMixed");
  const auto c = with(imixed, v);
  return c.aria.request_hops == imixed.aria.request_hops &&
         c.aria.request_fanout == imixed.aria.request_fanout &&
         c.aria.inform_fanout == imixed.aria.inform_fanout &&
         c.overlay_family == imixed.overlay_family;
}

struct Paper {
  std::vector<Scenario> scenarios;  // Table II, then the ablation variants
  std::vector<BaselineRun> centralized;  // one per seed
  std::vector<BaselineRun> gossip;       // one per seed

  const Scenario& by(std::string_view label) const {
    for (const auto& s : scenarios) {
      if (s.label == label) return s;
    }
    std::abort();
  }
  template <class Variant>
  const Scenario& row(const Variant& v) const {
    return by(is_imixed(v) ? "iMixed" : v.label);
  }
  // Means over runs, in minutes.
  double completion(std::string_view n) const {
    return by(n).completion_minutes.mean();
  }
  double waiting(std::string_view n) const {
    return by(n).waiting_minutes.mean();
  }
  double execution(std::string_view n) const {
    return by(n).execution_minutes.mean();
  }
};

Paper simulate() {
  const std::size_t runs = bench_runs();
  const std::uint64_t seed = bench_seed();
  Paper paper;
  auto add = [&](std::string label, workload::ScenarioConfig config) {
    Scenario s;
    s.label = std::move(label);
    s.config = std::move(config);
    paper.scenarios.push_back(std::move(s));
  };
  for (const auto& c : workload::all_scenarios()) {
    add(c.name, bench_scenario(c.name));
  }
  const auto imixed = bench_scenario("iMixed");
  for (const auto& v : kFloodVariants) {
    if (!is_imixed(v)) add(v.label, with(imixed, v));
  }
  for (const auto& v : kOverlayVariants) {
    if (!is_imixed(v)) add(v.label, with(imixed, v));
  }

  // One pool over every run: gossip seeds first (they take longest, so they
  // start while the shorter runs fill the other workers), then centralized
  // seeds, then each ARiA configuration's seeds. Results land by index, so
  // the output never depends on worker scheduling.
  const std::size_t aria_runs = paper.scenarios.size() * runs;
  std::vector<workload::RunResult> results(aria_runs);
  paper.gossip.resize(runs);
  paper.centralized.resize(runs);
  std::fprintf(stderr,
               "[bench] simulating %zu runs: %zu ARiA configurations x %zu "
               "seed(s), gossip and centralized baselines x %zu ...\n",
               aria_runs + 2 * runs, paper.scenarios.size(), runs, runs);
  parallel_for_index(aria_runs + 2 * runs, 0, [&](std::size_t i) {
    if (i < runs) {
      paper.gossip[i] = run_gossip(imixed, seed + i);
    } else if (i < 2 * runs) {
      paper.centralized[i - runs] = run_centralized(imixed, seed + i - runs);
    } else {
      const std::size_t k = i - 2 * runs;
      results[k] = workload::run_scenario(paper.scenarios[k / runs].config,
                                          seed + k % runs);
    }
  });

  for (std::size_t i = 0; i < paper.scenarios.size(); ++i) {
    Scenario& s = paper.scenarios[i];
    const auto begin = std::make_move_iterator(results.begin() + i * runs);
    s.runs.assign(begin, begin + runs);
    static_cast<workload::ScenarioSummary&>(s) =
        workload::summarize(s.config, s.runs);
  }
  return paper;
}

/// Mean of the series' points inside [from_h, to_h].
double window_mean(const metrics::Series& s, double from_h, double to_h) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : s.points()) {
    if (p.t_hours < from_h || p.t_hours > to_h) continue;
    sum += p.value;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void print_submission_window(const workload::ScenarioConfig& cfg) {
  std::cout << "\njob submissions run from "
            << (TimePoint::origin() + cfg.submission_start).to_string()
            << " to " << cfg.submission_end().to_string() << "\n\n";
}

// Table II: every scenario's definition (as the paper's table prints it),
// then the headline metrics of its runs.
void table2(const Paper& p) {
  header("Table II", "Summary of Evaluation Scenarios (all 26)");

  metrics::Table defs{{"scenario", "schedulers", "resched", "interval",
                       "deadline slack", "ERT error", "expansion"}};
  for (const auto& c : workload::all_scenarios()) {
    std::string mix;
    for (const auto k : c.scheduler_mix) {
      if (!mix.empty()) mix += "/";
      mix += sched::to_string(k);
    }
    std::string err;
    switch (c.ert_error.mode) {
      case grid::ErtErrorMode::kExact: err = "exact"; break;
      case grid::ErtErrorMode::kSymmetric:
        err = "+-" + metrics::Table::num(c.ert_error.epsilon * 100, 0) + "%";
        break;
      case grid::ErtErrorMode::kOptimistic:
        err = "always low (" +
              metrics::Table::num(c.ert_error.epsilon * 100, 0) + "%)";
        break;
    }
    defs.add_row({c.name, mix, c.aria.dynamic_rescheduling ? "yes" : "no",
                  c.submission_interval.to_string(),
                  c.jobs.deadline_slack_mean
                      ? c.jobs.deadline_slack_mean->to_string()
                      : "-",
                  err, c.expansion ? "500->700" : "-"});
  }
  std::cout << "\nscenario definitions:\n";
  defs.print(std::cout);

  std::cout << "\nresults (mean over runs):\n";
  metrics::Table rows{{"scenario", "completed", "completion[min]",
                       "reschedules", "missed deadlines", "traffic MiB"}};
  bool all_clean = true;
  for (const auto& c : workload::all_scenarios()) {
    const Scenario& s = p.by(c.name);
    for (const auto& r : s.runs) {
      all_clean = all_clean && r.tracker.violations().empty() &&
                  r.completed() == s.config.job_count;
    }
    rows.add_row({s.name, metrics::Table::num(s.completed_jobs.mean(), 0),
                  metrics::Table::num(s.completion_minutes.mean()),
                  metrics::Table::num(s.reschedules.mean(), 0),
                  metrics::Table::num(s.missed_deadlines.mean(), 0),
                  metrics::Table::num(s.traffic_mib_mean_total())});
  }
  rows.print(std::cout);
  std::cout << "\n";
  shape("all 26 scenarios complete their workload without violations",
        all_clean);
}

// Figure 1: completed jobs over time for FCFS/SJF/Mixed with and without
// dynamic rescheduling. The paper's plot shows iSJF/iMixed catching up to
// the near-optimal FCFS curve, with plain SJF/Mixed trailing.
void fig01(const Paper& p) {
  header("Figure 1", "Completed Jobs");
  const char* names[] = {"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"};
  std::vector<metrics::Series> curves;
  for (const char* n : names) curves.push_back(p.by(n).completed_curve);
  std::cout << "\ncompleted jobs vs time (mean over runs):\n";
  metrics::print_series_matrix(std::cout, curves, 40);
  // The submission window (vertical bars in the paper).
  print_submission_window(p.by("Mixed").config);

  // The discriminating region is the drain phase after submissions end
  // (~3h..12h): a faster schedule shows a uniformly higher curve there.
  auto drain_mean = [&](const char* n) {
    return window_mean(p.by(n).completed_curve, 3.0, 12.0);
  };
  shape("iSJF completes jobs faster than SJF",
        drain_mean("iSJF") > drain_mean("SJF"));
  shape("iMixed completes jobs faster than Mixed",
        drain_mean("iMixed") > drain_mean("Mixed"));
  shape("plain FCFS is comparatively near-optimal (not slower than Mixed)",
        drain_mean("FCFS") >= drain_mean("Mixed") * 0.98);
  const auto jobs = static_cast<double>(p.by("Mixed").config.job_count);
  shape("every scenario eventually completes the full workload",
        std::all_of(std::begin(names), std::end(names), [&](const char* n) {
          return p.by(n).completed_jobs.mean() + 0.5 >= jobs;
        }));
}

// Figure 2: average job completion time split into waiting + execution for
// FCFS/SJF/Mixed ± dynamic rescheduling. Paper reading: rescheduling
// reduces completion time everywhere except (already-optimal) FCFS, the
// gain comes from the waiting share, and execution time grows slightly.
void fig02(const Paper& p) {
  header("Figure 2", "Job Completion Time (waiting + execution, minutes)");
  metrics::Table table{{"scenario", "waiting[min]", "execution[min]",
                        "completion[min]", "stddev", "reschedules"}};
  for (const char* n : {"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"}) {
    const auto& s = p.by(n);
    table.add_row({s.name, metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.execution_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.stddev(), 2),
                   metrics::Table::num(s.reschedules.mean(), 0)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  shape("iSJF completion < SJF completion",
        p.completion("iSJF") < p.completion("SJF"));
  shape("iMixed completion < Mixed completion",
        p.completion("iMixed") < p.completion("Mixed"));
  shape("rescheduling reduces the waiting share (iMixed vs Mixed)",
        p.waiting("iMixed") < p.waiting("Mixed"));
  shape("rescheduling scenarios show larger execution times (iMixed >= Mixed)",
        p.execution("iMixed") >= p.execution("Mixed") * 0.98);
  shape("FCFS stays near-optimal: |iFCFS - FCFS| small",
        std::abs(p.completion("iFCFS") - p.completion("FCFS")) <
            p.completion("FCFS") * 0.15);
}

// Figure 3: idle nodes over time (overall grid utilization). Paper
// reading: dynamic rescheduling reduces the number of idle nodes during the
// busy phase by roughly 100 (of 500), and all i-scenarios behave alike.
void fig03(const Paper& p) {
  header("Figure 3", "Idle Nodes (empty scheduling queue, not executing)");
  const char* names[] = {"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"};
  std::vector<metrics::Series> series;
  for (const char* n : names) {
    series.push_back(p.by(n).idle_series.downsampled(30));
  }
  std::cout << "\nidle nodes vs time (mean over runs):\n";
  metrics::print_series_matrix(std::cout, series, 40);
  const auto& cfg = p.by("Mixed").config;
  print_submission_window(cfg);

  // Busy window: from submissions start to a few hours past their end.
  const double from_h = cfg.submission_start.to_hours();
  const double to_h = cfg.submission_end().to_hours() + 2.0;
  auto busy_idle = [&](const char* n) {
    return window_mean(p.by(n).idle_series, from_h, to_h);
  };
  const double mixed = busy_idle("Mixed");
  const double imixed = busy_idle("iMixed");
  const double sjf = busy_idle("SJF");
  const double isjf = busy_idle("iSJF");
  const double ifcfs = busy_idle("iFCFS");

  std::cout << "busy-phase mean idle nodes: Mixed=" << mixed
            << " iMixed=" << imixed << " SJF=" << sjf << " iSJF=" << isjf
            << " iFCFS=" << ifcfs << "\n";
  std::cout << "busy-time Gini (lower = better balanced):";
  for (const char* n : names) {
    const auto& runs = p.by(n).runs;
    double gini = 0.0;
    for (const auto& r : runs) gini += r.busy_time_balance().gini;
    gini /= static_cast<double>(runs.size());
    std::cout << " " << n << "=" << metrics::Table::num(gini, 3);
  }
  std::cout << "\n\n";

  // Margins scale with the grid: 4% and 8% of it (20 and 40 of 500 nodes).
  const double clearly = 0.04 * static_cast<double>(cfg.node_count);
  const double alike = 0.08 * static_cast<double>(cfg.node_count);
  shape("iMixed keeps clearly fewer nodes idle than Mixed",
        imixed < mixed - clearly);
  shape("iSJF keeps clearly fewer nodes idle than SJF", isjf < sjf - clearly);
  shape("all rescheduling scenarios behave alike (spread < " +
            metrics::Table::num(alike, 0) + " nodes)",
        std::abs(imixed - isjf) < alike && std::abs(imixed - ifcfs) < alike);
}

// Figure 4: deadline scheduling performance — missed deadlines, average
// lateness over met deadlines, average missed time over failed ones.
// Paper numbers: misses 187 -> 4 (Deadline -> iDeadline) and 236 -> 59
// (DeadlineH -> iDeadlineH); missed time roughly halves with rescheduling.
void fig04(const Paper& p) {
  header("Figure 4", "Deadline Scheduling Performance");
  metrics::Table table{{"scenario", "missed deadlines", "met slack[min]",
                        "missed time[min]", "completion[min]"}};
  for (const char* n : {"Deadline", "iDeadline", "DeadlineH", "iDeadlineH"}) {
    const auto& s = p.by(n);
    table.add_row({s.name, metrics::Table::num(s.missed_deadlines.mean(), 1),
                   metrics::Table::num(s.met_slack_minutes.mean()),
                   metrics::Table::num(s.missed_time_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.mean())});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\npaper reference (10 runs, authors' testbed): Deadline 187 -> "
               "iDeadline 4 misses; DeadlineH 236 -> iDeadlineH 59 misses\n\n";

  auto missed = [&](const char* n) { return p.by(n).missed_deadlines.mean(); };
  shape("rescheduling collapses missed deadlines (iDeadline << Deadline)",
        missed("iDeadline") < missed("Deadline") * 0.5);
  shape("same under tight deadlines (iDeadlineH << DeadlineH)",
        missed("iDeadlineH") < missed("DeadlineH") * 0.6);
  shape("tight deadlines miss more than loose ones (DeadlineH > Deadline)",
        missed("DeadlineH") > missed("Deadline") * 0.8);
  shape("met-deadline slack does not degrade with rescheduling",
        p.by("iDeadline").met_slack_minutes.mean() >
            p.by("Deadline").met_slack_minutes.mean() * 0.9);
}

// Figure 5: idle nodes in an expanding network (500 -> 700 nodes between
// 1h23m and ~4h10m). Paper reading: with dynamic rescheduling the newly
// joined resources get used — fewer idle nodes despite the growth.
void fig05(const Paper& p) {
  header("Figure 5", "Idle Nodes (Expanding Network)");
  const auto& plain = p.by("Expanding");
  const auto& dynamic = p.by("iExpanding");

  std::cout << "\ngrid size over time:\n";
  metrics::print_series_matrix(
      std::cout, {plain.node_count_series.downsampled(30)}, 25);

  std::cout << "\nidle nodes vs time:\n";
  metrics::print_series_matrix(
      std::cout,
      {plain.idle_series.downsampled(30), dynamic.idle_series.downsampled(30)},
      40);

  const auto& cfg = plain.config;
  const double growth_start = cfg.expansion->start.to_hours();
  const double busy_end = cfg.submission_end().to_hours() + 3.0;
  const double plain_idle =
      window_mean(plain.idle_series, growth_start, busy_end);
  const double dyn_idle =
      window_mean(dynamic.idle_series, growth_start, busy_end);
  std::cout << "\nmean idle nodes during growth+busy window ["
            << growth_start << "h, " << busy_end << "h]: Expanding="
            << plain_idle << " iExpanding=" << dyn_idle << "\n\n";

  shape("network reaches its target size",
        plain.node_count_series.points().back().value >=
            static_cast<double>(cfg.expansion->target_node_count) - 0.5);
  shape("rescheduling exploits the new nodes (fewer idle than plain)",
        dyn_idle < plain_idle);
  const auto jobs = static_cast<double>(cfg.job_count);
  shape("full workload completes in both variants",
        plain.completed_jobs.mean() + 0.5 >= jobs &&
            dynamic.completed_jobs.mean() + 0.5 >= jobs);
}

// Figure 6: idle nodes under different load levels (LowLoad / Mixed /
// HighLoad, each ± rescheduling). Paper reading: with rescheduling the grid
// sustains higher utilization at every load level.
void fig06(const Paper& p) {
  header("Figure 6", "Idle Nodes under Load");
  std::vector<metrics::Series> series;
  for (const char* n :
       {"LowLoad", "Mixed", "HighLoad", "iLowLoad", "iMixed", "iHighLoad"}) {
    series.push_back(p.by(n).idle_series.downsampled(30));
  }
  std::cout << "\nidle nodes vs time:\n";
  metrics::print_series_matrix(std::cout, series, 40);

  std::cout << "\nsubmission windows (horizontal arrows in the paper):\n";
  for (const char* n : {"LowLoad", "Mixed", "HighLoad"}) {
    const auto& cfg = p.by(n).config;
    std::cout << "  " << n << ": "
              << (TimePoint::origin() + cfg.submission_start).to_string()
              << " - " << cfg.submission_end().to_string() << "\n";
  }

  auto busy_idle = [&](const char* plain, const char* i) {
    const auto& cfg = p.by(plain).config;
    const double from = cfg.submission_start.to_hours();
    const double to = cfg.submission_end().to_hours() + 2.0;
    return std::pair{window_mean(p.by(plain).idle_series, from, to),
                     window_mean(p.by(i).idle_series, from, to)};
  };
  const auto [low, ilow] = busy_idle("LowLoad", "iLowLoad");
  const auto [mid, imid] = busy_idle("Mixed", "iMixed");
  const auto [high, ihigh] = busy_idle("HighLoad", "iHighLoad");
  std::cout << "\nbusy-phase mean idle: LowLoad " << low << " -> " << ilow
            << "; Mixed " << mid << " -> " << imid << "; HighLoad " << high
            << " -> " << ihigh << "\n\n";

  shape("rescheduling raises utilization at low load", ilow < low);
  shape("rescheduling raises utilization at baseline load", imid < mid);
  shape("rescheduling raises utilization at high load", ihigh < high);
  shape("higher load occupies more of the grid (HighLoad < LowLoad idle)",
        high < low);
}

// Figure 7: average job completion time under different load levels.
// Paper reading: iHighLoad performs comparably to LowLoad even though jobs
// arrive four times faster.
void fig07(const Paper& p) {
  header("Figure 7", "Job Completion Time under Load (minutes)");
  metrics::Table table{{"scenario", "waiting[min]", "execution[min]",
                        "completion[min]", "reschedules"}};
  for (const char* n :
       {"LowLoad", "Mixed", "HighLoad", "iLowLoad", "iMixed", "iHighLoad"}) {
    const auto& s = p.by(n);
    table.add_row({s.name, metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.execution_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.reschedules.mean(), 0)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  shape("rescheduling helps at every load level",
        p.completion("iLowLoad") < p.completion("LowLoad") &&
            p.completion("iMixed") < p.completion("Mixed") &&
            p.completion("iHighLoad") < p.completion("HighLoad"));
  shape("iHighLoad is comparable to LowLoad (4x the submission rate)",
        p.completion("iHighLoad") < p.completion("LowLoad") * 1.35);
  shape("without rescheduling, high load is clearly worse than low load",
        p.completion("HighLoad") > p.completion("LowLoad") * 1.2);
}

// Figure 8: sensitivity of completion time to the rescheduling policy — the
// number of advertised jobs per period (iInform1/iMixed/iInform4) and the
// improvement threshold (iInform15m/iInform30m). Paper reading: minimal
// differences; iInform4 achieves the lowest waiting time.
void fig08(const Paper& p) {
  header("Figure 8", "Job Completion Time (Rescheduling Policies, minutes)");
  const char* names[] = {"iInform1", "iMixed", "iInform4", "iInform15m",
                         "iInform30m"};
  metrics::Table table{{"scenario", "waiting[min]", "execution[min]",
                        "completion[min]", "reschedules", "INFORM MiB/run"}};
  for (const char* n : names) {
    const auto& s = p.by(n);
    table.add_row({s.name, metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.execution_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.reschedules.mean(), 0),
                   metrics::Table::num(s.traffic_mib_mean("INFORM"))});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  // "Minimal differences" — all five within a modest band of the baseline.
  const double base = p.completion("iMixed");
  shape("policy variants differ only minimally in completion time",
        std::all_of(std::begin(names), std::end(names), [&](const char* n) {
          return std::abs(p.completion(n) - base) <= base * 0.2;
        }));
  shape("iInform4 achieves the lowest waiting time",
        p.waiting("iInform4") <=
            std::min({p.waiting("iInform1"), p.waiting("iMixed")}) * 1.05);
  auto inform = [&](const char* n) {
    return p.by(n).traffic_mib_mean("INFORM");
  };
  shape("more advertised jobs => more INFORM traffic (1 < 2 < 4)",
        inform("iInform1") < inform("iMixed") &&
            inform("iMixed") < inform("iInform4"));
  shape("larger thresholds reduce the number of reschedules",
        p.by("iInform30m").reschedules.mean() <
            p.by("iMixed").reschedules.mean());
}

// Figure 9: sensitivity of completion time to ERT accuracy: exact (Precise),
// +-10% (Mixed baseline), +-25% (Accuracy25), always-optimistic estimates
// (AccuracyBad), each ± rescheduling. Paper reading: symmetric error barely
// matters; even optimistic-only estimates do not hurt excessively.
void fig09(const Paper& p) {
  header("Figure 9", "Sensitivity to ERT Accuracy (minutes)");
  metrics::Table table{{"scenario", "waiting[min]", "execution[min]",
                        "completion[min]"}};
  for (const char* n : {"Precise", "Mixed", "Accuracy25", "AccuracyBad",
                        "iPrecise", "iMixed", "iAccuracy25", "iAccuracyBad"}) {
    const auto& s = p.by(n);
    table.add_row({s.name, metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.execution_minutes.mean()),
                   metrics::Table::num(s.completion_minutes.mean())});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  auto within = [&](const char* a, const char* b, double band) {
    return std::abs(p.completion(a) - p.completion(b)) <=
           p.completion(b) * band;
  };
  shape("+-10% error is indistinguishable from exact (Mixed ~ Precise)",
        within("Mixed", "Precise", 0.15));
  shape("+-25% error is indistinguishable from exact (Accuracy25 ~ Precise)",
        within("Accuracy25", "Precise", 0.15));
  shape("same with rescheduling (iAccuracy25 ~ iPrecise)",
        within("iAccuracy25", "iPrecise", 0.15));
  shape("optimistic-only estimates worsen but not excessively "
        "(iAccuracyBad < 1.5x iPrecise)",
        p.completion("iAccuracyBad") < p.completion("iPrecise") * 1.5);
  shape("AccuracyBad runs longer than Precise (executions overshoot)",
        p.execution("AccuracyBad") > p.execution("Precise"));
}

// Figure 10: network overhead per message type for representative scenarios.
// Paper reading: REQUEST traffic is flat across scenarios (initial
// allocation), ASSIGN/ACCEPT are negligible, INFORM dominates the
// rescheduling overhead, iExpanding informs less than iMixed (jobs start
// sooner on new nodes), and iInform1 is the best traffic/performance
// compromise. The paper quotes ~3 MB per node over ~42h ~= 149 bps.
void fig10(const Paper& p) {
  header("Figure 10", "Network Overhead Comparison");
  metrics::Table table{{"scenario", "REQUEST MiB", "INFORM MiB", "ACCEPT MiB",
                        "ASSIGN MiB", "total MiB", "MiB/node", "bps/node"}};
  for (const char* n : {"Mixed", "iMixed", "iInform1", "iInform4",
                        "iExpanding", "iHighLoad"}) {
    const auto& s = p.by(n);
    const auto& cfg = s.config;
    const double nodes = static_cast<double>(
        cfg.expansion ? cfg.expansion->target_node_count : cfg.node_count);
    const double per_node = s.traffic_mib_mean_total() / nodes;
    const double bps =
        per_node * 1024.0 * 1024.0 * 8.0 / cfg.horizon.to_seconds();
    table.add_row({s.name, metrics::Table::num(s.traffic_mib_mean("REQUEST")),
                   metrics::Table::num(s.traffic_mib_mean("INFORM")),
                   metrics::Table::num(s.traffic_mib_mean("ACCEPT"), 2),
                   metrics::Table::num(s.traffic_mib_mean("ASSIGN"), 2),
                   metrics::Table::num(s.traffic_mib_mean_total()),
                   metrics::Table::num(per_node, 2),
                   metrics::Table::num(bps, 0)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\npaper reference: ~3 MB/node over ~42 h (~149 bps); INFORM "
               "dominates rescheduling overhead\n\n";

  auto mib = [&](const char* n, const char* type) {
    return p.by(n).traffic_mib_mean(type);
  };
  // REQUEST flat across same-size scenarios (within 20%).
  const double req_base = mib("iMixed", "REQUEST");
  const char* same_size[] = {"Mixed", "iInform1", "iInform4", "iHighLoad"};
  shape("REQUEST traffic is flat across scenarios",
        std::all_of(std::begin(same_size), std::end(same_size),
                    [&](const char* n) {
                      return std::abs(mib(n, "REQUEST") - req_base) <=
                             req_base * 0.2;
                    }));
  shape("ACCEPT and ASSIGN are a negligible share (< 5% of total in iMixed)",
        mib("iMixed", "ACCEPT") + mib("iMixed", "ASSIGN") <
            p.by("iMixed").traffic_mib_mean_total() * 0.05);
  shape("INFORM dominates rescheduling overhead (iMixed INFORM > REQUEST)",
        mib("iMixed", "INFORM") > mib("iMixed", "REQUEST"));
  shape("iExpanding generates less INFORM traffic than iMixed",
        mib("iExpanding", "INFORM") < mib("iMixed", "INFORM"));
  shape("iInform1 cuts INFORM traffic substantially vs iMixed",
        mib("iInform1", "INFORM") < mib("iMixed", "INFORM") * 0.85);
  shape("iInform1 keeps completion time comparable to iMixed",
        p.completion("iInform1") < p.completion("iMixed") * 1.2);
}

// Ablation (not in the paper): ARiA vs an omniscient centralized
// meta-scheduler on the same grid and workload. Bounds the price of
// decentralization: the centralized baseline sees every node instantly and
// pays no discovery traffic; ARiA should land within a modest factor while
// sending only bounded flood traffic.
void centralized(const Paper& p) {
  header("Ablation", "ARiA vs Omniscient Centralized Meta-Scheduler");
  const Scenario& aria = p.by("iMixed");
  const auto& c = p.centralized;
  const double c_completion = mean(c, &BaselineRun::completion_minutes);
  const double c_completed = mean(c, &BaselineRun::completed);

  metrics::Table table{{"system", "completion[min]", "waiting[min]",
                        "completed", "moves/reschedules", "traffic MiB/run"}};
  table.add_row({"centralized (omniscient)", metrics::Table::num(c_completion),
                 metrics::Table::num(mean(c, &BaselineRun::waiting_minutes)),
                 metrics::Table::num(c_completed, 0),
                 metrics::Table::num(mean(c, &BaselineRun::moves), 0), "0.0"});
  table.add_row({"ARiA (fully distributed)",
                 metrics::Table::num(aria.completion_minutes.mean()),
                 metrics::Table::num(aria.waiting_minutes.mean()),
                 metrics::Table::num(aria.completed_jobs.mean(), 0),
                 metrics::Table::num(aria.reschedules.mean(), 0),
                 metrics::Table::num(aria.traffic_mib_mean_total())});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  const double ratio = aria.completion_minutes.mean() / c_completion;
  std::cout << "decentralization cost: ARiA / centralized completion ratio = "
            << metrics::Table::num(ratio, 2) << "\n\n";
  const auto jobs = static_cast<double>(aria.config.job_count);
  shape("centralized omniscient baseline is at least as good as ARiA",
        ratio >= 0.95);
  shape("ARiA stays within 2x of the omniscient baseline", ratio <= 2.0);
  shape("both complete the full workload",
        c_completed + 0.5 >= jobs && aria.completed_jobs.mean() + 0.5 >= jobs);
}

// Ablation (not in the paper): how the flood parameters trade discovery
// quality against traffic, around the paper's choices (9x4 and 8x2), which
// the authors state "guarantee a near optimal operation without flooding
// the network". Completion and waiting are means over completed jobs only,
// so the completed column shows which variants gave up on some.
void flood_parameters(const Paper& p) {
  header("Ablation", "Flood Parameters (REQUEST hops x fanout, INFORM fanout)");
  metrics::Table table{{"variant", "completed", "completion[min]",
                        "waiting[min]", "REQUEST MiB", "INFORM MiB", "retries",
                        "resched"}};
  for (const FloodVariant& v : kFloodVariants) {
    const Scenario& s = p.row(v);
    table.add_row({v.label, metrics::Table::num(s.completed_jobs.mean()),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.traffic_mib_mean("REQUEST")),
                   metrics::Table::num(s.traffic_mib_mean("INFORM")),
                   metrics::Table::num(s.retries(), 0),
                   metrics::Table::num(s.reschedules.mean(), 0)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  auto request_mib = [&](std::string_view n) {
    return p.by(n).traffic_mib_mean("REQUEST");
  };
  const std::string_view starved = "request 5x2 (starved)";
  shape("paper's 9x4 flood beats a starved 5x2 flood: as many jobs done, "
        "sooner",
        p.by("iMixed").completed_jobs.mean() >=
                p.by(starved).completed_jobs.mean() &&
            p.completion("iMixed") < p.completion(starved));
  shape("fanout 6 adds little coverage for its extra traffic (<= 40% more)",
        request_mib("request 9x6 (greedy)") <= request_mib("iMixed") * 1.4);
}

// Ablation (paper future work §VI): "experiments with different types of
// peer-to-peer overlay networks in order to gain a better understanding of
// its correlation to the meta-scheduling performance." iMixed on three
// overlay families of equal average degree: BLATANT-S (the paper's
// overlay), an unstructured k-regular random graph (Gnutella-style), and a
// Watts–Strogatz ring lattice with 10% rewiring. As in the flood table,
// times are over completed jobs, beside the completed count.
void overlay_families(const Paper& p) {
  header("Ablation", "Overlay Families (iMixed on equal-degree topologies)");
  metrics::Table table{{"overlay", "APL", "degree", "completed",
                        "completion[min]", "waiting[min]", "REQUEST MiB",
                        "retries"}};
  double worst_completion = 0.0;
  for (const OverlayVariant& v : kOverlayVariants) {
    const Scenario& s = p.row(v);
    table.add_row({v.label,
                   metrics::Table::num(s.overlay_avg_path_length.mean(), 2),
                   metrics::Table::num(s.overlay_avg_degree.mean(), 2),
                   metrics::Table::num(s.completed_jobs.mean()),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.traffic_mib_mean("REQUEST")),
                   metrics::Table::num(s.retries(), 0)});
    worst_completion = std::max(worst_completion, s.completion_minutes.mean());
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  shape("meta-scheduling performance is overlay-robust (spread < 15%)",
        worst_completion < p.completion("iMixed") * 1.15);
}

// Ablation (related work §II): query-on-demand discovery (ARiA) vs
// gossip-based state dissemination on the same grid and workload. Gossip
// pays a constant background traffic cost and schedules from a cache that
// lags reality; ARiA pays per-job flood traffic and quotes live state.
void gossip(const Paper& p) {
  header("Ablation", "ARiA (query floods) vs Gossip (state dissemination)");
  const Scenario& aria = p.by("iMixed");
  const auto& g = p.gossip;
  const double g_completion = mean(g, &BaselineRun::completion_minutes);
  const double g_completed = mean(g, &BaselineRun::completed);
  const double g_traffic = mean(g, &BaselineRun::traffic_mib);

  metrics::Table table{{"system", "completion[min]", "waiting[min]",
                        "completed", "traffic MiB/run"}};
  table.add_row({"ARiA (iMixed)",
                 metrics::Table::num(aria.completion_minutes.mean()),
                 metrics::Table::num(aria.waiting_minutes.mean()),
                 metrics::Table::num(aria.completed_jobs.mean(), 0),
                 metrics::Table::num(aria.traffic_mib_mean_total())});
  table.add_row({"gossip dissemination", metrics::Table::num(g_completion),
                 metrics::Table::num(mean(g, &BaselineRun::waiting_minutes)),
                 metrics::Table::num(g_completed, 0),
                 metrics::Table::num(g_traffic)});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n(gossip background share: "
            << metrics::Table::num(mean(g, &BaselineRun::gossip_mib))
            << " MiB of " << metrics::Table::num(g_traffic) << " MiB)\n\n";

  const auto jobs = static_cast<double>(aria.config.job_count);
  shape("ARiA completes the full workload",
        aria.completed_jobs.mean() + 0.5 >= jobs);
  shape("gossip strands rare-profile jobs its cache never learns about",
        g_completed < jobs);
  shape("ARiA's live quotes beat gossip's stale cache on completion time",
        aria.completion_minutes.mean() < g_completion);
  shape("gossip's background dissemination costs more than ARiA's floods",
        g_traffic > aria.traffic_mib_mean_total());
}

}  // namespace

int main() {
  const Paper paper = simulate();
  table2(paper);
  fig01(paper);
  fig02(paper);
  fig03(paper);
  fig04(paper);
  fig05(paper);
  fig06(paper);
  fig07(paper);
  fig08(paper);
  fig09(paper);
  fig10(paper);
  centralized(paper);
  flood_parameters(paper);
  overlay_families(paper);
  gossip(paper);
  return finish();
}
