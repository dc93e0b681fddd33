// The paper's evaluation in one program: Table II and Figs. 1–10.
//
// The evaluation is one matrix, the 26 Table-II scenarios × ARIA_BENCH_RUNS
// seeds. Every (scenario, seed) pair is simulated exactly once, on one sweep
// pool with a worker per hardware thread; each table and figure is then a
// view over those runs. Every figure prints the paper's qualitative claims
// as [shape OK]/[shape MISS] verdicts, and the program exits 1 if any
// missed. EXPERIMENTS.md carries this program's default output verbatim
// (tools/check_experiments.sh keeps it in sync).
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>
#include <utility>

#include "bench_common.hpp"
#include "sweep/runner.hpp"

namespace {

using namespace aria;
using namespace aria::bench;

/// One Table-II scenario: the summary the figures read, plus the config and
/// the per-seed runs it was computed from.
struct Scenario : workload::ScenarioSummary {
  workload::ScenarioConfig config;
  std::vector<workload::RunResult> runs;
};

struct Paper {
  std::vector<Scenario> scenarios;  // workload::all_scenarios() order

  const Scenario& by(std::string_view name) const {
    for (const auto& s : scenarios) {
      if (s.name == name) return s;
    }
    std::abort();
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
  std::vector<sweep::RunSpec> specs;
  for (const auto& c : workload::all_scenarios()) {
    const auto config = bench_scenario(c.name);
    for (std::size_t i = 0; i < runs; ++i) {
      specs.push_back({.label = c.name,
                       .config = config,
                       .seed = bench_seed() + i,
                       .entry_index = specs.size() / runs,
                       .rep_index = i});
    }
  }
  std::fprintf(stderr, "[bench] simulating %zu scenario(s) x %zu run(s) ...\n",
               specs.size() / runs, runs);
  auto results = sweep::run_all(specs);

  Paper paper;
  for (std::size_t first = 0; first < specs.size(); first += runs) {
    Scenario s;
    s.config = specs[first].config;
    const auto begin = std::make_move_iterator(results.begin() + first);
    s.runs.assign(begin, begin + runs);
    static_cast<workload::ScenarioSummary&>(s) =
        workload::summarize(s.config, s.runs);
    paper.scenarios.push_back(std::move(s));
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
  for (const auto& s : p.scenarios) {
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

  shape("iMixed keeps clearly fewer nodes idle than Mixed", imixed < mixed - 20);
  shape("iSJF keeps clearly fewer nodes idle than SJF", isjf < sjf - 20);
  shape("all rescheduling scenarios behave alike (spread < 40 nodes)",
        std::abs(imixed - isjf) < 40 && std::abs(imixed - ifcfs) < 40);
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
  return finish();
}
