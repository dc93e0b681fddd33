// Ablation (not in the paper): ARiA vs an omniscient centralized
// meta-scheduler on the same grid and workload. Bounds the price of
// decentralization: the centralized baseline sees every node instantly and
// pays no discovery traffic; ARiA should land within a modest factor while
// sending only bounded flood traffic.
#include "bench_common.hpp"

#include "core/centralized.hpp"
#include "workload/engine.hpp"

namespace {

struct BaselineResult {
  double completion_minutes;
  double waiting_minutes;
  std::size_t completed;
  std::uint64_t moves;
};

// Runs the iMixed grid/workload through the centralized baseline: same node
// profiles, same job distribution, direct assignment plus a periodic global
// rebalance sweep standing in for the INFORM phase.
BaselineResult run_centralized(const aria::workload::ScenarioConfig& cfg,
                               std::uint64_t seed) {
  using namespace aria;
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

  double completion = 0.0, waiting = 0.0;
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (!r.done()) continue;
    completion += r.completion_time().to_minutes();
    waiting += r.waiting_time().to_minutes();
    ++n;
  }
  return {n ? completion / static_cast<double>(n) : 0.0,
          n ? waiting / static_cast<double>(n) : 0.0, n, moves};
}

}  // namespace

int main() {
  using namespace aria;
  using namespace aria::bench;

  header("Ablation", "ARiA vs Omniscient Centralized Meta-Scheduler");
  const auto cfg = bench_scenario("iMixed");

  const auto aria_summary = run("iMixed");
  std::fprintf(stderr, "[bench] running centralized baseline x%zu ...\n",
               bench_runs());
  double c_completion = 0.0, c_waiting = 0.0, c_completed = 0.0,
         c_moves = 0.0;
  for (std::size_t i = 0; i < bench_runs(); ++i) {
    const BaselineResult b = run_centralized(cfg, bench_seed() + i);
    c_completion += b.completion_minutes;
    c_waiting += b.waiting_minutes;
    c_completed += static_cast<double>(b.completed);
    c_moves += static_cast<double>(b.moves);
  }
  const auto runs_d = static_cast<double>(bench_runs());
  c_completion /= runs_d;
  c_waiting /= runs_d;
  c_completed /= runs_d;
  c_moves /= runs_d;

  metrics::Table table{{"system", "completion[min]", "waiting[min]",
                        "completed", "moves/reschedules", "traffic MiB/run"}};
  table.add_row({"centralized (omniscient)", metrics::Table::num(c_completion),
                 metrics::Table::num(c_waiting),
                 metrics::Table::num(c_completed, 0),
                 metrics::Table::num(c_moves, 0), "0.0"});
  table.add_row({"ARiA (fully distributed)",
                 metrics::Table::num(aria_summary.completion_minutes.mean()),
                 metrics::Table::num(aria_summary.waiting_minutes.mean()),
                 metrics::Table::num(aria_summary.completed_jobs.mean(), 0),
                 metrics::Table::num(aria_summary.reschedules.mean(), 0),
                 metrics::Table::num(aria_summary.traffic_mib_mean_total())});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  const double ratio = aria_summary.completion_minutes.mean() / c_completion;
  std::cout << "decentralization cost: ARiA / centralized completion ratio = "
            << metrics::Table::num(ratio, 2) << "\n\n";
  shape("centralized omniscient baseline is at least as good as ARiA",
        ratio >= 0.95);
  shape("ARiA stays within 2x of the omniscient baseline", ratio <= 2.0);
  shape("both complete the full workload",
        c_completed + 0.5 >= static_cast<double>(cfg.job_count) &&
            aria_summary.completed_jobs.mean() + 0.5 >=
                static_cast<double>(cfg.job_count));
  return finish();
}
