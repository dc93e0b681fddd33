// Ablation (related work §II): query-on-demand discovery (ARiA) vs
// gossip-based state dissemination (Erdil & Lewis style, [25]) on the same
// grid and workload. Gossip pays a constant background traffic cost and
// schedules from a cache that lags reality; ARiA pays per-job flood
// traffic and quotes live state.
#include "bench_common.hpp"

#include "core/gossip.hpp"
#include "core/tracker.hpp"
#include "grid/profile_gen.hpp"
#include "overlay/bootstrap.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"
#include "workload/aggregate.hpp"
#include "workload/jobgen.hpp"

namespace {

using namespace aria;

struct GossipResult {
  double completion_minutes{0.0};
  double waiting_minutes{0.0};
  std::size_t completed{0};
  double traffic_mib{0.0};
  double gossip_mib{0.0};
};

GossipResult run_gossip(const workload::ScenarioConfig& cfg,
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
    simulator.schedule_at(at, [&, i] {
      (void)i;
      grid::JobSpec job = gen.next(simulator.now(), feasible);
      const auto pick = static_cast<std::size_t>(submit_rng.uniform_int(
          0, static_cast<std::int64_t>(nodes.size()) - 1));
      nodes[pick]->submit(std::move(job));
    });
  }
  simulator.run_until(TimePoint::origin() + cfg.horizon);

  GossipResult r;
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
  r.traffic_mib =
      static_cast<double>(net.traffic().total().bytes) / (1024.0 * 1024.0);
  r.gossip_mib =
      static_cast<double>(net.traffic().of("GOSSIP").bytes) / (1024.0 * 1024.0);
  nodes.clear();
  return r;
}

}  // namespace

int main() {
  using namespace aria;
  using namespace aria::bench;

  header("Ablation", "ARiA (query floods) vs Gossip (state dissemination)");
  const auto cfg = bench_scenario("iMixed");

  const auto aria_summary = run("iMixed");

  std::fprintf(stderr, "[bench] running gossip baseline x%zu ...\n",
               bench_runs());
  GossipResult g{};
  for (std::size_t i = 0; i < bench_runs(); ++i) {
    const GossipResult one = run_gossip(cfg, bench_seed() + i);
    g.completion_minutes += one.completion_minutes;
    g.waiting_minutes += one.waiting_minutes;
    g.completed += one.completed;
    g.traffic_mib += one.traffic_mib;
    g.gossip_mib += one.gossip_mib;
  }
  const auto runs_d = static_cast<double>(bench_runs());
  g.completion_minutes /= runs_d;
  g.waiting_minutes /= runs_d;
  g.traffic_mib /= runs_d;
  g.gossip_mib /= runs_d;
  const double g_completed = static_cast<double>(g.completed) / runs_d;

  metrics::Table table{{"system", "completion[min]", "waiting[min]",
                        "completed", "traffic MiB/run"}};
  table.add_row({"ARiA (iMixed)",
                 metrics::Table::num(aria_summary.completion_minutes.mean()),
                 metrics::Table::num(aria_summary.waiting_minutes.mean()),
                 metrics::Table::num(aria_summary.completed_jobs.mean(), 0),
                 metrics::Table::num(aria_summary.traffic_mib_mean_total())});
  table.add_row({"gossip dissemination",
                 metrics::Table::num(g.completion_minutes),
                 metrics::Table::num(g.waiting_minutes),
                 metrics::Table::num(g_completed, 0),
                 metrics::Table::num(g.traffic_mib)});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n(gossip background share: "
            << metrics::Table::num(g.gossip_mib) << " MiB of "
            << metrics::Table::num(g.traffic_mib) << " MiB)\n\n";

  shape("ARiA completes the full workload",
        aria_summary.completed_jobs.mean() + 0.5 >=
            static_cast<double>(cfg.job_count));
  shape("gossip strands rare-profile jobs its cache never learns about",
        g_completed < static_cast<double>(cfg.job_count));
  shape("ARiA's live quotes beat gossip's stale cache on completion time",
        aria_summary.completion_minutes.mean() < g.completion_minutes);
  shape("gossip's background dissemination costs more than ARiA's floods",
        g.traffic_mib > aria_summary.traffic_mib_mean_total());
  return finish();
}
