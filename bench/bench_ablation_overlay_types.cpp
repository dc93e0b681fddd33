// Ablation (paper future work §VI): "experiments with different types of
// peer-to-peer overlay networks in order to gain a better understanding of
// its correlation to the meta-scheduling performance."
//
// Runs iMixed on three overlay families of equal average degree:
//   blatant      — BLATANT-S self-organized (the paper's overlay)
//   random-k     — unstructured k-regular random graph (Gnutella-style)
//   small-world  — Watts–Strogatz ring lattice with 10% rewiring
#include "bench_common.hpp"

#include "workload/aggregate.hpp"

int main() {
  using namespace aria;
  using namespace aria::bench;

  header("Ablation", "Overlay Families (iMixed on equal-degree topologies)");

  struct Family {
    std::string label;
    workload::ScenarioConfig::OverlayFamily family;
  };
  const Family families[] = {
      {"blatant (paper)", workload::ScenarioConfig::OverlayFamily::kBlatant},
      {"random-k", workload::ScenarioConfig::OverlayFamily::kRandomRegular},
      {"small-world b=0.1",
       workload::ScenarioConfig::OverlayFamily::kSmallWorld},
  };

  metrics::Table table{{"overlay", "APL", "degree", "completion[min]",
                        "waiting[min]", "REQUEST MiB", "retries"}};
  double blatant_completion = 0.0, worst_completion = 0.0;
  for (const Family& f : families) {
    workload::ScenarioConfig cfg = bench_scenario("iMixed");
    cfg.overlay_family = f.family;
    std::fprintf(stderr, "[bench] running %s x%zu ...\n", f.label.c_str(),
                 bench_runs());
    const auto results =
        workload::run_scenario_repeated(cfg, bench_runs(), bench_seed());
    const auto s = workload::summarize(cfg, results);
    double retries = 0.0;
    for (const auto& r : results) {
      for (const auto& [id, rec] : r.tracker.records()) {
        retries += static_cast<double>(rec.retries);
      }
    }
    retries /= static_cast<double>(results.size());
    table.add_row({f.label,
                   metrics::Table::num(s.overlay_avg_path_length.mean(), 2),
                   metrics::Table::num(s.overlay_avg_degree.mean(), 2),
                   metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.traffic_mib_mean("REQUEST")),
                   metrics::Table::num(retries, 0)});
    if (f.family == workload::ScenarioConfig::OverlayFamily::kBlatant) {
      blatant_completion = s.completion_minutes.mean();
    }
    worst_completion = std::max(worst_completion, s.completion_minutes.mean());
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  shape("meta-scheduling performance is overlay-robust (spread < 15%)",
        worst_completion < blatant_completion * 1.15);
  return finish();
}
