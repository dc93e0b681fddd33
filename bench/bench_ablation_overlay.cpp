// Ablation (not in the paper): how the flood parameters trade discovery
// quality against traffic. Sweeps the REQUEST flood (hops x fanout) and the
// INFORM flood fanout around the paper's choices (9x4 and 8x2), which the
// authors state "guarantee a near optimal operation without flooding the
// network" — this bench quantifies that claim.
#include "bench_common.hpp"

#include "workload/aggregate.hpp"

namespace {

struct Variant {
  std::string label;
  std::size_t request_hops;
  std::size_t request_fanout;
  std::size_t inform_hops;
  std::size_t inform_fanout;
};

}  // namespace

int main() {
  using namespace aria;
  using namespace aria::bench;

  header("Ablation", "Flood Parameters (REQUEST hops x fanout, INFORM fanout)");

  const Variant variants[] = {
      {"request 5x2 (starved)", 5, 2, 8, 2},
      {"request 9x2", 9, 2, 8, 2},
      {"request 5x4", 5, 4, 8, 2},
      {"request 9x4 (paper)", 9, 4, 8, 2},
      {"request 9x6 (greedy)", 9, 6, 8, 2},
      {"inform 8x1", 9, 4, 8, 1},
      {"inform 8x4", 9, 4, 8, 4},
  };

  metrics::Table table{{"variant", "completion[min]", "waiting[min]",
                        "REQUEST MiB", "INFORM MiB", "retries", "resched"}};
  double paper_completion = 0.0, starved_completion = 0.0;
  double paper_request_mib = 0.0, greedy_request_mib = 0.0;

  for (const Variant& v : variants) {
    workload::ScenarioConfig cfg = bench_scenario("iMixed");
    cfg.aria.request_hops = v.request_hops;
    cfg.aria.request_fanout = v.request_fanout;
    cfg.aria.inform_hops = v.inform_hops;
    cfg.aria.inform_fanout = v.inform_fanout;
    std::fprintf(stderr, "[bench] running %s x%zu ...\n", v.label.c_str(),
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

    table.add_row({v.label, metrics::Table::num(s.completion_minutes.mean()),
                   metrics::Table::num(s.waiting_minutes.mean()),
                   metrics::Table::num(s.traffic_mib_mean("REQUEST")),
                   metrics::Table::num(s.traffic_mib_mean("INFORM")),
                   metrics::Table::num(retries, 0),
                   metrics::Table::num(s.reschedules.mean(), 0)});

    if (v.label.find("paper") != std::string::npos) {
      paper_completion = s.completion_minutes.mean();
      paper_request_mib = s.traffic_mib_mean("REQUEST");
    }
    if (v.label.find("starved") != std::string::npos) {
      starved_completion = s.completion_minutes.mean();
    }
    if (v.label.find("greedy") != std::string::npos) {
      greedy_request_mib = s.traffic_mib_mean("REQUEST");
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";

  shape("paper's 9x4 flood beats a starved 5x2 flood on completion time",
        paper_completion < starved_completion);
  shape("fanout 6 adds little coverage for its extra traffic (<= 40% more)",
        greedy_request_mib <= paper_request_mib * 1.4);
  return finish();
}
