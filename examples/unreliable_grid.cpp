// Unreliable grid: the full fault plane against a shrunk iMixed workload.
//
// Turns on everything docs/faults.md describes at once — 5% message loss,
// 2% duplication, latency spikes, a half-hour network partition, and node
// churn — and checks the two guarantees the fault plane plus the hardened
// protocol make:
//
//   1. No stranded jobs: every submitted job reaches a terminal state
//      (completed, unschedulable, or abandoned after the recovery budget).
//   2. The books balance: the network's fault counters reconcile exactly
//      with the events the plane says it injected.
//
//   ./unreliable_grid [seed]

#include <cstdlib>
#include <iostream>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

using namespace aria;
using namespace aria::literals;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 40;
  cfg.job_count = 60;
  cfg.submission_start = 5_min;
  cfg.submission_interval = 30_s;
  cfg.horizon = 30_h;

  // The fault cocktail. Churn implies failsafe (crashed queues are lost) and
  // loss implies acknowledged delegation (an ASSIGN can vanish) — the same
  // coupling `aria_sim --loss ... --churn` applies.
  cfg.faults.enabled = true;
  cfg.faults.seed = 0x5EED;
  cfg.faults.loss = 0.05;
  cfg.faults.duplicate = 0.02;
  cfg.faults.spike = 0.02;
  cfg.faults.churn = sim::FaultConfig::Churn{
      .mean_uptime = 4_h, .mean_downtime = 20_min, .start = 30_min};
  cfg.faults.partitions.push_back(
      sim::FaultConfig::Partition{.start = 2_h, .duration = 30_min});
  cfg.aria.failsafe = true;
  cfg.aria.assign_ack = true;

  const workload::RunResult r = workload::run_scenario(cfg, seed);

  const std::size_t terminal = r.completed() +
                               r.tracker.unschedulable_count() +
                               r.tracker.abandoned_count();
  std::cout << "jobs: " << r.tracker.submitted_count() << " submitted, "
            << r.completed() << " completed, "
            << r.tracker.unschedulable_count() << " unschedulable, "
            << r.tracker.abandoned_count() << " abandoned, " << r.stranded()
            << " stranded\n";
  std::cout << "injected: " << r.faults.lost << " lost, "
            << r.faults.duplicated << " duplicated, " << r.faults.delayed
            << " delayed, " << r.faults.partition_drops
            << " partition drops\n";
  std::cout << "churn: " << r.faults.crashes << " crashes, "
            << r.faults.restarts << " restarts; failsafe recoveries: "
            << r.tracker.total_recoveries() << "\n";

  bool ok = true;
  if (r.stranded() != 0) {
    std::cout << "FAIL: " << r.stranded() << " jobs stranded\n";
    ok = false;
  }
  if (terminal < r.tracker.submitted_count()) {
    std::cout << "FAIL: terminal states (" << terminal
              << ") < submissions (" << r.tracker.submitted_count() << ")\n";
    ok = false;
  }
  // Reconciliation: every injected drop the plane counted must appear in
  // the traffic ledger's faulted tally, and every executed duplication must
  // have produced an extra delivery attempt.
  if (r.traffic.total_faulted() != r.faults.injected_drops()) {
    std::cout << "FAIL: ledger faulted " << r.traffic.total_faulted()
              << " != plane injected " << r.faults.injected_drops() << "\n";
    ok = false;
  }
  if (r.duplicated_messages != r.faults.duplicated) {
    std::cout << "FAIL: network duplicated " << r.duplicated_messages
              << " != plane duplicated " << r.faults.duplicated << "\n";
    ok = false;
  }
  if (r.faults.crashes < r.faults.restarts) {
    std::cout << "FAIL: more restarts than crashes\n";
    ok = false;
  }
  if (!r.tracker.violations().empty()) {
    std::cout << "FAIL: " << r.tracker.violations().size()
              << " lifecycle violations; first: "
              << r.tracker.violations().front() << "\n";
    ok = false;
  }

  std::cout << (ok ? "\nevery job reached a terminal state and the fault "
                     "books balance\n"
                   : "\nunexpected outcome\n");
  return ok ? 0 : 1;
}
