// The simulation engine: builds a grid from a ScenarioConfig, runs it, and
// extracts the metrics the paper's figures are made of.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "audit/auditor.hpp"
#include "common/arena.hpp"
#include "common/counters.hpp"
#include "common/rng.hpp"
#include "core/centralized.hpp"
#include "core/config.hpp"
#include "core/node.hpp"
#include "core/tracker.hpp"
#include "metrics/timeseries.hpp"
#include "overlay/blatant.hpp"
#include "overlay/flooding.hpp"
#include "overlay/topology.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "trace/collector.hpp"
#include "workload/jobgen.hpp"
#include "workload/scenario.hpp"

namespace aria::sim::pdes {
class EventJournal;
struct JournalEntry;
}  // namespace aria::sim::pdes

namespace aria::workload {

/// All sharded-execution state (shard simulators, networks, channels,
/// recorders); defined in engine_pdes.cpp, null unless config.shards > 1.
struct PdesFabric;

/// Everything measured in one simulated run.
struct RunResult {
  std::string scenario_name;
  std::uint64_t seed{0};

  proto::JobTracker tracker;
  sim::TrafficLedger traffic;
  metrics::Series idle_series;        // idle-node count over time
  metrics::Series node_count_series;  // grid size over time (expansion)

  // --- plane counters (common/counters.hpp; docs/counters.md) -----------
  /// The fault table lives in its owner's struct (r.faults.lost, ...); the
  /// healing and node tables are flat fields of the same names, summed (or
  /// maxed) over every node.
  sim::FaultPlane::Counters faults{};
  ARIA_HEALING_COUNTERS(ARIA_COUNTER_FIELD)
  ARIA_NODE_COUNTERS(ARIA_COUNTER_FIELD)

  // --- fault plane (zero / false on fault-free runs) --------------------
  bool faults_enabled{false};
  std::uint64_t faulted_messages{0};     // injected loss + partition drops
  std::uint64_t duplicated_messages{0};  // extra deliveries injected
  /// Submissions that found no alive node to accept them (whole-grid
  /// outage); these jobs never reach the tracker, so stranded() adds them.
  std::uint64_t submissions_dropped{0};

  // --- self-healing overlay plane (all zero when healing is off) --------
  bool healing_enabled{false};
  /// Metric samples at which the live-node subgraph was disconnected.
  std::uint64_t live_disconnected_samples{0};
  /// Longest consecutive disconnected streak, in minutes (an upper bound on
  /// the worst time-to-heal, quantized to the sampling period).
  double max_heal_minutes{0.0};
  bool live_subgraph_connected_at_end{true};

  // --- overload plane (all empty when overload is off) ------------------
  bool overload_enabled{false};
  metrics::Series queue_depth_series;    // max queue depth across nodes
  metrics::Series shed_series;           // cumulative sheds over time
  metrics::Series reject_series;         // cumulative REJECTs over time

  // --- hierarchy plane (all zero when hierarchy is off) -----------------
  bool hierarchy_enabled{false};
  /// Resolved region count R (the engine writes auto-sizing back).
  std::size_t region_count{0};
  /// Wire split by the sender/receiver region partition (see
  /// sim::Network::set_region_count).
  std::uint64_t intra_region_messages{0};
  std::uint64_t cross_region_messages{0};
  std::uint64_t intra_region_bytes{0};
  std::uint64_t cross_region_bytes{0};

  // --- adversary + defense planes ---------------------------------------
  bool adversaries_enabled{false};
  /// Nodes the stateless designation hash marked as adversaries (over the
  /// final grid, expansion joiners included).
  std::size_t adversary_count{0};
  bool defense_enabled{false};

  // --- audit plane (all empty when auditing is off) ---------------------
  bool audit_enabled{false};
  /// Total invariant violations detected (docs/audit.md). Must be 0 on
  /// every run — aria_sim exits nonzero otherwise.
  std::uint64_t audit_violations{0};
  /// The first AuditConfig::max_recorded violations, in detection order.
  std::vector<audit::Violation> violations{};
  /// Violation totals per kind, name-sorted (feeds sweep reports).
  std::map<std::string, std::uint64_t> audit_by_kind{};

  // --- tracing plane (null when tracing is off) -------------------------
  bool trace_enabled{false};
  /// The collected stream (job lifecycle + sampled messages); feed to
  /// trace::export_jsonl / export_chrome / critical_paths.
  std::shared_ptr<const trace::TraceBuffer> trace{};

  // --- sharded execution (docs/pdes.md; defaults when shards == 1) ------
  /// Shard count the run executed with (1 = plain sequential kernel).
  std::size_t shards{1};
  std::uint64_t pdes_windows{0};         // shard windows (all kinds)
  std::uint64_t pdes_inline_windows{0};  // ...one-shard, run without barrier
  std::uint64_t pdes_engine_phases{0};   // serial engine rendezvous
  std::uint64_t pdes_engine_events{0};   // events fired in engine phases
  std::uint64_t pdes_shard_events{0};    // events fired inside windows
  std::uint64_t pdes_messages_forwarded{0};  // cross-shard channel hops
  std::uint64_t pdes_channel_overflows{0};   // ring spills (cap sizing hint)

  std::size_t final_node_count{0};
  std::size_t overlay_links{0};
  double overlay_avg_degree{0.0};
  double overlay_avg_path_length{0.0};
  std::uint64_t events_fired{0};
  double wall_seconds{0.0};

  // --- derived job metrics (over completed jobs) -----------------------
  std::size_t completed() const { return tracker.completed_count(); }
  double mean_completion_minutes() const;
  double mean_waiting_minutes() const;
  double mean_execution_minutes() const;

  // --- deadline metrics (deadline scenarios) ----------------------------
  std::size_t deadline_jobs() const;
  std::size_t missed_deadlines() const;
  /// Mean slack (deadline - completion) over jobs that met their deadline,
  /// in minutes ("average lateness" in the paper's Fig. 4 terminology).
  double mean_met_slack_minutes() const;
  /// Mean overrun past the deadline over jobs that missed, in minutes.
  double mean_missed_time_minutes() const;

  /// Cumulative completed-jobs curve (Fig. 1), bucketed.
  metrics::Series completed_series(Duration bucket,
                                   TimePoint horizon) const;

  /// Total bytes per message type / per node, in MiB.
  double traffic_mib(const std::string& type) const;
  double traffic_mib_total() const;
  /// Healing-plane control traffic (PING + PONG + LINK_REQ + LINK_ACK).
  double probe_traffic_mib() const;
  /// Hierarchy-plane control traffic (REGION_LOAD + REGION_DIGEST +
  /// REGION_QUERY + REGION_FWD).
  double region_traffic_mib() const;

  /// Load-balance over executed-job counts per node (paper abstract:
  /// "improving the overall performance in terms of ... load-balancing").
  metrics::LoadBalance execution_balance() const;
  /// Load-balance over busy seconds (sum of actual running times) per node.
  metrics::LoadBalance busy_time_balance() const;

  /// Submitted jobs with no terminal state (completed / unschedulable /
  /// abandoned) plus submissions dropped before reaching any node. Must be
  /// 0 even under faults — the no-stranded-jobs guarantee the failsafe
  /// provides.
  std::size_t stranded() const {
    return tracker.stranded_count() +
           static_cast<std::size_t>(submissions_dropped);
  }
};

/// One grid simulation. Construct, optionally inspect/customize after
/// build(), then run(). A GridSimulation is single-use.
class GridSimulation {
 public:
  GridSimulation(ScenarioConfig config, std::uint64_t seed);
  ~GridSimulation();
  GridSimulation(const GridSimulation&) = delete;
  GridSimulation& operator=(const GridSimulation&) = delete;

  /// Constructs overlay, nodes and schedules the workload. Idempotent.
  void build();

  /// build() + run to the horizon + collect results.
  RunResult run();

  // --- component access (valid after build()) ---------------------------
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  overlay::Topology& topology() { return topo_; }
  proto::JobTracker& tracker() { return tracker_; }
  const ScenarioConfig& config() const { return config_; }

  std::size_t node_count() const { return nodes_.size(); }
  proto::AriaNode* node(NodeId id);
  std::vector<proto::AriaNode*> all_nodes();

  /// Nodes that are neither executing nor holding queued jobs. O(1): nodes
  /// maintain a shared gauge on every queue/executor transition (one gauge
  /// per shard in sharded mode — summed here, only ever read from the
  /// serial engine phase).
  std::size_t idle_count() const {
    return idle_nodes_ + (fabric_ ? pdes_idle_sum() : 0);
  }

  /// O(N) recount of idle_count(); debug cross-check for tests.
  std::size_t idle_count_scan() const;

  /// The canonical send journal, merged and canonically sorted — empty
  /// unless config.pdes_journal was set. Works in both execution modes;
  /// feed sequential + sharded journals to sim::pdes::first_divergence to
  /// name the first divergent event (docs/pdes.md "Divergence triage").
  std::vector<sim::pdes::JournalEntry> journal_entries() const;

 private:
  void build_overlay();
  void build_nodes();
  void spawn_node();  // one node: profile + scheduler + protocol engine
  void schedule_workload();
  void schedule_expansion();
  void expansion_step(const ScenarioConfig::Expansion& plan, Rng join_rng);
  void schedule_maintenance();
  void schedule_sampling();
  bool live_subgraph_connected() const;
  void sample_live_connectivity();
  void sample_overload();
  void schedule_churn();
  void schedule_targeted_churn();
  void churn_crash(NodeId id, sim::FaultConfig::Churn plan, Rng rng,
                   bool targeted = false);
  void churn_restart(NodeId id, sim::FaultConfig::Churn plan, Rng rng,
                     bool targeted = false);
  void submit_one(std::size_t index);

  // --- sharded execution (engine_pdes.cpp) -------------------------------
  /// Rejects plane combinations the sharded executor cannot run (throws
  /// std::invalid_argument), then constructs fabric_ when shards > 1.
  void build_shard_fabric();
  /// Redirects a node's context at its shard's simulator/network/relay/
  /// recorder/idle gauge; no-op semantics when fabric_ is null.
  void fill_shard_context(proto::NodeContext& ctx, NodeId id);
  /// Runs the conservative executor to the horizon, replays the recorded
  /// observer logs into tracker_, folds shard meters into net_/faults_, and
  /// returns the number of events fired on the shard simulators.
  std::uint64_t run_sharded();
  std::size_t pdes_idle_sum() const;
  void fill_pdes_result(RunResult& r) const;

  ScenarioConfig config_;
  std::uint64_t seed_;
  Rng rng_;

  // Order matters: node_arena_ must be destroyed before net_/sim_ (node
  // dtors detach from the network and cancel simulator events).
  sim::Simulator sim_;
  overlay::Topology topo_;
  /// Null on fault-free runs; must outlive net_ (which holds a raw pointer).
  std::unique_ptr<sim::FaultPlane> faults_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<overlay::FloodRelay> relay_;
  std::unique_ptr<overlay::BlatantMaintainer> maintainer_;
  grid::ErtErrorModel ert_error_;
  proto::JobTracker tracker_;
  /// Null unless config_.trace.enabled; decorates tracker_ as the nodes'
  /// observer and taps net_ for sampled wire messages.
  std::unique_ptr<trace::TraceCollector> tracer_;
  /// Null unless config_.audit.enabled; outermost observer decorator
  /// (auditor -> tracer -> tracker) and the network tap (sample_every 1,
  /// re-sampling forwards to the tracer). See docs/audit.md.
  std::unique_ptr<audit::AuditCollector> auditor_;
  std::unique_ptr<JobGenerator> jobgen_;
  /// Sequential-mode send journal (config_.pdes_journal, shards == 1);
  /// sharded runs keep per-shard journals inside fabric_ instead.
  std::unique_ptr<sim::pdes::EventJournal> journal_;
  /// Sharded-execution state (null when shards == 1). Declared before the
  /// node arena: node destructors detach from their shard network and
  /// cancel events on their shard simulator.
  std::unique_ptr<PdesFabric> fabric_;
  Rng submit_rng_{0};
  // Declared before the arena: nodes decrement the gauge in their destructor.
  std::size_t idle_nodes_{0};
  /// Arena-backed node storage (common/arena.hpp): one placement-new per
  /// node into contiguous slabs with stable addresses — AriaNode pins its
  /// own address inside scheduled lambdas, and at 10k+ nodes the slabs
  /// avoid a heap allocation and a pointer chase per node. nodes_ is the
  /// id-indexed view over the arena.
  SlabArena<proto::AriaNode> node_arena_;
  std::vector<proto::AriaNode*> nodes_;

  metrics::Series idle_series_;
  metrics::Series node_count_series_;
  // Overload-plane sampling (only fed when the plane is on).
  metrics::Series queue_depth_series_;
  metrics::Series shed_series_;
  metrics::Series reject_series_;
  std::uint64_t submissions_dropped_{0};
  // Healing-plane sampling state (live-subgraph connectivity over time).
  std::uint64_t live_disconnected_samples_{0};
  std::uint64_t disconnect_streak_{0};
  std::uint64_t max_disconnect_streak_{0};
  bool built_{false};
};

/// Convenience: run `scenario` once with `seed`.
RunResult run_scenario(const ScenarioConfig& scenario, std::uint64_t seed);

/// Calls f(entry, value) for every table counter of `r`, in
/// counters::kTable order; `value` is a mutable reference when `r` is.
template <class R, class F>
void for_each_counter(R& r, F&& f) {
  const counters::Counter* entry = counters::kTable;
#define ARIA_VISIT_FAULT(plane, name, agg, doc) f(*entry++, r.faults.name);
#define ARIA_VISIT(plane, name, agg, doc) f(*entry++, r.name);
  ARIA_FAULT_COUNTERS(ARIA_VISIT_FAULT)
  ARIA_HEALING_COUNTERS(ARIA_VISIT)
  ARIA_NODE_COUNTERS(ARIA_VISIT)
#undef ARIA_VISIT
#undef ARIA_VISIT_FAULT
}

/// Every table counter of `r`, in counters::kTable order.
inline counters::Values counter_values(const RunResult& r) {
  counters::Values values{};
  std::size_t i = 0;
  for_each_counter(r, [&](const counters::Counter&, std::uint64_t v) {
    values[i++] = v;
  });
  return values;
}

/// Canonical textual digest of every deterministic field of a RunResult —
/// per-job lifecycle lines sorted by job id, per-type traffic, plane
/// counters, series checksums; floats rendered as hexfloat so equality is
/// bit-equality. Excludes wall_seconds and the pdes_* telemetry (which
/// legitimately differ between execution modes). Byte-equal fingerprints
/// define the sharded determinism contract (docs/pdes.md).
std::string run_fingerprint(const RunResult& r);

struct PdesEquivalence {
  bool identical{false};
  /// On divergence: the first mismatching journal event (or fingerprint
  /// line); on success, a one-line summary of what was compared.
  std::string detail;
};

/// Runs `scenario` at `seed` twice — sequential oracle, then with `shards`
/// shards — with send journals enabled, and compares the full result
/// fingerprints plus the canonical event journals (docs/pdes.md
/// "Divergence triage").
PdesEquivalence verify_sharded_equivalence(ScenarioConfig scenario,
                                           std::size_t shards,
                                           std::uint64_t seed);

}  // namespace aria::workload
