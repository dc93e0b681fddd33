// Sharded-execution side of GridSimulation (docs/pdes.md).
//
// Everything shards-specific lives here: the PdesFabric (per-shard
// simulators, networks, fault planes, relays, channels, recorders), the
// context redirection that puts each node on its shard, and the run path
// that drives the conservative ShardExecutor and then folds the per-shard
// state back into the engine-side objects so RunResult harvesting is
// identical in both execution modes.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/latency.hpp"
#include "sim/pdes/channel.hpp"
#include "sim/pdes/executor.hpp"
#include "sim/pdes/journal.hpp"
#include "sim/pdes/shard_map.hpp"
#include "workload/engine.hpp"
#include "workload/replay.hpp"

namespace aria::workload {

struct PdesFabric {
  sim::pdes::ShardMap map;
  sim::pdes::EngineStamp stamp;
  // Declaration order is destruction-critical: networks reference their
  // simulator and fault plane, routes reference the channel matrix — each
  // must be destroyed before what it points at.
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<sim::FaultPlane>> faults;
  std::unique_ptr<sim::pdes::ChannelMatrix> channels;
  std::vector<std::unique_ptr<sim::pdes::ShardRoute>> routes;
  std::vector<std::unique_ptr<sim::Network>> nets;
  std::vector<std::unique_ptr<overlay::FloodRelay>> relays;
  std::vector<std::unique_ptr<RecordingObserver>> recorders;
  std::vector<std::unique_ptr<sim::pdes::EventJournal>> journals;
  /// Per-shard idle gauges (sized once, addresses stable); summed by
  /// GridSimulation::idle_count() from the serial engine phase only.
  std::vector<std::size_t> idle;
  sim::pdes::ShardExecutor::Stats stats;
};

namespace {

/// Refuses plane combinations the executor cannot host (docs/pdes.md
/// "Gated planes") before anything runs: healing mutates the shared
/// topology from node code inside windows, tracing and auditing funnel
/// every shard's messages into one collector, and expansion adds nodes
/// (and topology links) mid-run.
void require_shardable(const ScenarioConfig& config) {
  if (config.shards == 0) {
    throw std::invalid_argument("shards must be >= 1");
  }
  if (config.shards == 1) return;
  if (config.aria.healing.enabled) {
    throw std::invalid_argument("shards > 1 is incompatible with the healing "
                                "plane (docs/pdes.md)");
  }
  if (config.trace.enabled || config.audit.enabled) {
    throw std::invalid_argument("shards > 1 is incompatible with tracing and "
                                "auditing (docs/pdes.md)");
  }
  if (config.expansion) {
    throw std::invalid_argument("shards > 1 is incompatible with network "
                                "expansion (docs/pdes.md)");
  }
}

}  // namespace

// Constructor and destructor live here — not in engine.cpp — so
// unique_ptr<PdesFabric> / unique_ptr<EventJournal> can sit behind
// incomplete types in the header (both need the complete type for member
// destruction).
GridSimulation::GridSimulation(ScenarioConfig config, std::uint64_t seed)
    : config_{std::move(config)},
      seed_{seed},
      rng_{seed},
      ert_error_{config_.ert_error},
      submit_rng_{0},
      idle_series_{"idle"},
      node_count_series_{"nodes"},
      queue_depth_series_{"queue-depth"},
      shed_series_{"sheds"},
      reject_series_{"rejects"} {}

GridSimulation::~GridSimulation() = default;

void GridSimulation::build_shard_fabric() {
  require_shardable(config_);
  if (config_.shards == 1) {
    if (config_.pdes_journal) {
      journal_ = std::make_unique<sim::pdes::EventJournal>();
      taps_.add(journal_.get(), 1);
    }
    return;
  }

  fabric_ = std::make_unique<PdesFabric>();
  PdesFabric& f = *fabric_;
  const std::size_t n = config_.shards;
  f.map.shards = n;
  f.map.region_count =
      config_.aria.hierarchy.enabled ? config_.aria.hierarchy.region_count : 0;
  f.channels = std::make_unique<sim::pdes::ChannelMatrix>(n);
  f.idle.assign(n, 0);
  f.sims.reserve(n);
  f.nets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.sims.push_back(std::make_unique<sim::Simulator>());
    // Mirror the engine network's construction exactly — same latency
    // params, same base RNG fork. Per-sender streams are forked from the
    // base without mutating it, so a sender draws the same jitter sequence
    // whichever shard network it lives on (docs/pdes.md "Determinism
    // contract").
    auto net = std::make_unique<sim::Network>(
        *f.sims.back(),
        std::make_unique<sim::GeoLatencyModel>(
            sim::GeoLatencyModel::Params{.seed = seed_ ^ 0xA51C17ULL}),
        rng_.fork(1));
    if (config_.aria.hierarchy.enabled) {
      net->set_region_count(config_.aria.hierarchy.region_count);
    }
    if (faults_) {
      // Per-shard verdict planes built from the engine plane's already
      // run-mixed config: verdict streams are per-sender forks of the same
      // seed, so they too are shard-placement-invariant. Message-fault
      // counters accumulate here and are absorbed after the run; the
      // engine plane alone counts churn crashes/restarts.
      f.faults.push_back(
          std::make_unique<sim::FaultPlane>(faults_->config()));
      net->set_fault_plane(f.faults.back().get());
    }
    f.routes.push_back(
        std::make_unique<sim::pdes::ShardRoute>(f.map, i, *f.channels));
    net->set_remote_route(f.routes.back().get());
    if (config_.pdes_journal) {
      f.journals.push_back(std::make_unique<sim::pdes::EventJournal>());
      net->set_tap(f.journals.back().get(), 1);
    }
    f.nets.push_back(std::move(net));
    // Per-shard relays with the same fork as the sequential relay_: pick
    // streams are per-node forks, and dedup state is per-node, so each
    // node consulting its own shard's relay sees sequential behaviour.
    f.relays.push_back(
        std::make_unique<overlay::FloodRelay>(topo_, rng_.fork(2)));
    f.recorders.push_back(std::make_unique<RecordingObserver>(&f.stamp));
  }
}

void GridSimulation::fill_shard_context(proto::NodeContext& ctx, NodeId id) {
  PdesFabric& f = *fabric_;
  const std::size_t s = f.map.shard_of(id);
  ctx.sim = f.sims[s].get();
  ctx.net = f.nets[s].get();
  ctx.relay = f.relays[s].get();
  ctx.observer = f.recorders[s].get();
  ctx.idle_gauge = &f.idle[s];
}

std::size_t GridSimulation::pdes_idle_sum() const {
  std::size_t total = 0;
  for (const std::size_t g : fabric_->idle) total += g;
  return total;
}

std::uint64_t GridSimulation::run_sharded() {
  PdesFabric& f = *fabric_;
  sim::pdes::ShardExecutor::Config cfg;
  cfg.lookahead = net_->latency_model().min_latency();
  cfg.horizon = TimePoint::origin() + config_.horizon;
  cfg.stamp = &f.stamp;
  std::vector<sim::Simulator*> sims;
  std::vector<sim::Network*> nets;
  sims.reserve(f.sims.size());
  nets.reserve(f.nets.size());
  for (const auto& s : f.sims) sims.push_back(s.get());
  for (const auto& n : f.nets) nets.push_back(n.get());
  sim::pdes::ShardExecutor exec{std::move(sims), sim_, *f.channels,
                                std::move(nets), cfg};
  f.stats = exec.run();

  // Replay the per-shard observer logs into the engine's observer list (the
  // tracker alone: tracing and auditing are gated) in canonical order, on
  // this thread — the tracker never sees concurrent events.
  std::vector<const RecordingObserver*> recorders;
  recorders.reserve(f.recorders.size());
  for (const auto& r : f.recorders) recorders.push_back(r.get());
  RecordingObserver::replay(recorders, observers_);

  // Fold shard meters into the engine-side objects so harvesting below
  // reads one place in both execution modes.
  for (const auto& n : f.nets) net_->absorb_meters(*n);
  if (faults_) {
    for (const auto& p : f.faults) faults_->absorb_counters(p->counters());
  }
  return f.stats.shard_events;
}

void GridSimulation::fill_pdes_result(RunResult& r) const {
  r.shards = config_.shards;
  if (!fabric_) return;
  r.pdes_windows = fabric_->stats.windows;
  r.pdes_inline_windows = fabric_->stats.inline_windows;
  r.pdes_engine_phases = fabric_->stats.engine_phases;
  r.pdes_engine_events = fabric_->stats.engine_events;
  r.pdes_shard_events = fabric_->stats.shard_events;
  r.pdes_messages_forwarded = fabric_->stats.messages_forwarded;
  r.pdes_channel_overflows = fabric_->channels->total_overflows();
}

namespace {

// Hexfloat rendering: two doubles fingerprint equal iff they are
// bit-identical, which is the contract (no tolerance comparisons).
std::string fp_double(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::string fp_opt_time(const std::optional<TimePoint>& t) {
  return t ? std::to_string(t->count_micros()) : std::string{"-"};
}

void fp_series(std::ostream& os, const metrics::Series& s) {
  double sum = 0.0;
  for (const auto& p : s.points()) sum += p.value;
  os << "series " << s.label() << " n=" << s.size() << " sum=" << fp_double(sum)
     << " last=" << fp_double(s.points().empty() ? 0.0 : s.points().back().value)
     << "\n";
}

// Returns the first line present in one digest but not the other (both are
// line-oriented); used when fingerprints differ but the wire journals agree
// (i.e. the divergence is in replay/harvest, not in event execution).
std::string first_fingerprint_delta(const std::string& a, const std::string& b) {
  std::istringstream sa{a};
  std::istringstream sb{b};
  std::string la;
  std::string lb;
  std::size_t line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(digests equal?)";
    if (ga != gb) {
      return "line " + std::to_string(line) + ": " +
             (ga ? "sequential has extra '" + la + "'"
                 : "sharded has extra '" + lb + "'");
    }
    if (la != lb) {
      return "line " + std::to_string(line) + ": sequential '" + la +
             "' vs sharded '" + lb + "'";
    }
    ++line;
  }
}

}  // namespace

std::string run_fingerprint(const RunResult& r) {
  std::ostringstream os;
  os << "scenario " << r.scenario_name << " seed " << r.seed << "\n";
  os << "events_fired " << r.events_fired << "\n";
  os << "final_node_count " << r.final_node_count << "\n";
  os << "overlay " << r.overlay_links << " " << fp_double(r.overlay_avg_degree)
     << " " << fp_double(r.overlay_avg_path_length) << "\n";

  // Jobs: records() is an unordered_map, so sort by job id for a canonical
  // order. Every lifecycle field participates.
  std::vector<const proto::JobRecord*> jobs;
  jobs.reserve(r.tracker.records().size());
  for (const auto& [id, rec] : r.tracker.records()) jobs.push_back(&rec);
  std::sort(jobs.begin(), jobs.end(),
            [](const proto::JobRecord* a, const proto::JobRecord* b) {
              return a->spec.id.to_string() < b->spec.id.to_string();
            });
  os << "jobs " << jobs.size() << "\n";
  for (const proto::JobRecord* j : jobs) {
    os << "job " << j->spec.id.to_string() << " ert "
       << j->spec.ert.count_micros() << " deadline ";
    if (j->spec.deadline) {
      os << j->spec.deadline->count_micros();
    } else {
      os << "-";
    }
    os << " init " << j->initiator.value() << " sub "
       << j->submitted.count_micros() << " asg [";
    for (const auto& [node, at] : j->assignments) {
      os << node.value() << "@" << at.count_micros() << ",";
    }
    os << "] start " << fp_opt_time(j->started) << " exec "
       << j->executor.value() << " done " << fp_opt_time(j->completed)
       << " art " << j->art.count_micros() << " retries " << j->retries
       << " recov " << j->recoveries << " sheds " << j->sheds << " rejects "
       << j->rejects << " unsched " << j->unschedulable << " abandoned "
       << j->abandoned << " execs " << j->executions << "\n";
  }
  os << "lifecycle_violations " << r.tracker.violations().size() << "\n";
  for (const std::string& v : r.tracker.violations()) {
    os << "violation " << v << "\n";
  }

  // Traffic: by_type() is already name-sorted.
  const auto total = r.traffic.total();
  os << "traffic_total " << total.messages << " " << total.bytes << "\n";
  for (const auto& [name, e] : r.traffic.by_type()) {
    os << "traffic " << name << " " << e.messages << " " << e.bytes << "\n";
  }

  fp_series(os, r.idle_series);
  fp_series(os, r.node_count_series);
  fp_series(os, r.queue_depth_series);
  fp_series(os, r.shed_series);
  fp_series(os, r.reject_series);

  os << "planes faults " << r.faults_enabled << " healing "
     << r.healing_enabled << " overload " << r.overload_enabled
     << " hierarchy " << r.hierarchy_enabled << " adversaries "
     << r.adversaries_enabled << " defenses " << r.defense_enabled << "\n";
  const counters::Values values = counter_values(r);
  for (std::size_t i = 0; i < counters::kCount; ++i) {
    os << "counter " << counters::kTable[i].name << " " << values[i] << "\n";
  }
  os << "connected_at_end " << r.live_subgraph_connected_at_end
     << " region_count " << r.region_count << "\n";
  os << "adversary_count " << r.adversary_count << "\n";
  return os.str();
}

PdesEquivalence verify_sharded_equivalence(ScenarioConfig scenario,
                                           std::size_t shards,
                                           std::uint64_t seed) {
  if (shards < 2) {
    throw std::invalid_argument(
        "verify_sharded_equivalence needs shards >= 2 (the sequential run is "
        "the oracle)");
  }
  scenario.pdes_journal = true;
  scenario.shards = shards;
  require_shardable(scenario);  // refuse before the sequential oracle runs

  scenario.shards = 1;
  GridSimulation sequential{scenario, seed};
  const RunResult seq_result = sequential.run();
  const auto seq_journal = sequential.journal_entries();
  const std::string seq_fp = run_fingerprint(seq_result);

  scenario.shards = shards;
  GridSimulation sharded{scenario, seed};
  const RunResult shard_result = sharded.run();
  const auto shard_journal = sharded.journal_entries();
  const std::string shard_fp = run_fingerprint(shard_result);

  PdesEquivalence eq;
  const auto div = sim::pdes::first_divergence(seq_journal, shard_journal);
  if (seq_fp == shard_fp && !div) {
    eq.identical = true;
    std::ostringstream os;
    os << "identical: " << seq_journal.size() << " journaled sends, "
       << seq_result.tracker.records().size() << " jobs, "
       << seq_result.events_fired << " events (sharded run: "
       << shard_result.pdes_windows << " windows, "
       << shard_result.pdes_engine_phases << " engine phases, "
       << shard_result.pdes_messages_forwarded << " cross-shard messages)";
    eq.detail = os.str();
    return eq;
  }
  eq.identical = false;
  if (div) {
    eq.detail = "journal divergence — " + div->description;
  } else {
    // Every wire event matched; the replay/harvest path disagreed.
    eq.detail = "journals identical but result fingerprints differ — " +
                first_fingerprint_delta(seq_fp, shard_fp);
  }
  return eq;
}

std::vector<sim::pdes::JournalEntry> GridSimulation::journal_entries() const {
  std::vector<const sim::pdes::EventJournal*> journals;
  if (fabric_) {
    journals.reserve(fabric_->journals.size());
    for (const auto& j : fabric_->journals) journals.push_back(j.get());
  } else if (journal_) {
    journals.push_back(journal_.get());
  }
  return sim::pdes::merge_journals(journals);
}

}  // namespace aria::workload
