#include "workload/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/logging.hpp"
#include "grid/profile_gen.hpp"
#include "overlay/bootstrap.hpp"
#include "overlay/region.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"

namespace aria::workload {

// ---------------------------------------------------------------------------
// RunResult derived metrics
// ---------------------------------------------------------------------------

namespace {
template <typename Fn>
double mean_over_completed(const proto::JobTracker& tracker, Fn fn) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (!r.done()) continue;
    sum += fn(r);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}
}  // namespace

double RunResult::mean_completion_minutes() const {
  return mean_over_completed(tracker, [](const proto::JobRecord& r) {
    return r.completion_time().to_minutes();
  });
}

double RunResult::mean_waiting_minutes() const {
  return mean_over_completed(tracker, [](const proto::JobRecord& r) {
    return r.waiting_time().to_minutes();
  });
}

double RunResult::mean_execution_minutes() const {
  return mean_over_completed(tracker, [](const proto::JobRecord& r) {
    return r.execution_time().to_minutes();
  });
}

std::size_t RunResult::deadline_jobs() const {
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (r.has_deadline()) ++n;
  }
  return n;
}

std::size_t RunResult::missed_deadlines() const {
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (r.missed_deadline()) ++n;
    // A deadline job that never completed within the horizon is a miss too.
    if (r.has_deadline() && !r.done()) ++n;
  }
  return n;
}

double RunResult::mean_met_slack_minutes() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (!r.done() || !r.has_deadline() || r.missed_deadline()) continue;
    sum += r.deadline_slack().to_minutes();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double RunResult::mean_missed_time_minutes() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, r] : tracker.records()) {
    if (!r.done() || !r.missed_deadline()) continue;
    sum += -r.deadline_slack().to_minutes();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

metrics::Series RunResult::completed_series(Duration bucket,
                                            TimePoint horizon) const {
  std::vector<TimePoint> completions;
  completions.reserve(tracker.records().size());
  for (const auto& [id, r] : tracker.records()) {
    if (r.done()) completions.push_back(*r.completed);
  }
  return metrics::cumulative_count(completions, bucket, horizon,
                                   scenario_name);
}

double RunResult::traffic_mib(const std::string& type) const {
  return static_cast<double>(traffic.of(type).bytes) / (1024.0 * 1024.0);
}

double RunResult::traffic_mib_total() const {
  return static_cast<double>(traffic.total().bytes) / (1024.0 * 1024.0);
}

double RunResult::probe_traffic_mib() const {
  return traffic_mib(proto::kPingType) + traffic_mib(proto::kPongType) +
         traffic_mib(proto::kLinkReqType) + traffic_mib(proto::kLinkAckType);
}

double RunResult::region_traffic_mib() const {
  return traffic_mib(proto::kRegionLoadType) +
         traffic_mib(proto::kRegionDigestType) +
         traffic_mib(proto::kRegionQueryType) +
         traffic_mib(proto::kRegionFwdType);
}

metrics::LoadBalance RunResult::execution_balance() const {
  std::vector<double> per_node(final_node_count, 0.0);
  for (const auto& [id, r] : tracker.records()) {
    if (r.done() && r.executor.index() < per_node.size()) {
      per_node[r.executor.index()] += 1.0;
    }
  }
  return metrics::load_balance(per_node);
}

metrics::LoadBalance RunResult::busy_time_balance() const {
  std::vector<double> per_node(final_node_count, 0.0);
  for (const auto& [id, r] : tracker.records()) {
    if (r.done() && r.executor.index() < per_node.size()) {
      per_node[r.executor.index()] += r.art.to_seconds();
    }
  }
  return metrics::load_balance(per_node);
}

// ---------------------------------------------------------------------------
// GridSimulation
// ---------------------------------------------------------------------------

proto::AriaNode* GridSimulation::node(NodeId id) {
  const std::size_t i = id.index();
  return i < nodes_.size() ? nodes_[i] : nullptr;
}

std::vector<proto::AriaNode*> GridSimulation::all_nodes() { return nodes_; }

std::size_t GridSimulation::idle_count_scan() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node->idle()) ++n;
  }
  return n;
}

void GridSimulation::build() {
  if (built_) return;
  built_ = true;

  // Resolve the region partition up front: nodes read region_count through
  // their shared config pointer, so auto-sizing must be written back before
  // the first node is constructed. Expansion joiners keep the partition
  // resolved against the initial grid (region_of is id mod R — a fixed R
  // keeps every already-built digest table and flood scope valid).
  if (config_.aria.hierarchy.enabled) {
    using H = proto::HierarchyParams;
    auto& h = config_.aria.hierarchy;
    h.region_count = overlay::resolve_region_count(
        h.region_count, config_.node_count, H::kTargetRegionSize,
        H::kAggStandby);
  }

  net_ = std::make_unique<sim::Network>(
      sim_,
      std::make_unique<sim::GeoLatencyModel>(
          sim::GeoLatencyModel::Params{.seed = seed_ ^ 0xA51C17ULL}),
      rng_.fork(1));
  if (config_.aria.hierarchy.enabled) {
    net_->set_region_count(config_.aria.hierarchy.region_count);
  }
  if (config_.faults.enabled) {
    // Mix the per-run seed into the fault stream: repeated runs of the same
    // scenario see different fault schedules, while any (run seed, fault
    // seed) pair replays exactly. The stream stays disjoint from the main
    // RNG tree, so enabling the plane with all rates at zero perturbs
    // nothing.
    sim::FaultConfig fc = config_.faults;
    fc.seed = fc.seed ^ (seed_ * 0x9E3779B97F4A7C15ULL);
    // The adversary designation hash gets its own seed: by default it is
    // derived from the (already run-mixed) fault seed so repeated runs cast
    // different nodes, while an explicit --adversary-seed pins the cast
    // across scenarios for A/B comparisons.
    if (fc.adversary && fc.adversary->seed == 0) {
      fc.adversary->seed = fc.seed ^ 0xADC0DEULL;
    }
    // Region-targeted faults (region partitions, role-targeted churn) need
    // the resolved R; with the hierarchy off there are no regions or roles
    // to aim at and both modes stay inert.
    fc.region_count = config_.aria.hierarchy.enabled
                          ? static_cast<std::uint32_t>(
                                config_.aria.hierarchy.region_count)
                          : 0u;
    faults_ = std::make_unique<sim::FaultPlane>(fc);
    net_->set_fault_plane(faults_.get());
  }
  // Flat subscriber lists (docs/audit.md): the tracker, then the tracer
  // and the auditor, each seeing every event; on the wire each tap samples
  // with its own counter and draws no RNG, so no subscriber perturbs the
  // simulation or what another subscriber records.
  observers_.add(&tracker_);
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<trace::TraceCollector>(config_.trace);
    observers_.add(tracer_.get());
    taps_.add(tracer_.get(), config_.trace.message_sample_every);
  }
  if (config_.audit.enabled) {
    audit::AuditContext actx;
    actx.node_count = config_.expansion
                          ? std::max(config_.node_count,
                                     config_.expansion->target_node_count)
                          : config_.node_count;
    actx.region_count = config_.aria.hierarchy.enabled
                            ? static_cast<std::uint32_t>(
                                  config_.aria.hierarchy.region_count)
                            : 0u;
    actx.failsafe_max_recoveries =
        config_.aria.failsafe ? config_.aria.failsafe_max_recoveries : 0;
    if (config_.aria.defense.enabled) {
      actx.hedge_budget = proto::DefenseParams::kHedgeBudget;
      actx.reputation_alpha = proto::DefenseParams::kReputationAlpha;
    }
    if (faults_ && faults_->config().adversary) {
      // The fault plane outlives the auditor (declared first in the
      // engine), so capturing it by pointer is safe; the predicate lets the
      // auditor tell an injected lie from a protocol bug.
      const sim::FaultPlane* fp = faults_.get();
      actx.expected_adversary = [fp](NodeId id) {
        return fp->adversary_role(id).has_value();
      };
    }
    auditor_ = std::make_unique<audit::AuditCollector>(config_.audit, actx);
    observers_.add(auditor_.get());
    taps_.add(auditor_.get(), 1);
  }
  relay_ = std::make_unique<overlay::FloodRelay>(topo_, rng_.fork(2));
  submit_rng_ = rng_.fork(3);
  jobgen_ = std::make_unique<JobGenerator>(config_.jobs, rng_.fork(4));
  // Sharded execution (docs/pdes.md): validates the plane combination,
  // then stands up the per-shard simulators/networks/relays the node
  // contexts below are redirected at. Null fabric when shards == 1, where
  // the send journal (if any) joins taps_ instead.
  build_shard_fabric();
  if (!taps_.empty()) net_->set_tap(&taps_, 1);

  build_overlay();
  build_nodes();
  schedule_workload();
  schedule_expansion();
  schedule_maintenance();
  schedule_sampling();
  schedule_churn();
  schedule_targeted_churn();
}

void GridSimulation::build_overlay() {
  Rng boot_rng = rng_.fork(5);
  if (config_.aria.hierarchy.enabled) {
    // Region-structured bootstrap replaces the overlay family: floods are
    // region-scoped, so the graph must keep every region internally
    // connected. No BlatantMaintainer either — its ants rewire by random
    // walk and would erode region locality faster than any digest refresh.
    using H = proto::HierarchyParams;
    topo_ = overlay::bootstrap_hierarchical(
        config_.node_count, config_.aria.hierarchy.region_count,
        H::kIntraDegree, H::kCrossLinks, boot_rng);
    return;
  }
  using Family = ScenarioConfig::OverlayFamily;
  constexpr auto degree =
      static_cast<std::size_t>(ScenarioConfig::kBootstrapAvgDegree);
  switch (config_.overlay_family) {
    case Family::kBlatant:
      topo_ = overlay::bootstrap_random(
          config_.node_count, ScenarioConfig::kBootstrapAvgDegree, boot_rng);
      maintainer_ = std::make_unique<overlay::BlatantMaintainer>(
          topo_, overlay::BlatantParams{}, rng_.fork(6));
      // Churn-aware ants: crashed machines neither emit ants nor appear on
      // walks. Null-safe (converge() below runs before any node exists) and
      // draw-preserving, so fault-free topologies are unchanged.
      maintainer_->set_liveness([this](NodeId id) {
        const proto::AriaNode* n =
            id.index() < nodes_.size() ? nodes_[id.index()] : nullptr;
        return n == nullptr || !n->crashed();
      });
      // Let the ants reshape the bootstrap graph before traffic starts.
      maintainer_->converge(/*max_rounds=*/40, /*quiet_rounds=*/3);
      break;
    case Family::kRandomRegular:
      topo_ = overlay::bootstrap_regular(config_.node_count, degree, boot_rng);
      break;
    case Family::kSmallWorld:
      topo_ = overlay::bootstrap_small_world(
          config_.node_count, degree, ScenarioConfig::kSmallWorldBeta,
          boot_rng);
      break;
  }
}

void GridSimulation::spawn_node() {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  Rng profile_rng = rng_.fork(100 + id.value());
  grid::NodeProfile profile = grid::random_node_profile(profile_rng);

  const auto& mix = config_.scheduler_mix;
  assert(!mix.empty());
  const auto kind = mix[static_cast<std::size_t>(profile_rng.uniform_int(
      0, static_cast<std::int64_t>(mix.size()) - 1))];

  proto::NodeContext ctx;
  ctx.sim = &sim_;
  ctx.net = net_.get();
  ctx.topo = &topo_;
  ctx.relay = relay_.get();
  ctx.config = &config_.aria;
  ctx.ert_error = &ert_error_;
  ctx.observer = &observers_;
  ctx.idle_gauge = &idle_nodes_;
  if (config_.aria.healing.enabled) ctx.healing_topo = &topo_;
  // Adversary-plane wiring: nodes ask the fault plane for their role at
  // construction (a stateless hash — expansion joiners hash consistently),
  // and the digest sanity clamp needs the final grid size to bound
  // per-region member counts. Null/zero on honest runs, and the node ctor
  // draws no RNG from either, so fault-free streams are untouched.
  ctx.faults = faults_.get();
  ctx.grid_size = config_.expansion
                      ? std::max(config_.node_count,
                                 config_.expansion->target_node_count)
                      : config_.node_count;
  if (fabric_) fill_shard_context(ctx, id);

  std::string vo;
  if (config_.vo_count > 1) {
    vo = "vo" + std::to_string(id.value() % config_.vo_count);
  }
  proto::AriaNode* node =
      node_arena_.emplace(ctx, id, profile, sched::make_scheduler(kind),
                          profile_rng.fork(7), std::move(vo));
  node->start();
  nodes_.push_back(node);
}

void GridSimulation::build_nodes() {
  nodes_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) spawn_node();
}

void GridSimulation::submit_one(std::size_t index) {
  (void)index;
  // Feasibility: at least one currently alive node must match.
  auto feasible = [this](const grid::JobRequirements& req) {
    for (const auto& n : nodes_) {
      if (grid::satisfies(n->profile(), req, n->virtual_org())) return true;
    }
    return false;
  };
  // VO-constrained jobs pick their organization before the feasibility
  // check so requirement draws respect the constraint.
  std::string pinned_vo;
  if (config_.vo_count > 1 && submit_rng_.bernoulli(config_.vo_job_fraction)) {
    pinned_vo = "vo" + std::to_string(submit_rng_.uniform_int(
                           0, static_cast<std::int64_t>(config_.vo_count) - 1));
  }
  auto feasible_in_vo = [&](const grid::JobRequirements& req) {
    grid::JobRequirements pinned = req;
    pinned.virtual_org = pinned_vo;
    return feasible(pinned);
  };
  // Regenerate requirements until >= 1 node in the built grid matches, so
  // every job is schedulable (the paper's completion counts reach 1000; see
  // DESIGN.md).
  grid::JobSpec job = jobgen_->next(sim_.now(), feasible_in_vo);
  job.requirements.virtual_org = pinned_vo;
  auto pick = static_cast<std::size_t>(submit_rng_.uniform_int(
      0, static_cast<std::int64_t>(nodes_.size()) - 1));
  // Users cannot hand a job to a machine that is down: probe forward to the
  // next alive node. On fault-free runs this is a single bool test per
  // submission — no extra RNG draws, so the fault-free stream is untouched.
  for (std::size_t probes = 0; nodes_[pick]->crashed(); ++probes) {
    if (probes >= nodes_.size()) {
      ARIA_WARN << "no alive node to submit job " << job.id.to_string()
                << "; dropping submission";
      ++counters_.submissions_dropped;
      return;
    }
    pick = (pick + 1) % nodes_.size();
  }
  nodes_[pick]->submit(std::move(job));
}

void GridSimulation::schedule_workload() {
  // Storm-free runs keep the exact historical uniform schedule; with a
  // storm, arrival_offsets() compresses the window deterministically (no
  // RNG draws either way).
  const std::vector<Duration> offsets = arrival_offsets(
      config_.job_count, config_.submission_interval, config_.storm);
  for (std::size_t i = 0; i < config_.job_count; ++i) {
    const TimePoint at =
        TimePoint::origin() + config_.submission_start + offsets[i];
    sim_.schedule_at(at, [this, i] { submit_one(i); });
  }
}

void GridSimulation::schedule_expansion() {
  if (!config_.expansion) return;
  const auto plan = *config_.expansion;
  Rng join_rng = rng_.fork(8);
  sim_.schedule_at(TimePoint::origin() + plan.start,
                   [this, plan, join_rng] { expansion_step(plan, join_rng); });
}

// Recursive event chain: add one node, then schedule the next join with a
// jittered interval until the target size is reached. The RNG travels by
// value from step to step so the jitter stream stays one sequence.
void GridSimulation::expansion_step(const ScenarioConfig::Expansion& plan,
                                    Rng join_rng) {
  if (nodes_.size() >= plan.target_node_count) return;
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  constexpr std::size_t contacts = ScenarioConfig::Expansion::kJoinContacts;
  if (config_.aria.hierarchy.enabled) {
    overlay::join_node_in_region(topo_, id, contacts,
                                 config_.aria.hierarchy.region_count, join_rng);
  } else {
    overlay::join_node(topo_, id, contacts, join_rng);
  }
  spawn_node();
  const Duration gap = join_rng.uniform_duration(
      plan.mean_interval / 2, plan.mean_interval + plan.mean_interval / 2);
  sim_.schedule_after(
      gap, [this, plan, join_rng] { expansion_step(plan, join_rng); });
}

// Churn: each selected node flips between up and down forever, on spans
// jittered uniformly in [mean/2, 3*mean/2]. Selection and every span come
// from the plane's dedicated churn stream (one private fork per node), so
// the schedule is a pure function of the fault seed — message faults, the
// workload, and the overlay never shift it. Only the initial grid churns;
// expansion joiners are treated as stable.
void GridSimulation::schedule_churn() {
  if (!faults_ || !faults_->config().churn) return;
  const sim::FaultConfig::Churn plan = *faults_->config().churn;
  Rng pick_rng = faults_->churn_rng();
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const bool churns =
        pick_rng.bernoulli(sim::FaultConfig::Churn::kNodeFraction);
    Rng node_rng = pick_rng.fork(1 + i);
    if (!churns) continue;
    const NodeId id{static_cast<std::uint32_t>(i)};
    const Duration first_up =
        plan.start +
        node_rng.uniform_duration(plan.mean_uptime / 2,
                                  plan.mean_uptime + plan.mean_uptime / 2);
    sim_.schedule_at(TimePoint::origin() + first_up,
                     [this, id, plan, node_rng] {
                       churn_crash(id, plan, node_rng);
                     });
  }
}

// Targeted churn: the adversarial variant of schedule_churn. Victims are
// not sampled — they are *designated* (the aggregator candidates of the
// configured ranks/regions, a pure function of the fault config via
// FaultPlane::churn_target) — and every timing draw comes from a stream
// disjoint from the untargeted plan's, so composing both plans never
// shifts either schedule.
void GridSimulation::schedule_targeted_churn() {
  if (!faults_ || !faults_->config().targeted_churn) return;
  const auto& tc = *faults_->config().targeted_churn;
  if (tc.ranks == 0 || faults_->config().region_count == 0) return;  // inert
  sim::FaultConfig::Churn plan;
  plan.mean_uptime = tc.mean_uptime;
  plan.mean_downtime = tc.mean_downtime;
  plan.start = tc.start;
  Rng stream = faults_->targeted_rng();
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (!faults_->churn_target(id)) continue;
    Rng node_rng = stream.fork(1 + i);
    const Duration first_up =
        plan.start +
        node_rng.uniform_duration(plan.mean_uptime / 2,
                                  plan.mean_uptime + plan.mean_uptime / 2);
    sim_.schedule_at(TimePoint::origin() + first_up,
                     [this, id, plan, node_rng] {
                       churn_crash(id, plan, node_rng, /*targeted=*/true);
                     });
  }
}

void GridSimulation::churn_crash(NodeId id, sim::FaultConfig::Churn plan,
                                 Rng rng, bool targeted) {
  proto::AriaNode* n = node(id);
  if (n == nullptr || n->crashed()) return;
  n->crash();
  if (targeted) {
    faults_->count_targeted_crash();
  } else {
    faults_->count_crash();
  }
  const Duration down = rng.uniform_duration(
      plan.mean_downtime / 2, plan.mean_downtime + plan.mean_downtime / 2);
  sim_.schedule_after(down, [this, id, plan, rng, targeted] {
    churn_restart(id, plan, rng, targeted);
  });
}

void GridSimulation::churn_restart(NodeId id, sim::FaultConfig::Churn plan,
                                   Rng rng, bool targeted) {
  proto::AriaNode* n = node(id);
  if (n == nullptr || !n->crashed()) return;
  n->restart();
  faults_->count_restart();
  const Duration up = rng.uniform_duration(
      plan.mean_uptime / 2, plan.mean_uptime + plan.mean_uptime / 2);
  sim_.schedule_after(up, [this, id, plan, rng, targeted] {
    churn_crash(id, plan, rng, targeted);
  });
}

void GridSimulation::schedule_maintenance() {
  if (!maintainer_) return;  // static overlay families have no ants
  sim_.schedule_periodic(ScenarioConfig::kMaintenancePeriod,
                         ScenarioConfig::kMaintenancePeriod,
                         [this] { maintainer_->tick(); });
}

void GridSimulation::schedule_sampling() {
  sim_.schedule_periodic(
      Duration::zero(), ScenarioConfig::kMetricsSamplePeriod, [this] {
        idle_series_.add(sim_.now(), static_cast<double>(idle_count()));
        node_count_series_.add(sim_.now(),
                               static_cast<double>(nodes_.size()));
        if (config_.aria.healing.enabled) sample_live_connectivity();
        if (config_.aria.overload.enabled) sample_overload();
      });
}

bool GridSimulation::live_subgraph_connected() const {
  return topo_.connected_among([this](NodeId id) {
    const proto::AriaNode* n =
        id.index() < nodes_.size() ? nodes_[id.index()] : nullptr;
    return n != nullptr && !n->crashed();
  });
}

// Piggybacks on the metrics sampler (no extra events): is the subgraph of
// currently-alive nodes connected? Consecutive disconnected samples bound
// the worst observed time-to-heal.
void GridSimulation::sample_live_connectivity() {
  if (live_subgraph_connected()) {
    disconnect_streak_ = 0;
    return;
  }
  ++counters_.live_disconnected_samples;
  ++disconnect_streak_;
  counters_.max_disconnect_streak =
      std::max(counters_.max_disconnect_streak, disconnect_streak_);
}

// Piggybacks on the metrics sampler: the deepest local queue plus the
// cumulative shed/REJECT counts across all nodes, one point per period.
void GridSimulation::sample_overload() {
  std::uint64_t deepest = 0;
  std::uint64_t sheds = 0;
  std::uint64_t rejects = 0;
  for (const auto& n : nodes_) {
    deepest = std::max<std::uint64_t>(deepest, n->queue_length());
    sheds += n->counters().jobs_shed;
    rejects += n->counters().assign_rejects;
  }
  queue_depth_series_.add(sim_.now(), static_cast<double>(deepest));
  shed_series_.add(sim_.now(), static_cast<double>(sheds));
  reject_series_.add(sim_.now(), static_cast<double>(rejects));
}

RunResult GridSimulation::run() {
  build();
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t shard_events = 0;
  if (fabric_) {
    shard_events = run_sharded();
  } else {
    sim_.run_until(TimePoint::origin() + config_.horizon);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  RunResult r;
  r.scenario_name = config_.name;
  r.seed = seed_;
  r.tracker = tracker_;
  r.traffic = net_->traffic();
  r.idle_series = idle_series_;
  r.node_count_series = node_count_series_;
  // One fold per counter owner (common/counters.hpp). Counters (bar the
  // peak_queue_depth gauge) stay zero while their plane is off, so the folds
  // need no plane gates.
  if (faults_) {
    r.faults_enabled = true;
    r.faults = faults_->counters();
  }
  for (const auto& n : nodes_) {
    counters::fold_healing(r, n->neighbor_view().stats());
    counters::fold_node(r, n->counters());
  }
  counters::fold_network(r, net_->counters());
  counters::fold_engine(r, counters_);
  if (config_.aria.healing.enabled) {
    r.healing_enabled = true;
    r.live_subgraph_connected_at_end = live_subgraph_connected();
  }
  if (config_.aria.overload.enabled) {
    r.overload_enabled = true;
    r.queue_depth_series = queue_depth_series_;
    r.shed_series = shed_series_;
    r.reject_series = reject_series_;
  }
  if (faults_ && faults_->config().adversary &&
      faults_->config().adversary->fraction > 0.0 &&
      !faults_->config().adversary->roles.empty()) {
    r.adversaries_enabled = true;
    for (const auto& n : nodes_) {
      if (n->adversary_role()) ++r.adversary_count;
    }
  }
  r.defense_enabled = config_.aria.defense.enabled;
  if (config_.aria.hierarchy.enabled) {
    r.hierarchy_enabled = true;
    r.region_count = config_.aria.hierarchy.region_count;
  }
  if (tracer_) {
    r.trace_enabled = true;
    r.trace = tracer_->buffer();
  }
  if (auditor_) {
    auditor_->finish(TimePoint::origin() + config_.horizon);
    r.audit_enabled = true;
    r.audit_violations = auditor_->violation_count();
    r.violations = auditor_->violations();
    r.audit_by_kind = auditor_->by_kind();
    if (r.audit_violations != 0) {
      ARIA_ERROR << config_.name << " (seed " << seed_ << "): "
                 << r.audit_violations << " audit violations; first: "
                 << r.violations.front().kind << " — "
                 << r.violations.front().detail;
    }
  }
  fill_pdes_result(r);
  r.final_node_count = nodes_.size();
  r.overlay_links = topo_.link_count();
  r.overlay_avg_degree = topo_.average_degree();
  r.overlay_avg_path_length = topo_.average_path_length();
  // In sharded mode events split across the engine and shard simulators;
  // the sum reproduces the sequential count exactly.
  r.events_fired = sim_.fired_events() + shard_events;
  r.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (!r.tracker.violations().empty()) {
    ARIA_ERROR << config_.name << " (seed " << seed_ << "): "
               << r.tracker.violations().size() << " lifecycle violations; "
               << "first: " << r.tracker.violations().front();
  }
  return r;
}

RunResult run_scenario(const ScenarioConfig& scenario, std::uint64_t seed) {
  GridSimulation sim{scenario, seed};
  return sim.run();
}

}  // namespace aria::workload
