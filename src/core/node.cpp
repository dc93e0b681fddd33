#include "core/node.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.hpp"

namespace aria::proto {

namespace {
// splitmix64-style mix so consecutive node ids seed well-separated
// per-plane streams (neither the probe nor the hierarchy plane may touch
// the protocol RNG tree). Tag 0 reproduces the historical probe seeds
// exactly; other tags open further independent streams per node.
std::uint64_t plane_seed(NodeId self, std::uint64_t tag) {
  std::uint64_t z = 0x9E3779B97F4A7C15ULL * (tag + 1) + self.value();
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kProbePlane = 0;
constexpr std::uint64_t kHierarchyPlane = 1;
}  // namespace

AriaNode::AriaNode(NodeContext ctx, NodeId self, grid::NodeProfile profile,
                   std::unique_ptr<sched::LocalScheduler> scheduler, Rng rng,
                   std::string virtual_org)
    : ctx_{ctx},
      self_{self},
      profile_{std::move(profile)},
      sched_{std::move(scheduler)},
      rng_{rng},
      vo_{std::move(virtual_org)},
      reputation_{ctx.config->defense.reputation_alpha,
                  ctx.config->defense.initial_reputation},
      probe_rng_{plane_seed(self, kProbePlane)},
      hier_rng_{plane_seed(self, kHierarchyPlane)} {
  assert(ctx_.sim && ctx_.net && ctx_.topo && ctx_.relay && ctx_.config &&
         ctx_.ert_error);
  assert(!ctx_.config->healing.enabled || ctx_.healing_topo != nullptr);
  assert(sched_);
  if (ctx_.faults != nullptr) {
    // Stateless designation — no RNG draws, so honest runs stay
    // byte-identical whether or not an (inert) adversary plan is configured.
    adv_role_ = ctx_.faults->adversary_role(self_);
  }
  if (ctx_.config->overload.enabled) {
    // Queue bound scales with the machine's speed: a 2x performance index
    // drains twice as fast, so it may hold twice the work.
    const double cap =
        ctx_.config->overload.capacity_per_perf * profile_.performance_index;
    sched_->set_capacity(std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(cap))));
  }
  sync_idle_gauge();  // a fresh node is idle
}

AriaNode::~AriaNode() {
  if (started_) stop();
  if (counted_idle_ && ctx_.idle_gauge != nullptr) {
    --*ctx_.idle_gauge;  // leave the gauge consistent for surviving nodes
  }
}

void AriaNode::sync_idle_gauge() {
  if (ctx_.idle_gauge == nullptr) return;
  const bool now_idle = idle();
  if (now_idle == counted_idle_) return;
  counted_idle_ = now_idle;
  if (now_idle) {
    ++*ctx_.idle_gauge;
  } else {
    --*ctx_.idle_gauge;
  }
}

void AriaNode::start() {
  assert(!started_);
  started_ = true;
  ctx_.net->attach(self_, [this](sim::Envelope env) { handle(std::move(env)); });
  // Random phase decorrelates the per-node INFORM timers (a deployment has
  // no synchronized clocks either).
  const Duration phase =
      rng_.uniform_duration(Duration::zero(), ctx_.config->inform_period);
  inform_timer_ = ctx_.sim->schedule_periodic(
      phase, ctx_.config->inform_period, [this] { inform_tick(); });
  if (ctx_.config->healing.enabled) {
    // Probe phase comes from the probe stream: enabling healing must not
    // consume draws the protocol plane would otherwise make.
    const Duration probe_phase = probe_rng_.uniform_duration(
        Duration::zero(), ctx_.config->healing.probe_period);
    probe_timer_ = ctx_.sim->schedule_periodic(
        probe_phase, ctx_.config->healing.probe_period,
        [this] { probe_tick(); });
  }
  if (hierarchy_on()) {
    // Phases come from the hierarchy stream (same discipline as the probe
    // plane): enabling the hierarchy must not consume protocol draws.
    const HierarchyParams& h = ctx_.config->hierarchy;
    const Duration report_phase =
        hier_rng_.uniform_duration(Duration::zero(), h.load_report_period);
    report_timer_ = ctx_.sim->schedule_periodic(
        report_phase, h.load_report_period, [this] { region_report_tick(); });
    if (region_aggregator()) {
      const Duration digest_phase =
          hier_rng_.uniform_duration(Duration::zero(), h.digest_period);
      digest_timer_ = ctx_.sim->schedule_periodic(
          digest_phase, h.digest_period, [this] { region_digest_tick(); });
    }
  }
}

void AriaNode::stop() {
  started_ = false;
  inform_timer_.cancel();
  probe_timer_.cancel();
  report_timer_.cancel();
  digest_timer_.cancel();
  reservation_wake_.cancel();
  if (running_) running_->completion.cancel();
  for (auto& [id, pending] : pending_requests_) pending.timeout.cancel();
  for (auto& [id, p] : pending_assigns_) p.timer.cancel();
  for (auto& [id, s] : shed_jobs_) s.timer.cancel();
  for (auto& [id, w] : watched_) {
    w.timer.cancel();
    w.straggler_timer.cancel();
    w.revoke_timer.cancel();
  }
  ctx_.net->detach(self_);
}

void AriaNode::crash() {
  assert(started_ && !crashed_);
  stop();
  crashed_ = true;
  // Volatile state is gone: the executing job, the queue, in-flight
  // discovery rounds, advertisements, delegation retries and the ACK dedup
  // set. watched_ deliberately survives — the list of jobs a user handed to
  // this node models stable storage, and a restarted initiator must resume
  // supervising them (stop() already cancelled the timers; restart()
  // re-arms them).
  running_.reset();
  sched_->clear();
  pending_requests_.clear();
  pending_informs_.clear();
  pending_assigns_.clear();
  acked_assigns_.clear();
  initiator_of_.clear();
  shed_jobs_.clear();  // in-flight shed buffers die with the node; the
                       // initiator's failsafe watchdog recovers those jobs
  seen_rejects_.clear();
  bids_suppressed_ = false;
  // Aggregator tables are volatile: a restarted candidate rebuilds them
  // from the next report/digest cycle (digest_epoch_ stays monotone).
  member_loads_.clear();
  digest_table_.clear();
  if (ctx_.config->healing.enabled) {
    // The liveness view is volatile, but the neighbor *addresses* model
    // stable storage (a deployment keeps its bootstrap list on disk): the
    // rejoin path LINK_REQs them on restart. Snapshot before the survivors
    // start evicting this node's links.
    stable_contacts_ = ctx_.topo->neighbors(self_);
    view_.clear();
  }
  sync_idle_gauge();  // crashed nodes are down, not idle
}

void AriaNode::restart() {
  assert(crashed_ && !started_);
  crashed_ = false;
  start();
  // Resume supervising every initiated job not yet known-completed; if its
  // assignee also vanished meanwhile, the watchdog re-floods. The stored
  // deadline survives the crash (stable storage) — re-arming the full span
  // from `now` would let periodic churn starve the watchdog forever
  // whenever this node's uptime is shorter than the span. A deadline that
  // passed while we were down fires after one margin, leaving a live
  // assignee's heartbeats time to arrive and disarm the false alarm.
  for (auto& [id, w] : watched_) {
    const TimePoint due = std::max(
        w.deadline, ctx_.sim->now() + ctx_.config->failsafe_margin);
    w.timer.cancel();
    w.deadline = due;
    // Straggler/revoke timers died with the crash; the plain watchdog covers
    // the job until the next defended decision records a fresh promise.
    w.revoke_pending = false;
    const JobId job = id;
    w.timer = ctx_.sim->schedule_after(
        due - ctx_.sim->now(), [this, job] { watchdog_expired(job); });
  }
  if (ctx_.config->healing.enabled) {
    // Rejoin: ask every remembered neighbor to re-establish the link. The
    // dead ones simply never answer; the live ones LINK_ACK and reseed the
    // contact cache, after which normal repair tops the degree back up.
    for (NodeId c : stable_contacts_) {
      ++view_.stats().rejoin_requests;
      ctx_.net->send(self_, c, std::make_unique<LinkReqMsg>(self_));
    }
  }
  if (hierarchy_on() && region_aggregator() &&
      !ctx_.config->hierarchy.aggregator_warmup.is_zero()) {
    // Cold-restart discipline: the crash wiped member_loads_ and
    // digest_table_, so until a fresh report arrives this candidate would
    // answer REGION_QUERYs from nothing. Mark it cold (serve_region_query
    // hands queries to the next rank meanwhile) and solicit immediate
    // out-of-cycle reports instead of waiting a full load_report_period.
    agg_cold_ = true;
    cold_until_ = ctx_.sim->now() + ctx_.config->hierarchy.aggregator_warmup;
    solicit_region_reports();
  }
  sync_idle_gauge();
}

Duration AriaNode::running_remaining() const {
  if (!running_) return Duration::zero();
  const TimePoint eta = running_->started + running_->job.ertp;
  const Duration left = eta - ctx_.sim->now();
  return left.is_negative() ? Duration::zero() : left;
}

bool AriaNode::can_bid(const grid::JobSpec& job) const {
  if (!grid::satisfies(profile_, job.requirements, vo_)) return false;
  // Deadline offers are never mixed with batch ones (paper §III-C).
  const bool deadline_node =
      sched_->cost_family() == sched::CostFamily::kDeadline;
  return job.has_deadline() == deadline_node;
}

double AriaNode::my_cost(const grid::JobSpec& job) const {
  return sched_->cost_of_adding(job, job.ert_on(profile_.performance_index),
                                running_remaining(), ctx_.sim->now());
}

// ---------------------------------------------------------------------------
// Submission phase
// ---------------------------------------------------------------------------

void AriaNode::submit(grid::JobSpec job) {
  assert(!job.id.is_nil());
  emit(event::Submitted{job, self_});
  auto [it, inserted] = pending_requests_.try_emplace(job.id);
  assert(inserted && "duplicate submission of the same job UUID");
  it->second.spec = std::move(job);
  it->second.attempt = 1;
  if (ctx_.config->failsafe) {
    Watchdog& w = watched_[it->second.spec.id];
    w.spec = it->second.spec;
    arm_watchdog(it->second.spec.id);
  }
  flood_request(it->second.spec, 1);
}

void AriaNode::flood_request(const grid::JobSpec& spec, std::size_t attempt) {
  auto it = pending_requests_.find(spec.id);
  assert(it != pending_requests_.end());
  it->second.attempt = attempt;
  it->second.offers.clear();
  it->second.remote_round = false;  // each round gets one fresh extra window

  const FloodMeta meta = open_flood(rng_, ctx_.config->request_hops);

  // The initiator may compete for its own job (no wire traffic involved),
  // unless it is saturated.
  if (ctx_.config->initiator_self_candidate && can_bid(spec) &&
      !withhold_bid()) {
    const double cost = bid_cost(spec);
    it->second.offers.emplace_back(self_, spec.id, cost);
    emit(event::BidReceived{spec.id, self_, self_, cost});
  }

  bool wide = wide_flood(attempt);
  const std::size_t escalate = ctx_.config->hierarchy.escalate_silent_rounds;
  if (!wide && escalate > 0 && it->second.silent_rounds >= escalate) {
    // Sustained silence — region-local floods AND the cross-region
    // escalation path both drew nothing, the signature of a fully dead
    // candidate list. Widen now instead of waiting for wide_flood_every.
    wide = true;
    ++counters_.early_wide_escalations;
  }
  if (wide) ++counters_.wide_floods;
  const auto targets = flood_targets(ctx_.config->request_fanout,
                                     kInvalidNode, kInvalidNode, wide);
  for (NodeId t : targets) {
    ctx_.net->send(self_, t,
                   std::make_unique<RequestMsg>(self_, spec, meta, wide));
  }
  ++counters_.requests_initiated;

  const JobId id = spec.id;
  it->second.timeout = ctx_.sim->schedule_after(
      ctx_.config->accept_timeout, [this, id] { decide_assignment(id); });
}

void AriaNode::decide_assignment(const JobId& id) {
  auto it = pending_requests_.find(id);
  if (it == pending_requests_.end()) return;  // already decided
  PendingRequest& pending = it->second;

  if (defense_on() && !pending.offers.empty()) {
    // Suspicion filter: offers from nodes whose promise-vs-delivery score
    // fell below the threshold are dropped outright — before the empty-round
    // check, so a round carried only by distrusted bids goes into retry
    // instead of rewarding a known liar.
    const double thr = ctx_.config->defense.suspicion_threshold;
    const auto first_bad = std::remove_if(
        pending.offers.begin(), pending.offers.end(),
        [this, thr](const AcceptMsg& o) {
          return reputation_.score(o.node) < thr;
        });
    counters_.offers_distrusted += static_cast<std::uint64_t>(
        std::distance(first_bad, pending.offers.end()));
    pending.offers.erase(first_bad, pending.offers.end());
  }

  if (pending.offers.empty()) {
    ++pending.silent_rounds;  // feeds early wide-flood escalation
    const std::size_t next_attempt = pending.attempt + 1;
    if (ctx_.config->retry.exhausted(pending.attempt)) {
      ARIA_WARN << self_.to_string() << ": job " << id.to_string()
                << " unschedulable after " << pending.attempt << " attempts";
      emit(event::Unschedulable{id});
      pending_requests_.erase(it);
      return;
    }
    emit(event::RequestRetry{id, next_attempt});
    if (hierarchy_on()) {
      // Escalate cross-region in parallel with the local backoff: the
      // aggregator forwards the query to another region, whose members
      // ACCEPT directly into this still-open round.
      send_region_query(pending.spec, pending.attempt);
    }
    Duration backoff = ctx_.config->retry.wait_after(pending.attempt);
    const HierarchyParams& h = ctx_.config->hierarchy;
    if (h.silent_backoff_factor_cap > 0 && h.escalate_silent_rounds > 0 &&
        pending.silent_rounds >= h.escalate_silent_rounds) {
      // Dead-candidate-list suspicion: clamp the exponential curve so the
      // widened retries come on a short, bounded cadence.
      backoff = std::min(
          backoff, ctx_.config->retry.backoff *
                       static_cast<std::int64_t>(h.silent_backoff_factor_cap));
    }
    ctx_.sim->schedule_after(backoff, [this, id, next_attempt] {
      auto again = pending_requests_.find(id);
      if (again == pending_requests_.end()) return;
      if (hierarchy_on() && !again->second.offers.empty()) {
        // Cross-region offers arrived during the backoff: decide now
        // instead of re-flooding (which would wipe them).
        decide_assignment(id);
        return;
      }
      flood_request(again->second.spec, next_attempt);
    });
    return;
  }

  // Lowest cost wins; arrival order breaks ties (deterministic). Under the
  // defense plane the ranking cost is credibility-discounted (quoted cost /
  // reputation) — discounted_cost is the identity when the plane is off, so
  // this is exactly `a.cost < b.cost` for undefended runs.
  const auto best = std::min_element(
      pending.offers.begin(), pending.offers.end(),
      [this](const AcceptMsg& a, const AcceptMsg& b) {
        return discounted_cost(a) < discounted_cost(b);
      });

  // Hierarchy: a round whose best offer is poor counts as unsatisfied too.
  // Solicit one cross-region window (digest-guided) before committing —
  // without this, region-scoped discovery traps jobs in hot regions and the
  // backlog re-surfaces as per-job INFORM floods. At most one extra window
  // per round, so the decision still terminates deterministically.
  if (hierarchy_on() && !pending.remote_round &&
      best->cost >
          ctx_.config->hierarchy.delegate_cost_threshold.to_seconds()) {
    pending.remote_round = true;
    send_region_query(pending.spec, pending.attempt);
    const JobId again = id;
    pending.timeout = ctx_.sim->schedule_after(
        ctx_.config->accept_timeout, [this, again] { decide_assignment(again); });
    return;
  }
  const grid::JobSpec spec = std::move(pending.spec);
  const NodeId winner = best->node;
  const bool reschedule = pending.recovery_reschedule;
  const NodeId initiator =
      pending.on_behalf_of.valid() ? pending.on_behalf_of : self_;
  if (defense_on()) {
    // Record the promise this decision extracts: the winning quote, the
    // grant time, and the runner-up bid the hedge falls back to. Only the
    // watching initiator holds this state — rounds run on another node's
    // behalf leave the real initiator's plain watchdog in charge.
    if (const auto wit = watched_.find(id); wit != watched_.end()) {
      Watchdog& w = wit->second;
      w.quoted_cost = best->cost;
      w.assigned_at = ctx_.sim->now();
      w.last_known = winner;  // attributable even if the assignee goes dark
                              // before its first NOTIFY (black holes do)
      w.revoke_pending = false;
      w.revoke_sends = 0;
      w.runner_up = NodeId{};
      w.runner_up_cost = 0.0;
      const AcceptMsg* second = nullptr;
      for (const AcceptMsg& o : pending.offers) {
        if (o.node == winner) continue;
        if (second == nullptr ||
            discounted_cost(o) < discounted_cost(*second)) {
          second = &o;
        }
      }
      if (second != nullptr) {
        w.runner_up = second->node;
        w.runner_up_cost = second->cost;
      }
      arm_straggler(id);
    }
  }
  pending_requests_.erase(it);
  send_assign(winner, spec, initiator, reschedule);
}

void AriaNode::deliver_assignment(const grid::JobSpec& job, NodeId initiator,
                                  bool reschedule) {
  accept_job(job, initiator, reschedule);
}

bool AriaNode::remove_queued(const JobId& id) {
  if (!sched_->remove(id)) return false;
  initiator_of_.erase(id);
  pending_informs_.erase(id);
  sync_idle_gauge();
  return true;
}

void AriaNode::send_assign(NodeId target, const grid::JobSpec& spec,
                           NodeId initiator, bool reschedule, bool hedge) {
  if (target == self_) {
    if (overload_on() && admission_over()) {
      // The backlog crossed the watermark between the self-bid and this
      // decision; refuse locally exactly like a wire REJECT would.
      ++counters_.assign_rejects;
      emit(event::Rejected{spec.id, self_});
      handle_reject(spec, initiator, reschedule);
      return;
    }
    // Local delegation needs no wire message.
    emit(event::Delegated{spec.id, self_, self_, reschedule});
    accept_job(spec, initiator, reschedule);
    return;
  }
  ++counters_.assigns_sent;
  emit(event::Delegated{spec.id, self_, target, reschedule});
  if (!ctx_.config->assign_ack) {
    ctx_.net->send(self_, target,
                   std::make_unique<AssignMsg>(initiator, spec, reschedule,
                                               Uuid{}, hedge));
    return;
  }
  // Acknowledged delegation: remember the attempt and retransmit until the
  // target confirms (or is presumed dead and a new discovery round starts).
  PendingAssign& p = pending_assigns_[spec.id];
  p.timer.cancel();  // a previous attempt for this job is superseded
  p.spec = spec;
  p.target = target;
  p.initiator = initiator;
  p.reschedule = reschedule;
  p.hedge = hedge;
  p.assign_id = Uuid::generate(rng_);
  p.sends = 1;
  const JobId id = spec.id;
  p.timer = ctx_.sim->schedule_after(ctx_.config->assign_ack_timeout,
                                     [this, id] { assign_ack_expired(id); });
  ctx_.net->send(self_, target,
                 std::make_unique<AssignMsg>(initiator, spec, reschedule,
                                             p.assign_id, hedge));
}

void AriaNode::assign_ack_expired(const JobId& id) {
  auto it = pending_assigns_.find(id);
  if (it == pending_assigns_.end()) return;
  PendingAssign& p = it->second;
  if (p.sends <= ctx_.config->assign_max_retries) {
    ++p.sends;
    ++counters_.assign_retries;
    ctx_.net->send(self_, p.target,
                   std::make_unique<AssignMsg>(p.initiator, p.spec,
                                               p.reschedule, p.assign_id,
                                               p.hedge));
    p.timer = ctx_.sim->schedule_after(ctx_.config->assign_ack_timeout,
                                       [this, id] { assign_ack_expired(id); });
    return;
  }
  // Target presumed dead. Re-flood on the original initiator's behalf; the
  // job may end up executing twice if the target was alive after all (only
  // the ACKs were lost) — at-least-once semantics, resolved by the tracker.
  grid::JobSpec spec = std::move(p.spec);
  const NodeId initiator = p.initiator;
  const bool reschedule = p.reschedule;
  pending_assigns_.erase(it);
  ARIA_WARN << self_.to_string() << ": no ASSIGN_ACK for job "
            << id.to_string() << " after " << ctx_.config->assign_max_retries
            << " retries; rediscovering";
  if (pending_requests_.contains(id)) return;  // a round is already running
  ++counters_.assign_rediscoveries;
  emit(event::Recovery{id, 1});
  rediscover(std::move(spec), initiator, reschedule);
}

void AriaNode::rediscover(grid::JobSpec spec, NodeId initiator,
                          bool reschedule) {
  auto [it, inserted] = pending_requests_.try_emplace(spec.id);
  assert(inserted);
  PendingRequest& pending = it->second;
  pending.spec = std::move(spec);
  pending.recovery_reschedule = reschedule;
  if (initiator.valid() && initiator != self_) pending.on_behalf_of = initiator;
  flood_request(pending.spec, 1);
}

void AriaNode::accept_job(const grid::JobSpec& spec, NodeId initiator,
                          bool reschedule) {
  if (adv_is(sim::FaultConfig::Adversary::Role::kBlackhole)) {
    // Black hole: the ASSIGN was ACKed upstream (on_assign) but the job is
    // silently dropped before any bookkeeping — no kQueued, no heartbeats,
    // no queue entry. With an always-empty queue this node keeps quoting an
    // attractive idle-machine cost, so undefended grids feed it forever; the
    // initiator's straggler revoke (ignored here) and failsafe watchdog are
    // the recovery paths.
    ++counters_.adv_assigns_swallowed;
    return;
  }
  // Nodes may not decline jobs they offered to take (paper §III-A). Under
  // the overload plane the bounded queue may still evict — the job (or a
  // policy-chosen victim) is then shed-and-forwarded, never dropped.
  initiator_of_[spec.id] = initiator;
  sched::QueuedJob incoming{
      spec, spec.ert_on(profile_.performance_index), ctx_.sim->now(), 0};
  std::optional<sched::QueuedJob> victim;
  if (overload_on()) {
    victim = sched_->enqueue_bounded(std::move(incoming), running_remaining(),
                                     ctx_.sim->now());
  } else {
    sched_->enqueue(std::move(incoming));
  }
  counters_.peak_queue_depth =
      std::max<std::uint64_t>(counters_.peak_queue_depth, sched_->size());
  if (reschedule) ++counters_.reschedules_in;
  emit(event::Assigned{spec, self_, reschedule});
  if (ctx_.config->failsafe) {
    notify_initiator_of(spec.id, NotifyMsg::Kind::kQueued);
  }
  if (victim) shed_job(std::move(*victim));
  kick_executor();
  sync_idle_gauge();
}

// ---------------------------------------------------------------------------
// Floods and bids
// ---------------------------------------------------------------------------

FloodMeta AriaNode::open_flood(Rng& rng, std::size_t hops) {
  const Uuid flood_id = Uuid::generate(rng);
  ctx_.relay->mark_seen(self_, flood_id, ctx_.sim->now());
  schedule_flood_gc(flood_id);
  return FloodMeta{flood_id, static_cast<std::uint32_t>(hops - 1), self_};
}

template <class Msg>
void AriaNode::forward_flood(NodeId from, const Msg& msg, std::size_t fanout,
                             std::uint64_t* forwarded, bool wide) {
  if (msg.flood.hops_left == 0) return;
  for (NodeId t : flood_targets(fanout, from, msg.flood.origin, wide)) {
    if (forwarded != nullptr) ++*forwarded;
    auto copy = std::make_unique<Msg>(msg);
    --copy->flood.hops_left;
    ctx_.net->send(self_, t, std::move(copy));
  }
}

double AriaNode::advertise(const grid::JobSpec& spec, double true_cost) {
  const double cost = advertised_cost(true_cost);
  const FloodMeta meta = open_flood(rng_, ctx_.config->inform_hops);
  const auto targets = flood_targets(ctx_.config->inform_fanout);
  for (NodeId t : targets) {
    ctx_.net->send(self_, t,
                   std::make_unique<InformMsg>(self_, spec, cost, meta));
  }
  if (!targets.empty()) ++counters_.informs_initiated;
  return cost;
}

void AriaNode::send_accept(const JobId& job, NodeId to, double cost) {
  ++counters_.accepts_sent;
  ctx_.net->send(self_, to, std::make_unique<AcceptMsg>(self_, job, cost));
  emit(event::BidSent{job, self_, to, cost});
}

bool AriaNode::offer_bid(const grid::JobSpec& job, NodeId to) {
  if (!can_bid(job) || withhold_bid()) return false;
  send_accept(job.id, to, bid_cost(job));
  return true;
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void AriaNode::handle(sim::Envelope env) {
  if (auto* req = dynamic_cast<const RequestMsg*>(env.message.get())) {
    on_request(env.from, *req);
  } else if (auto* acc = dynamic_cast<const AcceptMsg*>(env.message.get())) {
    on_accept(*acc);
  } else if (auto* inf = dynamic_cast<const InformMsg*>(env.message.get())) {
    on_inform(env.from, *inf);
  } else if (auto* asg = dynamic_cast<const AssignMsg*>(env.message.get())) {
    on_assign(env.from, *asg);
  } else if (auto* ack = dynamic_cast<const AssignAckMsg*>(env.message.get())) {
    on_assign_ack(*ack);
  } else if (auto* ntf = dynamic_cast<const NotifyMsg*>(env.message.get())) {
    on_notify(*ntf);
  } else if (auto* rej = dynamic_cast<const RejectMsg*>(env.message.get())) {
    on_reject(*rej);
  } else if (hierarchy_on() && handle_region(env)) {
    // dispatched by handle_region
  } else if (ctx_.config->healing.enabled) {
    if (auto* ping = dynamic_cast<const PingMsg*>(env.message.get())) {
      on_ping(env.from, *ping);
    } else if (auto* pong = dynamic_cast<const PongMsg*>(env.message.get())) {
      on_pong(*pong);
    } else if (auto* lr = dynamic_cast<const LinkReqMsg*>(env.message.get())) {
      on_link_req(env.from, *lr);
    } else if (auto* la = dynamic_cast<const LinkAckMsg*>(env.message.get())) {
      on_link_ack(*la);
    }
  }
  // Unknown message types are ignored.
}

void AriaNode::on_request(NodeId from, const RequestMsg& msg) {
  if (!ctx_.relay->mark_seen(self_, msg.flood.flood_id, ctx_.sim->now())) {
    return;  // duplicate
  }

  if (ctx_.config->failsafe && completed_here_.contains(msg.job.id)) {
    // This node already ran the job to completion, so the flood is a
    // failsafe recovery whose NOTIFY never reached the initiator (down or
    // partitioned when the receipt landed). Replay the receipt and stop:
    // bidding would buy a pointless re-execution, and forwarding would
    // spread a flood whose answer is already known here.
    ++counters_.completion_replays;
    ctx_.net->send(self_, msg.initiator,
                   std::make_unique<NotifyMsg>(NotifyMsg::Kind::kCompleted,
                                               msg.job.id, self_));
    return;
  }

  // Paper-literal forwarding rule: satisfied requests stop here. A withheld
  // bid (saturated node) still forwards, so discovery routes around it.
  if (offer_bid(msg.job, msg.initiator) && !ctx_.config->forward_on_match) {
    return;
  }
  forward_flood(from, msg, ctx_.config->request_fanout,
                &counters_.requests_forwarded, msg.wide);
}

void AriaNode::on_inform(NodeId from, const InformMsg& msg) {
  if (!ctx_.relay->mark_seen(self_, msg.flood.flood_id, ctx_.sim->now())) {
    return;
  }

  bool replied = false;
  if (msg.assignee != self_ && can_bid(msg.job)) {
    // An underbidder's lie also lets it falsely "improve" on advertisements.
    const double cost = bid_cost(msg.job);
    // Reply only when the improvement clears the threshold (paper §III-D)
    // and this node is not saturated.
    if (cost < msg.cost - ctx_.config->reschedule_threshold.to_seconds() &&
        !withhold_bid()) {
      send_accept(msg.job.id, msg.assignee, cost);
      replied = true;
    }
  }
  if (replied && !ctx_.config->forward_on_match) return;
  forward_flood(from, msg, ctx_.config->inform_fanout,
                &counters_.informs_forwarded);
}

void AriaNode::on_accept(const AcceptMsg& msg) {
  // Case 1: an offer for a REQUEST this node initiated.
  if (auto it = pending_requests_.find(msg.job_id);
      it != pending_requests_.end()) {
    it->second.offers.push_back(msg);
    emit(event::BidReceived{msg.job_id, self_, msg.node, msg.cost});
    return;
  }

  // Case 2: an offer for a job this node shed from its bounded queue. The
  // job's only home is the shed buffer, so the first viable offer wins —
  // there is no local cost to re-verify against.
  if (auto sh = shed_jobs_.find(msg.job_id); sh != shed_jobs_.end()) {
    ShedJob shed = std::move(sh->second);
    shed.timer.cancel();
    shed_jobs_.erase(sh);
    emit(event::BidReceived{msg.job_id, self_, msg.node, msg.cost});
    ++counters_.sheds_rescheduled;
    ++counters_.reschedules_out;
    reassign(shed.spec, shed.initiator, msg.node);
    return;
  }

  // Case 3: a rescheduling proposal for a job this node currently holds.
  const auto pi = pending_informs_.find(msg.job_id);
  if (pi == pending_informs_.end()) return;  // stale or unsolicited
  const sched::QueuedJob* held = sched_->find(msg.job_id);
  if (held == nullptr) {
    // Started executing or already moved elsewhere meanwhile.
    pending_informs_.erase(pi);
    return;
  }
  // Re-verify against the *current* local cost — the queue may have changed
  // since the INFORM went out.
  const double current = sched_->current_cost(msg.job_id, running_remaining(),
                                              ctx_.sim->now());
  if (!(msg.cost < current)) return;  // keep waiting; other offers may come
  // Rescheduling offers are not collected into a set — the first offer
  // that still beats the current local cost wins — so only the winning bid
  // is recorded.
  emit(event::BidReceived{msg.job_id, self_, msg.node, msg.cost});

  const grid::JobSpec spec = held->spec;
  const NodeId initiator = initiator_of_[msg.job_id];
  sched_->remove(msg.job_id);
  initiator_of_.erase(msg.job_id);
  pending_informs_.erase(pi);
  ++counters_.reschedules_out;
  sync_idle_gauge();
  reassign(spec, initiator, msg.node);
}

void AriaNode::reassign(const grid::JobSpec& spec, NodeId initiator,
                        NodeId target) {
  // Keep the initiator's picture fresh: announce where the job went. The
  // plain flag is the paper's optional notification; failsafe requires it.
  if ((ctx_.config->notify_initiator || ctx_.config->failsafe) &&
      initiator.valid()) {
    send_notify(initiator, NotifyMsg::Kind::kRescheduled, spec.id, target);
  }
  send_assign(target, spec, initiator, /*reschedule=*/true);
}

void AriaNode::on_assign(NodeId from, const AssignMsg& msg) {
  if (overload_on() && admission_over() && !holds(msg.job.id) &&
      !(ctx_.config->assign_ack && !msg.assign_id.is_nil() &&
        acked_assigns_.contains(msg.assign_id))) {
    // Over the admission watermark: answer with an explicit REJECT instead
    // of silently enqueueing, so the delegator can re-discover immediately.
    // Retransmissions of an already-queued attempt fall through to the
    // normal path (they must be re-ACKed, not refused), hence the holds()
    // and dedup guards.
    ++counters_.assign_rejects;
    emit(event::Rejected{msg.job.id, self_});
    ctx_.net->send(self_, from,
                   std::make_unique<RejectMsg>(self_, msg.job, msg.initiator,
                                               msg.reschedule,
                                               Uuid::generate(rng_)));
    return;
  }
  if (ctx_.config->assign_ack && !msg.assign_id.is_nil()) {
    // Always confirm — a duplicate usually means the previous ACK was lost.
    ++counters_.assign_acks_sent;
    ctx_.net->send(self_, from, std::make_unique<AssignAckMsg>(
                                    self_, msg.job.id, msg.assign_id));
    if (!first_sighting(acked_assigns_, msg.assign_id)) {
      return;  // retransmission or network duplicate; already enqueued
    }
  }
  accept_job(msg.job, msg.initiator, msg.reschedule);
}

void AriaNode::on_assign_ack(const AssignAckMsg& msg) {
  auto it = pending_assigns_.find(msg.job_id);
  if (it == pending_assigns_.end()) return;  // late ACK; already resolved
  if (it->second.assign_id != msg.assign_id) return;  // stale attempt
  it->second.timer.cancel();
  pending_assigns_.erase(it);
}

// ---------------------------------------------------------------------------
// Failsafe (initiator-side job tracking and crash recovery)
// ---------------------------------------------------------------------------

void AriaNode::notify_initiator_of(const JobId& id, NotifyMsg::Kind kind) {
  const auto it = initiator_of_.find(id);
  if (it == initiator_of_.end() || !it->second.valid()) return;
  send_notify(it->second, kind, id, self_);
}

void AriaNode::send_notify(NodeId to, NotifyMsg::Kind kind, const JobId& id,
                           NodeId assignee) {
  if (to == self_) {
    on_notify(NotifyMsg{kind, id, assignee});
    return;
  }
  ctx_.net->send(self_, to, std::make_unique<NotifyMsg>(kind, id, assignee));
}

void AriaNode::on_notify(const NotifyMsg& msg) {
  if (msg.kind == NotifyMsg::Kind::kRevoke) {
    handle_revoke(msg);  // assignee side; the job is not watched here
    return;
  }
  const auto it = watched_.find(msg.job_id);
  if (it == watched_.end()) return;  // not failsafe-tracking this job
  Watchdog& w = it->second;
  w.last_known = msg.current_assignee;
  switch (msg.kind) {
    case NotifyMsg::Kind::kQueued:
      w.assign_confirmed = true;
      arm_watchdog(msg.job_id);
      break;
    case NotifyMsg::Kind::kRescheduled:
    case NotifyMsg::Kind::kStarted:
      if (w.revoke_pending) {
        // The assignee defended the revoke (it is executing, or the job
        // legitimately moved): stand down — no hedge, no duplicate.
        w.revoke_pending = false;
        w.revoke_timer.cancel();
      }
      if (msg.kind == NotifyMsg::Kind::kRescheduled) {
        // The promise chain broke (a new assignee, a quote this watcher
        // never saw): the straggler deadline is void; the plain watchdog
        // keeps covering the job.
        w.straggler_timer.cancel();
        w.quoted_cost = 0.0;
      }
      arm_watchdog(msg.job_id);
      break;
    case NotifyMsg::Kind::kCompleted:
      w.timer.cancel();
      w.straggler_timer.cancel();
      w.revoke_timer.cancel();
      if (defense_on() && w.quoted_cost > 0.0) {
        // Promise vs delivery: on-time completions score ~1, a lie_factor
        // overrun scores ~1/lie_factor (clamped into [0, 1] by the ledger).
        const double elapsed = (ctx_.sim->now() - w.assigned_at).to_seconds();
        observe_reputation(msg.current_assignee,
                           elapsed <= 0.0 ? 1.0 : w.quoted_cost / elapsed);
      }
      watched_.erase(it);
      // A recovery round may already be in flight (the watchdog re-flooded
      // before this receipt arrived); drop it — assigning a job that is
      // known-completed would only re-execute it.
      pending_requests_.erase(msg.job_id);
      break;
    case NotifyMsg::Kind::kRevokeAck:
      if (w.revoke_pending) {
        // The straggler handed the job back while it was still queued: the
        // promise is void, the job is homeless, and the hedge window opens.
        w.revoke_pending = false;
        w.revoke_timer.cancel();
        observe_reputation(msg.current_assignee, 0.0);
        dispatch_hedge(msg.job_id);
      }
      break;
    case NotifyMsg::Kind::kRevoke:
      break;  // dispatched before the watched_ lookup; unreachable
  }
}

void AriaNode::arm_watchdog(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  w.timer.cancel();
  // The assignee heartbeats every inform_period while it holds the job
  // (queued or executing), so the deadline is a function of the heartbeat
  // cadence, NOT of the job's length: failsafe_factor is the number of
  // consecutive heartbeats the initiator tolerates losing before it
  // presumes the assignee dead. An ERT-scaled span would make crash
  // detection on long jobs take hours — longer than a churn cycle — and
  // strand them inside a finite horizon.
  const Duration span = ctx_.config->inform_period.scaled(
                            ctx_.config->failsafe_factor) +
                        ctx_.config->failsafe_margin +
                        ctx_.config->accept_timeout;
  w.deadline = ctx_.sim->now() + span;
  w.timer =
      ctx_.sim->schedule_after(span, [this, id] { watchdog_expired(id); });
}

void AriaNode::watchdog_expired(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  // Alive here (queued or executing locally), or a discovery round,
  // delegation retry, or shed re-advertisement is already in flight: keep
  // watching rather than starting a competing round.
  if (holds(id) || discovering(id) || shedding(id)) {
    arm_watchdog(id);
    return;
  }
  if (w.recoveries >= ctx_.config->failsafe_max_recoveries) {
    ARIA_WARN << self_.to_string() << ": giving up on recovering job "
              << id.to_string() << " after " << w.recoveries << " attempts";
    emit(event::Abandoned{id});
    watched_.erase(it);
    return;
  }
  ++w.recoveries;
  ++counters_.recoveries;
  if (defense_on()) {
    // The assignee went silent past every heartbeat tolerance: the promise
    // is broken outright. Score zero so repeat offenders (black holes,
    // crashed-and-restarted liars) lose the next rounds they underbid.
    if (w.last_known.valid() && w.last_known != self_) {
      observe_reputation(w.last_known, 0.0);
    }
    w.straggler_timer.cancel();
    w.revoke_timer.cancel();
    w.revoke_pending = false;
    w.quoted_cost = 0.0;  // the recovery round records a fresh promise
  }
  emit(event::Recovery{id, w.recoveries});
  arm_watchdog(id);
  rediscover(w.spec, self_, w.assign_confirmed);
}

// ---------------------------------------------------------------------------
// Adversary injection + defense plane (docs/adversary.md)
// ---------------------------------------------------------------------------

double AriaNode::lie_factor() const {
  if (!adv_role_ || ctx_.faults == nullptr ||
      !ctx_.faults->config().adversary) {
    return 1.0;
  }
  return std::max(1.0, ctx_.faults->config().adversary->lie_factor);
}

double AriaNode::bid_cost(const grid::JobSpec& job) {
  const double honest = my_cost(job);
  if (adv_is(sim::FaultConfig::Adversary::Role::kUnderbid)) {
    ++counters_.adv_underbids;
    return honest / lie_factor();
  }
  return honest;
}

double AriaNode::advertised_cost(double true_cost) {
  if (adv_is(sim::FaultConfig::Adversary::Role::kFreeride)) {
    // A deflated advertisement claims the job is already well placed, so
    // would-be rescuers fail the improvement threshold and the job stays
    // trapped behind this node's (honestly slow) backlog.
    ++counters_.adv_informs_deflated;
    return true_cost / lie_factor();
  }
  return true_cost;
}

double AriaNode::discounted_cost(const AcceptMsg& offer) const {
  if (!defense_on()) return offer.cost;
  const double rep = std::max(reputation_.score(offer.node),
                              ctx_.config->defense.reputation_floor);
  return offer.cost / rep;
}

void AriaNode::observe_reputation(NodeId subject, double outcome) {
  if (!defense_on() || !subject.valid() || subject == self_) return;
  const double thr = ctx_.config->defense.suspicion_threshold;
  const double before = reputation_.score(subject);
  const double after = reputation_.observe(subject, outcome);
  emit(event::Reputation{self_, subject, after});
  if (ctx_.config->healing.enabled && before >= thr && after < thr &&
      ctx_.topo->has_link(self_, subject)) {
    // Crossing into suspicion: cut the overlay link, so this node's floods
    // stop handing the offender fresh bidding opportunities. The healing
    // plane's repair path keeps the degree up with honest peers.
    ++counters_.reputation_evictions;
    evict_neighbor(subject);
  }
}

void AriaNode::arm_straggler(const JobId& id) {
  if (!defense_on()) return;
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  w.straggler_timer.cancel();
  const DefenseParams& d = ctx_.config->defense;
  // Deadline = quoted cost * factor + slack: how far past its own promise
  // the assignee may run. Scales with the quote (unlike the heartbeat-based
  // watchdog) because the promise is exactly what is being policed.
  const Duration span =
      Duration::seconds_f(std::max(0.0, w.quoted_cost) * d.straggler_factor) +
      d.straggler_min_overdue;
  w.straggler_timer =
      ctx_.sim->schedule_after(span, [this, id] { straggler_expired(id); });
}

void AriaNode::straggler_expired(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  if (w.revoke_pending) return;  // already mid-revoke
  // The job is demonstrably in motion here (held, re-discovering, or being
  // re-advertised): the failsafe machinery owns it; a revoke would race.
  if (holds(id) || discovering(id) || shedding(id)) return;
  if (w.hedges >= ctx_.config->defense.hedge_budget) return;  // budget spent
  if (!w.last_known.valid() || w.last_known == self_) return;
  if (!w.runner_up.valid() || w.runner_up == w.last_known) {
    return;  // single-offer round: nothing to hedge onto; watchdog covers
  }
  ++counters_.stragglers_detected;
  // Revoke-before-grant: never duplicate the ASSIGN while the straggler
  // might still legitimately hold (or finish) the job. The hedge waits for
  // the kRevokeAck — or for the retry budget to decide the node is a black
  // hole or a corpse.
  w.revoke_pending = true;
  w.revoke_sends = 0;
  send_revoke(id);
}

void AriaNode::send_revoke(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  ++w.revoke_sends;
  ++counters_.revokes_sent;
  // current_assignee carries the *revoker's* address here, so the assignee
  // knows where to answer (the initiator field of its bookkeeping may be a
  // third node for on-behalf delegations).
  ctx_.net->send(self_, w.last_known,
                 std::make_unique<NotifyMsg>(NotifyMsg::Kind::kRevoke, id,
                                             self_));
  w.revoke_timer = ctx_.sim->schedule_after(
      ctx_.config->assign_ack_timeout, [this, id] { revoke_expired(id); });
}

void AriaNode::revoke_expired(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  if (!w.revoke_pending) return;  // answered (ack or defense) meanwhile
  if (w.revoke_sends <= ctx_.config->assign_max_retries) {
    send_revoke(id);  // same retransmission discipline as ASSIGN_ACK
    return;
  }
  // Ignored revoke: a live node would have answered *something* (ack,
  // started-defense, or a completion replay). Presume black hole or corpse,
  // score the silence, and hedge — the ASSIGN dedup and completion-receipt
  // replay make the duplicate safe if the node was merely slow.
  w.revoke_pending = false;
  observe_reputation(w.last_known, 0.0);
  dispatch_hedge(id);
}

void AriaNode::dispatch_hedge(const JobId& id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  Watchdog& w = it->second;
  if (w.hedges >= ctx_.config->defense.hedge_budget) return;
  if (!w.runner_up.valid() || w.runner_up == w.last_known) return;
  if (holds(id) || discovering(id)) {
    return;  // the job found (or is finding) a home since the revoke opened
  }
  ++w.hedges;
  ++counters_.hedges_dispatched;
  const NodeId target = w.runner_up;
  // The runner-up's quote becomes the new promise; the spent runner-up slot
  // is cleared so a second hedge (budget permitting) needs a fresh round.
  w.last_known = target;
  w.quoted_cost = w.runner_up_cost;
  w.assigned_at = ctx_.sim->now();
  w.runner_up = NodeId{};
  w.runner_up_cost = 0.0;
  arm_watchdog(id);  // fresh heartbeat window for the new assignee
  arm_straggler(id);
  send_assign(target, w.spec, self_, /*reschedule=*/w.assign_confirmed,
              /*hedge=*/true);
}

void AriaNode::handle_revoke(const NotifyMsg& msg) {
  if (!defense_on()) return;  // knob off: nobody legitimately sends these
  if (adv_is(sim::FaultConfig::Adversary::Role::kBlackhole)) {
    return;  // swallows revokes like everything else; retries will exhaust
  }
  const JobId& id = msg.job_id;
  const NodeId revoker = msg.current_assignee;  // see send_revoke
  if (!revoker.valid() || revoker == self_) return;
  if (ctx_.config->failsafe && completed_here_.contains(id)) {
    // Already ran it: the completion NOTIFY was lost. Replay the receipt —
    // hedging a finished job would be the double-run this protocol exists
    // to prevent.
    ++counters_.completion_replays;
    ctx_.net->send(self_, revoker,
                   std::make_unique<NotifyMsg>(NotifyMsg::Kind::kCompleted,
                                               id, self_));
    return;
  }
  if (running_ && running_->job.spec.id == id) {
    // Mid-execution there is no preemption (paper §III-A): defend the
    // assignment; the initiator cancels the revoke on this heartbeat.
    ctx_.net->send(self_, revoker,
                   std::make_unique<NotifyMsg>(NotifyMsg::Kind::kStarted, id,
                                               self_));
    return;
  }
  // Still queued (or unknown — e.g. receipt already swept): hand the job
  // back. remove_queued keeps the gauge, informs, and initiator map clean.
  remove_queued(id);
  ++counters_.revoke_acks_sent;
  ctx_.net->send(self_, revoker,
                 std::make_unique<NotifyMsg>(NotifyMsg::Kind::kRevokeAck, id,
                                             self_));
}

void AriaNode::sweep_completion_receipts() {
  const Duration ttl = ctx_.config->completion_receipt_ttl;
  if (ttl.is_zero() || completed_here_.empty()) return;
  const TimePoint now = ctx_.sim->now();
  std::erase_if(completed_here_,
                [&](const auto& receipt) { return receipt.second + ttl <= now; });
}

// ---------------------------------------------------------------------------
// Dynamic rescheduling phase
// ---------------------------------------------------------------------------

void AriaNode::inform_tick() {
  // Failsafe heartbeats: while a node holds a job, it keeps refreshing the
  // initiator's watchdog — queue waits are unbounded, so a one-shot
  // kQueued notification would not prevent false recoveries.
  if (ctx_.config->failsafe) {
    // Receipt TTL rides the existing periodic tick (a lazy sweep, like
    // flood-dedup GC): no new events, so arming the TTL keeps failsafe
    // runs byte-identical.
    sweep_completion_receipts();
    for (const auto& q : sched_->queue()) {
      notify_initiator_of(q.spec.id, NotifyMsg::Kind::kQueued);
    }
    if (running_) {
      notify_initiator_of(running_->job.spec.id, NotifyMsg::Kind::kStarted);
    }
  }

  if (!ctx_.config->dynamic_rescheduling) return;
  if (sched_->empty()) return;

  const auto candidates = sched_->rescheduling_candidates(
      ctx_.config->inform_jobs_per_period, running_remaining(),
      ctx_.sim->now());
  for (const JobId& id : candidates) {
    const sched::QueuedJob* held = sched_->find(id);
    if (held == nullptr) continue;
    const double cost = advertise(
        held->spec,
        sched_->current_cost(id, running_remaining(), ctx_.sim->now()));
    pending_informs_[id] = PendingInform{cost};
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void AriaNode::kick_executor() {
  if (running_) return;
  if (sched_->empty()) return;

  // Advance reservation: a head job whose reservation has not opened yet
  // blocks the queue (no backfilling past a reservation); wake up when it
  // opens. Queue mutations re-enter here and re-arm as needed.
  const sched::QueuedJob& head = sched_->queue().front();
  if (head.spec.earliest_start && *head.spec.earliest_start > ctx_.sim->now()) {
    reservation_wake_.cancel();
    reservation_wake_ = ctx_.sim->schedule_at(*head.spec.earliest_start,
                                              [this] { kick_executor(); });
    return;
  }

  auto next = sched_->pop_next();
  if (!next) return;

  // Once execution starts the job can no longer move (no preemption or
  // migration, paper §III-A): drop any outstanding advertisement.
  pending_informs_.erase(next->spec.id);

  const Duration art = ctx_.ert_error->actual_running_time(
      next->spec.ert, profile_.performance_index, rng_);
  const JobId id = next->spec.id;
  Running run{std::move(*next), ctx_.sim->now(), art, {}};
  run.completion =
      ctx_.sim->schedule_after(art, [this] { complete_running(); });
  running_ = std::move(run);
  emit(event::Started{id, self_});
  if (ctx_.config->failsafe) {
    notify_initiator_of(id, NotifyMsg::Kind::kStarted);
  }
}

void AriaNode::complete_running() {
  assert(running_);
  const JobId id = running_->job.spec.id;
  const Duration art = running_->art;
  if (ctx_.config->failsafe) {
    notify_initiator_of(id, NotifyMsg::Kind::kCompleted);
    // Durable receipt (see completed_here_); the timestamp feeds the TTL
    // sweep riding the inform tick.
    completed_here_[id] = ctx_.sim->now();
  }
  initiator_of_.erase(id);
  ++counters_.jobs_executed;
  running_.reset();
  emit(event::Completed{id, self_, art});
  kick_executor();
  sync_idle_gauge();
}

// ---------------------------------------------------------------------------
// Overload plane (docs/overload.md)
// ---------------------------------------------------------------------------

bool AriaNode::admission_over() const {
  return backlog_duration() >= ctx_.config->overload.admission_backlog;
}

bool AriaNode::withhold_bid() {
  if (!overload_on()) return false;
  // Hard gate: a full queue must not attract more work. Winning a bid while
  // at capacity would immediately shed a victim, and under grid-wide
  // saturation that degenerates into shed ping-pong (jobs bouncing between
  // full nodes forever). Sheds stay reachable through the genuine race —
  // two delegators assigning into the same last slot.
  if (!sched_->at_capacity()) {
    const OverloadParams& ov = ctx_.config->overload;
    const Duration backlog = backlog_duration();
    if (bids_suppressed_) {
      if (backlog <= ov.admission_backlog.scaled(ov.bid_resume)) {
        bids_suppressed_ = false;  // drained enough: resume bidding
      }
    } else if (backlog >= ov.admission_backlog.scaled(ov.bid_stop)) {
      bids_suppressed_ = true;  // saturating: stop attracting work
    }
    if (!bids_suppressed_) return false;
  }
  ++counters_.bids_suppressed;
  return true;
}

void AriaNode::on_reject(const RejectMsg& msg) {
  if (!overload_on()) return;  // knob off: nobody legitimately sends these
  // The fault plane may duplicate the wire message; each *refusal* carries
  // its own UUID, so retransmitted copies collapse while a legitimate second
  // refusal of the same (job, node) pair still gets through.
  if (!first_sighting(seen_rejects_, msg.reject_id)) return;
  handle_reject(msg.job, msg.initiator, msg.reschedule);
}

void AriaNode::handle_reject(const grid::JobSpec& spec, NodeId initiator,
                             bool reschedule) {
  // Stop retransmitting the refused attempt.
  if (auto it = pending_assigns_.find(spec.id); it != pending_assigns_.end()) {
    it->second.timer.cancel();
    pending_assigns_.erase(it);
  }
  // The job already found a home (a duplicate ASSIGN landed elsewhere, a
  // racing recovery round is in flight, or it bounced back here): starting
  // another discovery round would double-execute it.
  if (pending_requests_.contains(spec.id) || holds(spec.id) ||
      shedding(spec.id)) {
    return;
  }
  ++counters_.reject_rediscoveries;
  rediscover(spec, initiator, reschedule);
}

void AriaNode::shed_job(sched::QueuedJob&& victim) {
  ++counters_.jobs_shed;
  const JobId id = victim.spec.id;
  NodeId initiator{};
  if (auto it = initiator_of_.find(id); it != initiator_of_.end()) {
    initiator = it->second;
    initiator_of_.erase(it);
  }
  pending_informs_.erase(id);
  emit(event::Shed{victim.spec, self_});

  // Shed-and-forward: an immediate out-of-cycle INFORM burst advertising the
  // job at the cost it would incur by *staying* here, so any less-loaded
  // neighbor outbids it (a free-rider deflates even this, starving its own
  // shed bursts of rescuers).
  advertise(victim.spec,
            sched_->cost_of_adding(victim.spec, victim.ertp,
                                   running_remaining(), ctx_.sim->now()));

  ShedJob shed{std::move(victim.spec), initiator, {}};
  shed.timer = ctx_.sim->schedule_after(
      ctx_.config->overload.shed_offer_timeout,
      [this, id] { shed_offer_expired(id); });
  shed_jobs_[id] = std::move(shed);
  sync_idle_gauge();
}

void AriaNode::shed_offer_expired(const JobId& id) {
  const auto it = shed_jobs_.find(id);
  if (it == shed_jobs_.end()) return;
  ShedJob shed = std::move(it->second);
  shed_jobs_.erase(it);
  ++counters_.sheds_failsafe;
  // No taker within the offer window: fall back to the regular discovery
  // path on the initiator's behalf (same shape as a failed delegation).
  if (pending_requests_.contains(id)) return;  // a round is already running
  rediscover(std::move(shed.spec), shed.initiator, /*reschedule=*/true);
}

// ---------------------------------------------------------------------------
// Self-healing plane (docs/overlay.md)
// ---------------------------------------------------------------------------

void AriaNode::probe_tick() {
  const overlay::HealingParams& hp = ctx_.config->healing;
  ++view_.stats().probe_rounds;

  // Re-sync against the overlay: the ant-based maintainer (and the repair
  // path itself) adds and removes links between rounds, and the view must
  // follow the node's *current* neighbor list.
  for (NodeId n : ctx_.topo->neighbors(self_)) {
    if (!view_.tracked(n)) view_.track(n);
  }
  for (NodeId n : view_.tracked_peers()) {
    if (!ctx_.topo->has_link(self_, n)) view_.untrack(n);
  }

  for (NodeId peer : view_.tracked_peers()) {
    if (view_.outstanding(peer)) {
      // The previous round's probe went unanswered.
      if (view_.record_miss(peer, hp) ==
          overlay::NeighborView::Transition::kEvicted) {
        evict_neighbor(peer);
        continue;
      }
    }
    ++probe_seq_;
    view_.probe_sent(peer, probe_seq_);
    ctx_.net->send(self_, peer, std::make_unique<PingMsg>(self_, probe_seq_));
  }

  maybe_repair();
}

void AriaNode::evict_neighbor(NodeId peer) {
  view_.untrack(peer);
  // Both endpoints drop the link from their local neighbor sets; the
  // simulation stores their union, so one remove_link models both. A peer
  // that was merely partitioned converges to the same decision about us
  // from its own missed probes.
  if (ctx_.healing_topo != nullptr) {
    ctx_.healing_topo->remove_link(self_, peer);
  }
}

void AriaNode::maybe_repair() {
  const overlay::HealingParams& hp = ctx_.config->healing;
  std::size_t attempts = 0;
  std::size_t pending = 0;
  while (view_.live_degree() + pending < hp.degree_floor &&
         attempts < hp.repair_attempts) {
    const NodeId contact = view_.take_contact();
    if (!contact.valid()) break;  // cache exhausted; refills via PONG gossip
    ++attempts;
    ++pending;
    ctx_.net->send(self_, contact, std::make_unique<LinkReqMsg>(self_));
  }
}

std::vector<NodeId> AriaNode::contact_sample() {
  const overlay::HealingParams& hp = ctx_.config->healing;
  std::vector<NodeId> live = view_.live_neighbors();
  if (live.empty()) live = ctx_.topo->neighbors(self_);
  if (live.size() <= hp.gossip_contacts) return live;
  return probe_rng_.sample(live, hp.gossip_contacts);
}

void AriaNode::on_ping(NodeId from, const PingMsg& msg) {
  if (!view_.tracked(from)) {
    // The sender probed before our first round synced the view; admit it
    // lazily if the link really exists, otherwise ignore the stray probe
    // (answering would keep an evicted link half-alive).
    if (!ctx_.topo->has_link(self_, from)) return;
    view_.track(from);
  }
  ctx_.net->send(self_, from,
                 std::make_unique<PongMsg>(self_, msg.seq, contact_sample()));
}

void AriaNode::on_pong(const PongMsg& msg) {
  const overlay::HealingParams& hp = ctx_.config->healing;
  view_.pong_received(msg.from, msg.seq);
  for (NodeId c : msg.contacts) {
    view_.learn_contact(c, self_, hp.contact_cache);
  }
}

void AriaNode::on_link_req(NodeId from, const LinkReqMsg& msg) {
  // Accept unconditionally: a requester is either repairing a degree hole
  // or rejoining after a crash, and turning it away re-fragments the grid.
  (void)msg;
  if (ctx_.healing_topo != nullptr) {
    ctx_.healing_topo->add_link(self_, from);
  }
  view_.track(from);
  ctx_.net->send(self_, from,
                 std::make_unique<LinkAckMsg>(self_, contact_sample()));
}

void AriaNode::on_link_ack(const LinkAckMsg& msg) {
  const overlay::HealingParams& hp = ctx_.config->healing;
  if (ctx_.healing_topo != nullptr) {
    ctx_.healing_topo->add_link(self_, msg.from);
  }
  if (!view_.tracked(msg.from)) ++view_.stats().repair_links;
  view_.track(msg.from);
  for (NodeId c : msg.contacts) {
    view_.learn_contact(c, self_, hp.contact_cache);
  }
}

// ---------------------------------------------------------------------------
// Hierarchy plane (docs/hierarchy.md)
// ---------------------------------------------------------------------------

std::uint32_t AriaNode::my_region() const {
  return overlay::region_of(self_, ctx_.config->hierarchy.region_count);
}

bool AriaNode::region_aggregator() const {
  if (!hierarchy_on()) return false;
  const HierarchyParams& h = ctx_.config->hierarchy;
  return overlay::is_aggregator_candidate(self_, h.region_count,
                                          h.agg_standby);
}

std::optional<overlay::RegionDigest> AriaNode::region_digest_of(
    std::uint32_t region) const {
  const auto it = digest_table_.find(region);
  if (it == digest_table_.end()) return std::nullopt;
  return it->second.digest;
}

std::vector<NodeId> AriaNode::flood_targets(std::size_t fanout,
                                            NodeId exclude_a,
                                            NodeId exclude_b, bool wide) {
  if (!hierarchy_on() || wide) {
    return ctx_.relay->pick_targets(self_, fanout, exclude_a, exclude_b);
  }
  const HierarchyParams& h = ctx_.config->hierarchy;
  return ctx_.relay->pick_targets_in_region(
      self_, fanout, h.region_count, my_region(), exclude_a, exclude_b);
}

bool AriaNode::wide_flood(std::size_t attempt) const {
  const std::size_t every = ctx_.config->hierarchy.wide_flood_every;
  return hierarchy_on() && every != 0 && attempt % every == 0;
}

bool AriaNode::handle_region(const sim::Envelope& env) {
  if (auto* rl = dynamic_cast<const RegionLoadMsg*>(env.message.get())) {
    on_region_load(*rl);
  } else if (auto* rd =
                 dynamic_cast<const RegionDigestMsg*>(env.message.get())) {
    on_region_digest(*rd);
  } else if (auto* rq =
                 dynamic_cast<const RegionQueryMsg*>(env.message.get())) {
    on_region_query(*rq);
  } else if (auto* rf = dynamic_cast<const RegionFwdMsg*>(env.message.get())) {
    on_region_fwd(*rf);
  } else if (auto* rp = dynamic_cast<const RegionPullMsg*>(env.message.get())) {
    on_region_pull(env.from, *rp);
  } else {
    return false;
  }
  return true;
}

overlay::MemberLoad AriaNode::member_load() const {
  return {idle(), backlog_duration().to_seconds(),
          static_cast<std::uint32_t>(queue_length())};
}

void AriaNode::region_report_tick() {
  const HierarchyParams& h = ctx_.config->hierarchy;
  const overlay::MemberLoad load = member_load();
  // Report to every candidate (not just the primary) so standbys hold a
  // warm table and failover costs one retry, not a table rebuild.
  for (std::size_t k = 0; k < h.agg_standby; ++k) {
    const NodeId cand =
        overlay::aggregator_candidate(my_region(), h.region_count, k);
    if (cand == self_) {
      member_loads_[self_] = MemberReport{load, ctx_.sim->now()};
      continue;
    }
    ++counters_.load_reports;
    ctx_.net->send(self_, cand, std::make_unique<RegionLoadMsg>(self_, load));
  }
}

void AriaNode::region_digest_tick() {
  const HierarchyParams& h = ctx_.config->hierarchy;
  // Refresh the own entry, then age out members that stopped reporting
  // (crashed or partitioned) so the digest tracks the live region.
  member_loads_[self_] = MemberReport{member_load(), ctx_.sim->now()};
  std::vector<std::pair<NodeId, overlay::MemberLoad>> fresh;
  fresh.reserve(member_loads_.size());
  for (auto it = member_loads_.begin(); it != member_loads_.end();) {
    if (it->second.received + h.staleness <= ctx_.sim->now()) {
      it = member_loads_.erase(it);
    } else {
      fresh.emplace_back(it->first, it->second.load);
      ++it;
    }
  }
  // Id order, so the (float) backlog sum never depends on hash-map history.
  std::sort(fresh.begin(), fresh.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<overlay::MemberLoad> loads;
  loads.reserve(fresh.size());
  for (const auto& [n, l] : fresh) loads.push_back(l);
  overlay::RegionDigest digest =
      overlay::aggregate_loads(my_region(), ++digest_epoch_, loads);
  if (adv_is(sim::FaultConfig::Adversary::Role::kPoison)) {
    // Byzantine aggregator: the digest claims an inflated, fully idle,
    // backlog-free region, so remote aggregators steer cross-region
    // delegations here. The inflation deliberately exceeds the region's
    // true population — exactly the conservation bound the defense clamp
    // and the audit plane check.
    ++counters_.adv_digests_poisoned;
    const double lie = lie_factor();
    digest.members = static_cast<std::uint32_t>(std::max(
        1.0, std::ceil(static_cast<double>(std::max(
                           digest.members, std::uint32_t{1})) *
                       lie)));
    digest.idle = digest.members;
    digest.backlog_seconds = 0.0;
    digest.queue_len = 0;
  }
  // Staleness hard bound: drop remote digests past the age-out instead of
  // merely skipping them at serve time, so a region severed for hours can
  // never resurface through region_digest_of or a future code path that
  // forgets the freshness check. Behavior-neutral for serve_region_query
  // (it already skips stale entries); pure state hygiene otherwise.
  std::erase_if(digest_table_, [&](const auto& entry) {
    return entry.second.received + h.staleness <= ctx_.sim->now();
  });
  for (std::uint32_t r = 0; r < h.region_count; ++r) {
    if (r == my_region()) continue;
    for (std::size_t k = 0; k < h.agg_standby; ++k) {
      ++counters_.digests_sent;
      ctx_.net->send(
          self_, overlay::aggregator_candidate(r, h.region_count, k),
          std::make_unique<RegionDigestMsg>(self_, digest));
    }
  }
}

void AriaNode::on_region_load(const RegionLoadMsg& msg) {
  member_loads_[msg.from] = MemberReport{msg.load, ctx_.sim->now()};
  agg_cold_ = false;  // first fresh report ends a cold-restart warm-up early
}

void AriaNode::on_region_digest(const RegionDigestMsg& msg) {
  const overlay::RegionDigest& d = msg.digest;
  if (defense_on() && ctx_.config->defense.digest_clamp &&
      overlay::conservation_breaches(d, ctx_.config->hierarchy.region_count,
                                     ctx_.grid_size)
          .any()) {
    // Conservation clamp, by the rule the audit plane checks too: a lying
    // digest is rejected whole — "clamping" to a sane value would still let
    // a poisoner steer delegations — and surfaced to the audit plane.
    ++counters_.digests_clamped;
    emit(event::DigestClamped{self_, msg.from, d.region, d.epoch});
    return;
  }
  ++counters_.digests_received;
  // Last received wins: primaries and standbys broadcast independently, and
  // a later arrival is always at least as fresh a view of that region.
  digest_table_[d.region] = DigestEntry{d, ctx_.sim->now()};
}

void AriaNode::send_region_query(const grid::JobSpec& spec,
                                 std::size_t attempt) {
  const HierarchyParams& h = ctx_.config->hierarchy;
  if (h.region_count <= 1) return;  // nowhere to delegate to
  // Failover by rotation: if the rank-0 aggregator is dead the query dies
  // with it, and the next attempt addresses rank 1 — no liveness tracking.
  const std::size_t rank =
      (attempt - 1) % std::max<std::size_t>(1, h.agg_standby);
  const NodeId cand =
      overlay::aggregator_candidate(my_region(), h.region_count, rank);
  ++counters_.region_queries;
  const auto att = static_cast<std::uint32_t>(attempt);
  if (cand == self_) {
    serve_region_query(self_, spec, att, 0);  // the initiator is its own
                                              // aggregator; no wire hop
    return;
  }
  ctx_.net->send(self_, cand,
                 std::make_unique<RegionQueryMsg>(self_, spec, att));
}

void AriaNode::on_region_query(const RegionQueryMsg& msg) {
  serve_region_query(msg.initiator, msg.job, msg.attempt, msg.handoffs);
}

bool AriaNode::aggregator_cold() const {
  return agg_cold_ && ctx_.sim->now() < cold_until_;
}

void AriaNode::serve_region_query(NodeId initiator, const grid::JobSpec& spec,
                                  std::uint32_t attempt,
                                  std::uint32_t handoffs) {
  const HierarchyParams& h = ctx_.config->hierarchy;
  // Cold-restart discipline: a candidate inside its warm-up window lost its
  // tables in the crash, so an answer would silently strand the escalation.
  // Bounce the query to the next-rank candidate — at most agg_standby hops,
  // after which the holder serves best-effort rather than ping-ponging.
  if (aggregator_cold() && handoffs < h.agg_standby) {
    const std::size_t next_rank =
        (attempt - 1 + handoffs + 1) %
        std::max<std::size_t>(1, h.agg_standby);
    const NodeId next =
        overlay::aggregator_candidate(my_region(), h.region_count, next_rank);
    if (next != self_) {
      ++counters_.region_handoffs;
      ctx_.net->send(self_, next,
                     std::make_unique<RegionQueryMsg>(initiator, spec, attempt,
                                                      handoffs + 1));
      return;
    }
    // Sole candidate of the region: nobody to hand off to, serve anyway.
  }
  ++counters_.region_queries_served;
  // Candidate target regions: every fresh, non-empty digest except our own.
  std::vector<overlay::RegionDigest> cands;
  cands.reserve(digest_table_.size());
  for (const auto& [r, e] : digest_table_) {
    if (r == my_region()) continue;
    if (e.received + h.staleness <= ctx_.sim->now()) continue;
    if (e.digest.members == 0) continue;
    cands.push_back(e.digest);
  }
  if (cands.empty()) return;  // no digests yet; the initiator's region-local
                              // retry loop remains the fallback
  // Idle capacity first, then the shortest total backlog; region id breaks
  // ties deterministically.
  std::sort(cands.begin(), cands.end(),
            [](const overlay::RegionDigest& a, const overlay::RegionDigest& b) {
              if (a.idle != b.idle) return a.idle > b.idle;
              if (a.backlog_seconds != b.backlog_seconds) {
                return a.backlog_seconds < b.backlog_seconds;
              }
              return a.region < b.region;
            });
  // A digest cannot see VO or profile constraints, so the load-best region
  // may be wrong for this particular job — repeated retries must sweep the
  // others. Rotating an index into the load-sorted order is NOT a sweep:
  // idle counts drift between attempts, reshuffling the sort under the
  // rotation, and a region can be skipped on every retry (observed with a
  // job whose only matching machine sat in one region of 15). The first two
  // attempts go load-best; from the third the rotation runs over the
  // region-id order, which is stable across attempts and therefore provably
  // visits every region within cands.size() retries.
  std::size_t pick = attempt - 1;
  if (attempt > 2) {
    std::sort(cands.begin(), cands.end(),
              [](const overlay::RegionDigest& a,
                 const overlay::RegionDigest& b) { return a.region < b.region; });
    pick = attempt - 3;
  }
  const overlay::RegionDigest& target = cands[pick % cands.size()];
  const std::size_t rank =
      (attempt - 1) % std::max<std::size_t>(1, h.agg_standby);
  const NodeId remote =
      overlay::aggregator_candidate(target.region, h.region_count, rank);
  ++counters_.region_forwards;
  emit(event::RegionDelegated{spec.id, self_, my_region(), target.region});
  ctx_.net->send(self_, remote,
                 std::make_unique<RegionFwdMsg>(initiator, spec, attempt));
}

void AriaNode::on_region_fwd(const RegionFwdMsg& msg) {
  ++counters_.region_floods;
  // Entry point into this region on the remote initiator's behalf: flood a
  // REQUEST carrying the *original* initiator, so ACCEPT offers flow
  // straight back to it — this aggregator never sits on the offer path.
  const FloodMeta meta = open_flood(rng_, ctx_.config->request_hops);
  // The entry aggregator is just another member here: it competes too.
  if (msg.initiator != self_) offer_bid(msg.job, msg.initiator);
  for (NodeId t : flood_targets(ctx_.config->request_fanout)) {
    ++counters_.requests_forwarded;
    ctx_.net->send(self_, t,
                   std::make_unique<RequestMsg>(msg.initiator, msg.job, meta));
  }
}

void AriaNode::solicit_region_reports() {
  // Region-scoped flood announcing "this candidate is back and cold"; every
  // member that sees it answers with an immediate out-of-cycle REGION_LOAD.
  // The flood id comes from the hierarchy stream — this path only runs
  // after a churn restart, but the per-plane RNG discipline holds anyway.
  ++counters_.region_pulls;
  const FloodMeta meta = open_flood(hier_rng_, ctx_.config->request_hops);
  for (NodeId t : flood_targets(ctx_.config->request_fanout)) {
    ctx_.net->send(self_, t, std::make_unique<RegionPullMsg>(self_, meta));
  }
}

void AriaNode::on_region_pull(NodeId from, const RegionPullMsg& msg) {
  if (!ctx_.relay->mark_seen(self_, msg.flood.flood_id, ctx_.sim->now())) {
    return;  // duplicate
  }
  schedule_flood_gc(msg.flood.flood_id);
  // Answer straight to the soliciting candidate, skipping the report cycle.
  if (msg.from != self_) {
    ++counters_.load_reports;
    ctx_.net->send(self_, msg.from,
                   std::make_unique<RegionLoadMsg>(self_, member_load()));
  }
  forward_flood(from, msg, ctx_.config->request_fanout, nullptr);
}

// ---------------------------------------------------------------------------
// Dedup state GC
// ---------------------------------------------------------------------------

void AriaNode::schedule_flood_gc(const Uuid& flood_id) {
  overlay::FloodRelay* relay = ctx_.relay;
  ctx_.sim->schedule_after(ctx_.config->flood_gc_delay,
                           [relay, flood_id] { relay->forget(flood_id); });
}

bool AriaNode::first_sighting(std::unordered_set<Uuid>& seen, const Uuid& id) {
  if (!seen.insert(id).second) return false;
  ctx_.sim->schedule_after(ctx_.config->assign_dedup_gc_delay,
                           [&seen, id] { seen.erase(id); });
  return true;
}

}  // namespace aria::proto
