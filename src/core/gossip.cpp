#include "core/gossip.hpp"

#include <cassert>

namespace aria::proto {

GossipNode::GossipNode(Context ctx, NodeId self, grid::NodeProfile profile,
                       std::unique_ptr<sched::LocalScheduler> scheduler,
                       Rng rng)
    : ctx_{ctx},
      self_{self},
      profile_{std::move(profile)},
      sched_{std::move(scheduler)},
      rng_{rng} {
  assert(ctx_.sim && ctx_.net && ctx_.topo && ctx_.config && ctx_.ert_error);
  assert(sched_);
}

GossipNode::~GossipNode() {
  if (started_) stop();
}

void GossipNode::start() {
  assert(!started_);
  started_ = true;
  ctx_.net->attach(self_, [this](sim::Envelope env) { handle(std::move(env)); });
  const Duration phase =
      rng_.uniform_duration(Duration::zero(), ctx_.config->gossip_period);
  gossip_timer_ = ctx_.sim->schedule_periodic(
      phase, ctx_.config->gossip_period, [this] { gossip_tick(); });
}

void GossipNode::stop() {
  started_ = false;
  gossip_timer_.cancel();
  if (running_) running_->completion.cancel();
  ctx_.net->detach(self_);
}

Duration GossipNode::running_remaining() const {
  if (!running_) return Duration::zero();
  const TimePoint eta = running_->started + running_->job.ertp;
  const Duration left = eta - ctx_.sim->now();
  return left.is_negative() ? Duration::zero() : left;
}

NodeSummary GossipNode::own_summary() const {
  NodeSummary s;
  s.node = self_;
  s.profile = profile_;
  Duration backlog = running_remaining();
  for (const auto& q : sched_->queue()) backlog += q.ertp;
  s.backlog_seconds = backlog.to_seconds();
  s.stamped = ctx_.sim->now();
  return s;
}

std::vector<NodeSummary> GossipNode::newest_summaries() const {
  // Walks the recency index, merging in the own summary, so a round costs
  // the cap rather than the cache size.
  const NodeSummary own = own_summary();
  const std::pair own_key{own.stamped, own.node};
  const std::size_t cap = ctx_.config->summaries_per_message;
  std::vector<NodeSummary> out;
  out.reserve(cap);
  bool own_sent = false;
  auto it = recency_.begin();
  while (out.size() < cap && (!own_sent || it != recency_.end())) {
    if (!own_sent && (it == recency_.end() || Newer{}(own_key, *it))) {
      out.push_back(own);
      own_sent = true;
    } else {
      out.push_back(cache_.at((it++)->second));
    }
  }
  return out;
}

void GossipNode::gossip_tick() {
  const auto& neighbors = ctx_.topo->neighbors(self_);
  if (neighbors.empty()) return;
  std::vector<NodeId> targets = rng_.sample(neighbors,
                                            ctx_.config->gossip_fanout);
  const auto payload = newest_summaries();
  for (NodeId t : targets) {
    ctx_.net->send(self_, t, std::make_unique<GossipMsg>(payload));
  }
}

void GossipNode::handle(sim::Envelope env) {
  // Type-id dispatch, as AriaNode::handle: wire types are final.
  const sim::Message& m = *env.message;
  const sim::MessageTypeId type = m.type_id();
  if (type == GossipMsg::static_type()) {
    on_gossip(static_cast<const GossipMsg&>(m));
  } else if (type == AssignMsg::static_type()) {
    accept_job(static_cast<const AssignMsg&>(m).job);
  }
}

void GossipNode::on_gossip(const GossipMsg& msg) {
  for (const NodeSummary& s : msg.summaries) {
    if (s.node == self_) continue;
    auto [it, inserted] = cache_.try_emplace(s.node, s);
    if (inserted) {
      recency_.emplace(s.stamped, s.node);
    } else if (s.stamped > it->second.stamped) {
      recency_.erase({it->second.stamped, s.node});
      recency_.emplace(s.stamped, s.node);
      it->second = s;
    }
  }
}

void GossipNode::submit(grid::JobSpec job) {
  assert(!job.id.is_nil());
  emit(event::Submitted{job, self_});
  try_assign(job, 1);
}

void GossipNode::try_assign(const grid::JobSpec& job, std::size_t attempt) {
  // Candidate set: fresh cached summaries plus this node itself.
  const TimePoint now = ctx_.sim->now();
  const double horizon = ctx_.config->max_summary_age.to_seconds();

  const NodeSummary* best = nullptr;
  double best_cost = 0.0;
  const NodeSummary self_summary = own_summary();
  auto consider = [&](const NodeSummary& s) {
    if (!grid::satisfies(s.profile, job.requirements)) return;
    if ((now - s.stamped).to_seconds() > horizon) return;
    // Estimated ETTC from the summary: advertised backlog + own ERTp.
    const double cost =
        s.backlog_seconds + job.ert_on(s.profile.performance_index).to_seconds();
    if (best == nullptr || cost < best_cost) {
      best = &s;
      best_cost = cost;
    }
  };
  consider(self_summary);
  for (const auto& [id, s] : cache_) consider(s);

  if (best == nullptr) {
    if (ctx_.config->retry.exhausted(attempt)) {
      emit(event::Unschedulable{job.id});
      return;
    }
    emit(event::RequestRetry{job.id, attempt + 1});
    grid::JobSpec copy = job;
    ctx_.sim->schedule_after(ctx_.config->retry.wait_after(attempt),
                             [this, copy = std::move(copy), attempt] {
                               try_assign(copy, attempt + 1);
                             });
    return;
  }

  if (best->node == self_) {
    accept_job(job);
    return;
  }
  ctx_.net->send(self_, best->node,
                 std::make_unique<AssignMsg>(self_, job));
}

void GossipNode::accept_job(const grid::JobSpec& spec) {
  sched_->enqueue(sched::QueuedJob{
      spec, spec.ert_on(profile_.performance_index), ctx_.sim->now(), 0});
  emit(event::Assigned{spec, self_, false});
  kick_executor();
}

void GossipNode::kick_executor() {
  if (running_) return;
  auto next = sched_->pop_next();
  if (!next) return;
  const Duration art = ctx_.ert_error->actual_running_time(
      next->spec.ert, profile_.performance_index, rng_);
  const JobId id = next->spec.id;
  Running run{std::move(*next), ctx_.sim->now(), art, {}};
  run.completion =
      ctx_.sim->schedule_after(art, [this] { complete_running(); });
  running_ = std::move(run);
  emit(event::Started{id, self_});
}

void GossipNode::complete_running() {
  assert(running_);
  const JobId id = running_->job.spec.id;
  const Duration art = running_->art;
  running_.reset();
  emit(event::Completed{id, self_, art});
  kick_executor();
}

}  // namespace aria::proto
