#include "trace/collector.hpp"

#include <type_traits>

namespace aria::trace {

namespace {

namespace ev = proto::event;

template <TraceEventKind K, class Event>
constexpr bool kAligned = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(K),
                               proto::ProtocolEvent>,
    Event>;
static_assert(kAligned<TraceEventKind::kSubmitted, ev::Submitted> &&
              kAligned<TraceEventKind::kRetry, ev::RequestRetry> &&
              kAligned<TraceEventKind::kUnschedulable, ev::Unschedulable> &&
              kAligned<TraceEventKind::kBidSent, ev::BidSent> &&
              kAligned<TraceEventKind::kBidReceived, ev::BidReceived> &&
              kAligned<TraceEventKind::kDelegated, ev::Delegated> &&
              kAligned<TraceEventKind::kAssigned, ev::Assigned> &&
              kAligned<TraceEventKind::kStarted, ev::Started> &&
              kAligned<TraceEventKind::kCompleted, ev::Completed> &&
              kAligned<TraceEventKind::kRecovery, ev::Recovery> &&
              kAligned<TraceEventKind::kAbandoned, ev::Abandoned> &&
              kAligned<TraceEventKind::kShed, ev::Shed> &&
              kAligned<TraceEventKind::kRejected, ev::Rejected>,
              "lifecycle TraceEventKinds mirror ProtocolEvent's alternatives");

// Per-event payload; `kind` and `at` are already set. Field meanings are
// documented on TraceEventKind.
void fill(TraceRecord& r, const ev::Submitted& e) {
  r.job = e.job.id;
  r.node = e.initiator;
}
void fill(TraceRecord& r, const ev::RequestRetry& e) {
  r.job = e.id;
  r.a = static_cast<std::uint32_t>(e.attempt);
}
void fill(TraceRecord& r, const ev::Unschedulable& e) { r.job = e.id; }
void fill(TraceRecord& r, const ev::BidSent& e) {
  r.job = e.id;
  r.node = e.bidder;
  r.peer = e.to;
  r.value = e.cost;
}
void fill(TraceRecord& r, const ev::BidReceived& e) {
  r.job = e.id;
  r.node = e.collector;
  r.peer = e.bidder;
  r.value = e.cost;
}
void fill(TraceRecord& r, const ev::Delegated& e) {
  r.job = e.id;
  r.node = e.from;
  r.peer = e.to;
  r.flags = e.reschedule ? TraceRecord::kReschedule : 0;
}
void fill(TraceRecord& r, const ev::Assigned& e) {
  r.job = e.job.id;
  r.node = e.node;
  r.flags = e.reschedule ? TraceRecord::kReschedule : 0;
}
void fill(TraceRecord& r, const ev::Started& e) {
  r.job = e.id;
  r.node = e.node;
}
void fill(TraceRecord& r, const ev::Completed& e) {
  r.job = e.id;
  r.node = e.node;
  r.value = e.art.to_seconds();
}
void fill(TraceRecord& r, const ev::Recovery& e) {
  r.job = e.id;
  r.a = static_cast<std::uint32_t>(e.attempt);
}
void fill(TraceRecord& r, const ev::Abandoned& e) { r.job = e.id; }
void fill(TraceRecord& r, const ev::Shed& e) {
  r.job = e.job.id;
  r.node = e.node;
}
void fill(TraceRecord& r, const ev::Rejected& e) {
  r.job = e.id;
  r.node = e.node;
}
void fill(TraceRecord&, const auto&) {}  // untraced: never reached

}  // namespace

TraceCollector::TraceCollector(const TraceConfig& config)
    : buffer_{std::make_shared<TraceBuffer>(config)} {}

void TraceCollector::on_event(TimePoint at,
                              const proto::ProtocolEvent& event) {
  if (event.index() >= static_cast<std::size_t>(TraceEventKind::kMsg)) return;
  TraceRecord r;
  r.kind = static_cast<TraceEventKind>(event.index());
  r.at = at;
  std::visit([&r](const auto& e) { fill(r, e); }, event);
  buffer_->record(r);
}

void TraceCollector::on_message(NodeId from, NodeId to,
                                const sim::Message& message, TimePoint sent,
                                TimePoint deliver, bool faulted) {
  TraceRecord r;
  r.kind = TraceEventKind::kMsg;
  r.at = sent;
  r.node = from;
  r.peer = to;
  r.end = deliver;
  r.value = static_cast<double>(message.wire_size());
  r.a = static_cast<std::uint32_t>(message.type_id().index());
  r.b = message.flood_hops_left();
  if (faulted) r.flags |= TraceRecord::kFaultDropped;
  buffer_->record(r);
}

}  // namespace aria::trace
