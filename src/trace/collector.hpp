// TraceCollector: turns protocol events and network-tap sends into
// TraceRecords.
//
// The collector is one subscriber among several: the engine adds it to the
// run's proto::ObserverList beside the JobTracker and to the
// sim::TapList feeding the Network, at trace.message_sample_every. It
// only records; it never forwards, sends or draws randomness, so attaching
// it never alters what any other subscriber sees. Construction only happens
// when TraceConfig::enabled is true; a disabled trace plane has no
// collector and no subscriptions, which is what keeps default output
// byte-identical (docs/tracing.md).
#pragma once

#include <memory>

#include "core/observer.hpp"
#include "sim/network.hpp"
#include "trace/buffer.hpp"

namespace aria::trace {

class TraceCollector final : public proto::ProtocolObserver,
                             public sim::MessageTap {
 public:
  explicit TraceCollector(const TraceConfig& config);

  /// The collected stream; shared so RunResult can keep it alive after the
  /// simulation (and its collector) is gone.
  std::shared_ptr<const TraceBuffer> buffer() const { return buffer_; }

  /// Records one lifecycle event as the TraceEventKind of the same index;
  /// the hierarchy and defense events past kRejected are not traced.
  void on_event(TimePoint at, const proto::ProtocolEvent& event) override;

  void on_message(NodeId from, NodeId to, const sim::Message& message,
                  TimePoint sent, TimePoint deliver, bool faulted) override;

 private:
  std::shared_ptr<TraceBuffer> buffer_;
};

}  // namespace aria::trace
