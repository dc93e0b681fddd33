// Trace exporters (docs/tracing.md).
//
// * export_jsonl — one JSON object per record, in exact collection order.
//   The machine-diffable format: two same-seed runs produce byte-identical
//   files (pinned by tests/trace/trace_determinism_test.cpp).
// * export_chrome — Chrome trace_event JSON ("{"traceEvents":[...]}"),
//   loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One thread
//   track per node carrying balanced B/E execution spans, one async track
//   per job for its lifecycle, and s/f flow arrows for bid and delegation
//   causality (REQUEST → ACCEPT → ASSIGN).
#pragma once

#include <iosfwd>

#include "trace/buffer.hpp"

namespace aria::trace {

void export_jsonl(const TraceBuffer& buffer, std::ostream& out);

void export_chrome(const TraceBuffer& buffer, std::ostream& out);

}  // namespace aria::trace
