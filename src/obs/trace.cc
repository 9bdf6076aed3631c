#include "src/obs/trace.h"

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace asobs {

// ---------------------------------------------------------------------- Span

Span::Span(Trace* trace, uint32_t id, uint32_t parent, std::string name,
           std::string category)
    : trace_(trace), id_(id), parent_(parent), name_(std::move(name)),
      category_(std::move(category)), start_nanos_(asbase::MonoNanos()) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    trace_ = other.trace_;
    id_ = other.id_;
    parent_ = other.parent_;
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    start_nanos_ = other.start_nanos_;
    args_ = std::move(other.args_);
    other.trace_ = nullptr;
  }
  return *this;
}

void Span::SetArg(std::string key, std::string value) {
  if (trace_ != nullptr) {
    args_.emplace_back(std::move(key), std::move(value));
  }
}

void Span::End() {
  if (trace_ == nullptr) {
    return;
  }
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = std::move(name_);
  record.category = std::move(category_);
  record.start_nanos = start_nanos_;
  record.duration_nanos = asbase::MonoNanos() - start_nanos_;
  record.thread_id = asbase::ThreadId();
  record.args = std::move(args_);
  trace_->Record(std::move(record));
  trace_ = nullptr;
}

// --------------------------------------------------------------------- Trace

Trace::Trace(std::string workflow) : workflow_(std::move(workflow)) {}

Span Trace::StartSpan(std::string name, std::string category,
                      uint32_t parent) {
  const uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return Span(this, id, parent, std::move(name), std::move(category));
}

uint32_t Trace::RecordSpan(std::string name, std::string category,
                           uint32_t parent, int64_t start_nanos,
                           int64_t duration_nanos) {
  const uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.name = std::move(name);
  record.category = std::move(category);
  record.start_nanos = start_nanos;
  record.duration_nanos = duration_nanos;
  record.thread_id = 0;
  Record(std::move(record));
  return id;
}

void Trace::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Trace::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Trace::ShrinkToFit() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.shrink_to_fit();
}

size_t Trace::span_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.capacity();
}

void Trace::AppendChromeEvents(asbase::JsonArray& events, int64_t pid) const {
  std::vector<SpanRecord> spans = Spans();
  {
    // Process metadata so the viewer shows the workflow name per invocation.
    asbase::Json meta;
    meta.Set("name", "process_name");
    meta.Set("ph", "M");
    meta.Set("pid", pid);
    asbase::Json args;
    args.Set("name", workflow_);
    meta.Set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (const SpanRecord& span : spans) {
    asbase::Json event;
    event.Set("name", span.name);
    event.Set("cat", span.category);
    event.Set("ph", "X");
    // Chrome wants microseconds; keep nanosecond precision as fractions.
    event.Set("ts", static_cast<double>(span.start_nanos) / 1e3);
    event.Set("dur", static_cast<double>(span.duration_nanos) / 1e3);
    event.Set("pid", pid);
    event.Set("tid", static_cast<int64_t>(span.thread_id));
    asbase::Json args;
    args.Set("span_id", static_cast<int64_t>(span.id));
    args.Set("parent_id", static_cast<int64_t>(span.parent));
    for (const auto& [key, value] : span.args) {
      args.Set(key, value);
    }
    event.Set("args", std::move(args));
    events.push_back(std::move(event));
  }
}

asbase::Json Trace::ToChromeJson() const {
  asbase::JsonArray events;
  AppendChromeEvents(events, /*pid=*/1);
  asbase::Json doc;
  doc.Set("displayTimeUnit", "ms");
  doc.Set("traceEvents", asbase::Json(std::move(events)));
  return doc;
}

asbase::Json SummarizeTrace(const Trace& trace) {
  asbase::Json summary;
  summary.Set("workflow", trace.workflow());
  asbase::Json spans{asbase::JsonArray{}};
  for (const SpanRecord& record : trace.Spans()) {
    asbase::Json span;
    span.Set("id", static_cast<int64_t>(record.id));
    span.Set("parent", static_cast<int64_t>(record.parent));
    span.Set("name", record.name);
    span.Set("category", record.category);
    span.Set("dur_nanos", record.duration_nanos);
    spans.Append(std::move(span));
  }
  summary.Set("spans", std::move(spans));
  return summary;
}

}  // namespace asobs
