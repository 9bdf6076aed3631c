// asobs tracing: per-WFD spans explaining where an invocation's time went.
//
// One `Trace` lives for one `AsVisor::Invoke`: the visor opens the root
// "invoke" span, the WFD/libos/orchestrator open children (wfd_create,
// module_load, stage, function instance), each closed by RAII. A finished
// trace serializes to Chrome trace_event JSON ("traceEvents" of complete
// "ph":"X" events), so `GET /trace?workflow=...` output opens directly in
// about:tracing or https://ui.perfetto.dev.
//
// Threading: spans are created and ended from arbitrary threads (orchestrator
// instance threads included); the trace records completed spans under a
// mutex. A span itself is single-owner and movable, not shared.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace asobs {

class Trace;

// A completed span, as stored on the trace.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = no parent (root)
  std::string name;
  std::string category;
  int64_t start_nanos = 0;     // asbase::MonoNanos at StartSpan
  int64_t duration_nanos = 0;
  uint64_t thread_id = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

// RAII handle for an open span; records itself on the trace when ended
// (explicitly or by destruction).
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Id to parent child spans under; stays valid after End().
  uint32_t id() const { return id_; }
  bool active() const { return trace_ != nullptr; }

  void SetArg(std::string key, std::string value);

  // Closes the span and records it. Idempotent.
  void End();

 private:
  friend class Trace;
  Span(Trace* trace, uint32_t id, uint32_t parent, std::string name,
       std::string category);

  Trace* trace_ = nullptr;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  std::string name_;
  std::string category_;
  int64_t start_nanos_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

class Trace {
 public:
  explicit Trace(std::string workflow);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const std::string& workflow() const { return workflow_; }

  // Opens a span. parent == 0 makes a root-level span.
  Span StartSpan(std::string name, std::string category, uint32_t parent = 0);

  // Records an already-finished interval (e.g. time spent in the admission
  // queue before the trace existed) as a completed span.
  uint32_t RecordSpan(std::string name, std::string category, uint32_t parent,
                      int64_t start_nanos, int64_t duration_nanos);

  // Completed spans, in end order.
  std::vector<SpanRecord> Spans() const;

  // Drops the span list's growth slack: a trace kept after its invocation
  // ended (for /trace) holds exactly its spans.
  void ShrinkToFit();
  // Spans the list has room for without growing.
  size_t span_capacity() const;

  // Appends this trace's events to `events` as Chrome complete events.
  // `pid` groups one invocation per "process" in the viewer.
  void AppendChromeEvents(asbase::JsonArray& events, int64_t pid) const;

  // {"displayTimeUnit":"ms","traceEvents":[...]} — one invocation.
  asbase::Json ToChromeJson() const;

 private:
  friend class Span;
  void Record(SpanRecord record);

  std::string workflow_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// Flat {"workflow", "spans":[{"id","parent","name","category","dur_nanos"}]}
// for callers that want one invocation's spans as plain JSON. Built on
// demand: the invoke path does not pay for it.
asbase::Json SummarizeTrace(const Trace& trace);

}  // namespace asobs

#endif  // SRC_OBS_TRACE_H_
