#include "src/obs/flight.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>

#include "src/common/histogram.h"
#include "src/common/logging.h"

namespace asobs {
namespace {

// Relaxed atomic access to a plain slot field (the seqlock orders them).
template <typename T>
void Put(T& field, T value) {
  std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
}
template <typename T>
T Get(T& field) {
  return std::atomic_ref<T>(field).load(std::memory_order_relaxed);
}

}  // namespace

const char* FlightOutcomeName(FlightOutcome outcome) {
  switch (outcome) {
    case FlightOutcome::kOk:
      return "ok";
    case FlightOutcome::kError:
      return "error";
    case FlightOutcome::kTimeout:
      return "timeout";
    case FlightOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

const char* FlightStartName(FlightStart start) {
  switch (start) {
    case FlightStart::kNone:
      return "none";
    case FlightStart::kHit:
      return "hit";
    case FlightStart::kClone:
      return "clone";
    case FlightStart::kFull:
      return "full";
  }
  return "unknown";
}

asbase::Json FlightRecord::ToJson() const {
  asbase::Json doc{asbase::JsonObject{}};
  doc.Set("id", static_cast<int64_t>(id));
  doc.Set("workflow", workflow);
  doc.Set("shard", static_cast<int64_t>(shard));
  doc.Set("outcome", FlightOutcomeName(outcome));
  doc.Set("start", FlightStartName(start));
  doc.Set("start_nanos", start_nanos);
  doc.Set("end_nanos", end_nanos);
  doc.Set("total_nanos", total_nanos);
  asbase::Json phases{asbase::JsonObject{}};
  phases.Set("queue_wait_nanos", queue_wait_nanos);
  phases.Set("lease_nanos", lease_nanos);
  phases.Set("module_load_nanos", module_load_nanos);
  phases.Set("exec_nanos", exec_nanos);
  phases.Set("net_nanos", net_nanos);
  phases.Set("reset_nanos", reset_nanos);
  doc.Set("phases", std::move(phases));
  asbase::JsonArray stage_list;
  for (uint32_t i = 0; i < stages && i < kMaxStages; ++i) {
    stage_list.push_back(asbase::Json(stage_nanos[i]));
  }
  doc.Set("stage_nanos", asbase::Json(std::move(stage_list)));
  return doc;
}

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) {
    // Anonymous memory is zero-filled on first touch: the ring costs
    // address space until records arrive, resident pages only after.
    AS_CHECK(capacity_ <= SIZE_MAX / sizeof(Slot)) << "flight ring too large";
    void* ring = ::mmap(nullptr, capacity_ * sizeof(Slot),
                        PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                        -1, 0);
    AS_CHECK(ring != MAP_FAILED) << "cannot map a " << capacity_
                                 << "-record flight ring";
    slots_ = static_cast<Slot*>(ring);
  }
}

FlightRecorder::~FlightRecorder() {
  if (slots_ != nullptr) {
    ::munmap(slots_, capacity_ * sizeof(Slot));
  }
}

uint32_t FlightRecorder::InternWorkflow(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i + 1);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size());
}

std::string FlightRecorder::WorkflowName(uint32_t id) const {
  std::lock_guard<std::mutex> lock(names_mutex_);
  if (id == 0 || id > names_.size()) {
    return "";
  }
  return names_[id - 1];
}

uint64_t FlightRecorder::Record(uint32_t workflow_id,
                                const FlightRecord& record,
                                std::shared_ptr<const Trace> trace) {
  if (capacity_ == 0) {
    return 0;
  }
  const uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id = ticket + 1;
  Slot& slot = slots_[ticket % capacity_];

  // Claim the slot: even → odd on whatever sequence the slot is at. The CAS
  // fails only when a lapped writer (the ring wrapped a full turn mid-write)
  // is inside the same slot right now — then drop and count, never spin on
  // a hot path. The claim must NOT expect a lap-derived value (2 × lap):
  // one dropped write would leave the slot's sequence behind every later
  // ticket's expectation and permanently kill the slot.
  std::atomic_ref<uint64_t> seq(slot.seq);
  uint64_t expected = seq.load(std::memory_order_relaxed);
  if ((expected & 1) != 0 ||
      !seq.compare_exchange_strong(expected, expected + 1,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  Put(slot.id, id);
  Put(slot.workflow_id, workflow_id);
  Put(slot.shard, record.shard);
  Put(slot.outcome, static_cast<uint32_t>(record.outcome));
  Put(slot.start, static_cast<uint32_t>(record.start));
  Put(slot.start_nanos, record.start_nanos);
  Put(slot.end_nanos, record.end_nanos);
  Put(slot.total_nanos, record.total_nanos);
  Put(slot.queue_wait_nanos, record.queue_wait_nanos);
  Put(slot.lease_nanos, record.lease_nanos);
  Put(slot.module_load_nanos, record.module_load_nanos);
  Put(slot.exec_nanos, record.exec_nanos);
  Put(slot.net_nanos, record.net_nanos);
  Put(slot.reset_nanos, record.reset_nanos);
  const uint32_t stages =
      std::min<uint32_t>(record.stages, FlightRecord::kMaxStages);
  Put(slot.stages, stages);
  for (uint32_t i = 0; i < stages; ++i) {
    Put(slot.stage_nanos[i], record.stage_nanos[i]);
  }

  // Release: odd → even of the next lap. Readers that acquire-loaded the odd
  // value skip; readers that see the even value and re-read it unchanged got
  // a consistent record.
  seq.store(expected + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);

  if (trace != nullptr) {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    RetainedTrace& held =
        trees_[trees_cursor_++ % std::min(capacity_, kMaxTrees)];
    held.id = id;
    // The displaced tree leaves in `trace`, destroyed after the lock drops.
    held.trace.swap(trace);
  }
  return id;
}

std::vector<FlightRecorder::RetainedTrace> FlightRecorder::Traces(
    const std::string& workflow) const {
  const auto held = [this] {
    std::lock_guard<std::mutex> lock(trees_mutex_);
    return trees_;
  }();
  // Only trees whose record the ring still holds: none outlives its record.
  std::vector<RetainedTrace> out;
  for (const FlightRecord& record : Snapshot(workflow)) {
    for (const RetainedTrace& tree : held) {
      if (tree.trace != nullptr && tree.id == record.id) {
        out.push_back(tree);
      }
    }
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::Snapshot(const std::string& workflow,
                                                   int64_t since_nanos) const {
  std::vector<FlightRecord> out;
  if (capacity_ == 0) {
    return out;
  }
  // Slot i has been written only if some ticket i + k * capacity_ was
  // claimed, so the untouched tail of a young ring is neither scanned nor
  // paged in.
  const size_t live = static_cast<size_t>(std::min<uint64_t>(
      cursor_.load(std::memory_order_relaxed), capacity_));
  out.reserve(live);
  for (size_t i = 0; i < live; ++i) {
    Slot& slot = slots_[i];
    std::atomic_ref<uint64_t> seq(slot.seq);
    FlightRecord record;
    uint32_t workflow_id = 0;
    bool consistent = false;
    // Two attempts: a slot that changes twice under one scrape is being
    // hammered; its contents will show up again on the next scrape.
    for (int attempt = 0; attempt < 2 && !consistent; ++attempt) {
      const uint64_t before = seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) {
        break;  // never written, or write in progress
      }
      record.id = Get(slot.id);
      workflow_id = Get(slot.workflow_id);
      record.shard = Get(slot.shard);
      record.outcome = static_cast<FlightOutcome>(Get(slot.outcome));
      record.start = static_cast<FlightStart>(Get(slot.start));
      record.start_nanos = Get(slot.start_nanos);
      record.end_nanos = Get(slot.end_nanos);
      record.total_nanos = Get(slot.total_nanos);
      record.queue_wait_nanos = Get(slot.queue_wait_nanos);
      record.lease_nanos = Get(slot.lease_nanos);
      record.module_load_nanos = Get(slot.module_load_nanos);
      record.exec_nanos = Get(slot.exec_nanos);
      record.net_nanos = Get(slot.net_nanos);
      record.reset_nanos = Get(slot.reset_nanos);
      record.stages =
          std::min<uint32_t>(Get(slot.stages), FlightRecord::kMaxStages);
      for (uint32_t s = 0; s < record.stages; ++s) {
        record.stage_nanos[s] = Get(slot.stage_nanos[s]);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      consistent = seq.load(std::memory_order_relaxed) == before;
    }
    if (!consistent) {
      continue;
    }
    if (since_nanos > 0 && record.end_nanos <= since_nanos) {
      continue;
    }
    record.workflow = WorkflowName(workflow_id);
    if (!workflow.empty() && record.workflow != workflow) {
      continue;
    }
    out.push_back(std::move(record));
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.end_nanos < b.end_nanos;
            });
  return out;
}

asbase::Json FlightReportJson(const std::vector<FlightRecord>& records) {
  asbase::JsonArray list;
  list.reserve(records.size());
  for (const FlightRecord& record : records) {
    list.push_back(record.ToJson());
  }
  asbase::Json doc{asbase::JsonObject{}};
  doc.Set("count", static_cast<int64_t>(records.size()));
  doc.Set("records", asbase::Json(std::move(list)));
  return doc;
}

namespace {

// Disjoint attribution buckets (see LatencyAttributionJson's header comment).
struct Buckets {
  static constexpr size_t kCount = 7;
  static const char* Name(size_t i) {
    static const char* names[kCount] = {"queue_wait", "lease", "module_load",
                                        "exec",       "net",   "reset",
                                        "other"};
    return names[i];
  }
  static void Fill(const FlightRecord& r, int64_t out[kCount]) {
    out[0] = r.queue_wait_nanos;
    out[1] = r.lease_nanos;
    out[2] = r.module_load_nanos;
    out[3] = std::max<int64_t>(
        0, r.exec_nanos - r.module_load_nanos - r.net_nanos);
    out[4] = r.net_nanos;
    out[5] = r.reset_nanos;
    int64_t covered = out[0] + out[1] + out[2] + out[3] + out[4] + out[5];
    out[6] = std::max<int64_t>(0, r.total_nanos - covered);
  }
};

asbase::Json Quantiles(const asbase::Histogram& hist) {
  asbase::Json doc{asbase::JsonObject{}};
  doc.Set("p50_nanos", hist.Percentile(0.50));
  doc.Set("p95_nanos", hist.Percentile(0.95));
  doc.Set("p99_nanos", hist.Percentile(0.99));
  return doc;
}

}  // namespace

asbase::Json LatencyAttributionJson(const std::vector<FlightRecord>& records) {
  asbase::Json doc{asbase::JsonObject{}};
  doc.Set("count", static_cast<int64_t>(records.size()));
  if (records.empty()) {
    return doc;
  }

  asbase::Histogram totals;
  asbase::Histogram per_bucket[Buckets::kCount];
  for (const FlightRecord& record : records) {
    totals.Record(record.total_nanos);
    int64_t values[Buckets::kCount];
    Buckets::Fill(record, values);
    for (size_t i = 0; i < Buckets::kCount; ++i) {
      per_bucket[i].Record(values[i]);
    }
  }
  doc.Set("total", Quantiles(totals));

  // Tail attribution: among the slowest 5% of invocations, which bucket owns
  // the most time?
  const int64_t tail_cut = totals.Percentile(0.95);
  int64_t tail_sums[Buckets::kCount] = {};
  int64_t tail_total = 0;
  for (const FlightRecord& record : records) {
    if (record.total_nanos < tail_cut) {
      continue;
    }
    int64_t values[Buckets::kCount];
    Buckets::Fill(record, values);
    for (size_t i = 0; i < Buckets::kCount; ++i) {
      tail_sums[i] += values[i];
      tail_total += values[i];
    }
  }

  asbase::Json phases{asbase::JsonObject{}};
  size_t owner = 0;
  for (size_t i = 0; i < Buckets::kCount; ++i) {
    asbase::Json phase = Quantiles(per_bucket[i]);
    const double share =
        tail_total > 0
            ? static_cast<double>(tail_sums[i]) /
                  static_cast<double>(tail_total)
            : 0.0;
    phase.Set("tail_share", std::round(share * 1000.0) / 1000.0);
    phases.Set(Buckets::Name(i), std::move(phase));
    if (tail_sums[i] > tail_sums[owner]) {
      owner = i;
    }
  }
  doc.Set("phases", std::move(phases));
  doc.Set("tail_owner", Buckets::Name(owner));
  return doc;
}

}  // namespace asobs
