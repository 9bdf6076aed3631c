// asobs flight recorder: an always-on, fixed-size, lock-free ring of
// structured invocation records (DESIGN.md §11).
//
// The trace layer answers "where did THIS invocation's time go" but only for
// the handful of span trees the recorder still holds; `/metrics` answers
// "how fast on average". Neither can reconstruct a p99 spike that happened
// thirty seconds ago on one shard. The flight recorder fills that gap: every
// invocation (success, failure, timeout, admission rejection) deposits one
// fixed-size record — workflow, shard, outcome, and a nanosecond breakdown
// of queue wait → pool lease → module load → per-stage execution →
// net/AsBuffer transfer → pool reset — into a ring that a scraper
// (`GET /debug/flight`) or the SLO watchdog's black-box snapshot reads at
// any time without stopping writers.
//
// Hot-path contract: a writer claims a slot with one relaxed fetch_add and
// stamps each field with one relaxed atomic store. There are no locks, no
// allocation, and no string handling on the write path — workflow names are
// interned once at registration time and referenced by id. Readers use a
// per-slot seqlock (sequence odd = write in progress, changed = torn) so a
// scrape concurrent with a wrapping writer skips the slot instead of
// observing a mixed record; because every field is accessed atomically, the
// protocol is also exactly representable to TSan (no "benign race"
// suppressions).
//
// Memory: the ring is anonymous zero-fill memory, and an all-zero slot is a
// never-written one, so a page of the ring becomes resident only when a
// record lands in it. A shard that serves little traffic holds little ring.
//
// Retained span trees: a record may carry its invocation's span tree. The
// last min(8, capacity) such trees sit in a mutex-guarded ring beside the
// records, served only while their record is still in the ring, so a tree
// never outlives its record and a shard's tree memory is bounded.

#ifndef SRC_OBS_FLIGHT_H_
#define SRC_OBS_FLIGHT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/obs/trace.h"

namespace asobs {

enum class FlightOutcome : uint32_t {
  kOk = 0,
  kError = 1,
  kTimeout = 2,
  kRejected = 3,  // admission control said 429; no WFD was ever leased
};

const char* FlightOutcomeName(FlightOutcome outcome);

// How the invocation got its WFD.
enum class FlightStart : uint32_t {
  kNone = 0,   // no WFD was leased (rejection, or the boot itself failed)
  kHit = 1,    // warm pool hit
  kClone = 2,  // pool miss, clone-booted from a template
  kFull = 3,   // pool miss, full boot (Create + module loads)
};

const char* FlightStartName(FlightStart start);

// One invocation's breakdown, as handed to Record() and returned by
// Snapshot(). Timestamps are asbase::MonoNanos.
struct FlightRecord {
  static constexpr size_t kMaxStages = 6;

  // Position in the recorder's (shard's) sequence from 1; 0 = not recorded.
  // A retained span tree's Chrome pid on /trace.
  uint64_t id = 0;
  std::string workflow;  // resolved from the interned id on read
  int32_t shard = -1;
  FlightOutcome outcome = FlightOutcome::kOk;
  FlightStart start = FlightStart::kNone;
  int64_t start_nanos = 0;  // receipt (after admission)
  int64_t end_nanos = 0;    // completion / rejection
  int64_t total_nanos = 0;  // end-to-end as reported to the caller

  // The phase breakdown. Phases the invocation never reached stay zero.
  int64_t queue_wait_nanos = 0;   // admission queue (or predicted wait, on
                                  // a rejection record)
  int64_t lease_nanos = 0;        // pool lease + (cold) WFD instantiation
  int64_t module_load_nanos = 0;  // on-demand module loads during the run
  int64_t exec_nanos = 0;         // orchestrator Run wall time
  int64_t net_nanos = 0;          // AsBuffer/netstack transfer phase time
  int64_t reset_nanos = 0;        // WFD reset + park (reclaim)

  // Per-stage execution wall time, first kMaxStages stages.
  uint32_t stages = 0;
  int64_t stage_nanos[kMaxStages] = {};

  asbase::Json ToJson() const;
};

class FlightRecorder {
 public:
  // capacity 0 disables the recorder entirely: Record() returns immediately
  // and Snapshot() is empty. Capacity is fixed for the recorder's lifetime.
  explicit FlightRecorder(size_t capacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }

  // Interns a workflow name, returning the id Record() takes. Takes a mutex
  // — call at registration time and cache the id, never per invocation.
  // Idempotent: the same name always returns the same id.
  uint32_t InternWorkflow(const std::string& name);

  // Deposits one record (`id`, `workflow` ignored), attaching `trace` if
  // given; returns its id (0 = not stored). One relaxed fetch_add claims a
  // slot and one relaxed store fills each field; a slot a lapped writer still
  // holds drops the record (counted), never blocks. A tree takes one lock.
  uint64_t Record(uint32_t workflow_id, const FlightRecord& record,
                  std::shared_ptr<const Trace> trace = nullptr);

  // Copies out every consistent record, oldest first (by end_nanos).
  // `workflow` empty = all workflows; `since_nanos` > 0 keeps only records
  // with end_nanos > since_nanos (cursor-style incremental scraping).
  std::vector<FlightRecord> Snapshot(const std::string& workflow = "",
                                     int64_t since_nanos = 0) const;

  // The trees attached to the records Snapshot(workflow) returns, oldest
  // record first.
  struct RetainedTrace {
    uint64_t id = 0;
    std::shared_ptr<const Trace> trace;
  };
  std::vector<RetainedTrace> Traces(const std::string& workflow = "") const;

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  // Seqlock slot. seq even = stable, odd = write in progress, 0 = never
  // written. Plain integers, so zero-filled memory is an empty ring; every
  // access goes through std::atomic_ref, relaxed, so a racing reader
  // observes values (possibly from two different records — which the seq
  // recheck detects) rather than undefined behavior.
  struct Slot {
    uint64_t seq;
    uint64_t id;
    uint32_t workflow_id;
    int32_t shard;
    uint32_t outcome;
    uint32_t start;
    int64_t start_nanos;
    int64_t end_nanos;
    int64_t total_nanos;
    int64_t queue_wait_nanos;
    int64_t lease_nanos;
    int64_t module_load_nanos;
    int64_t exec_nanos;
    int64_t net_nanos;
    int64_t reset_nanos;
    uint32_t stages;
    int64_t stage_nanos[FlightRecord::kMaxStages];
  };
  static_assert(sizeof(Slot) == 160, "docs/operations.md quotes 160 B");
  // Holding 16 trees cost bench/serve's bulk_body ~12% more server CPU per
  // request than holding 8 (4 of 4 alternating pairs; cause not found).
  static constexpr size_t kMaxTrees = 8;

  std::string WorkflowName(uint32_t id) const;

  const size_t capacity_;
  Slot* slots_ = nullptr;  // capacity_ slots of anonymous mmap, or null
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  // The last min(kMaxTrees, capacity_) retained trees, round-robin.
  mutable std::mutex trees_mutex_;
  std::array<RetainedTrace, kMaxTrees> trees_;  // guarded by trees_mutex_
  uint64_t trees_cursor_ = 0;                    // guarded by trees_mutex_

  // Interned workflow names; id = index + 1 (0 = unknown). Append-only,
  // read under the same mutex (Snapshot is not a hot path).
  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;
};

// {"records":[FlightRecord.ToJson()...]} — the `/debug/flight` body core.
asbase::Json FlightReportJson(const std::vector<FlightRecord>& records);

// p50/p95/p99 phase attribution over a record set — the `/debug/latency`
// body. Phases are made disjoint for attribution (module_load and net happen
// *inside* exec, so "exec" here is exec minus both), plus an "other" bucket
// for total time none of the stamps cover. `tail_owner` names the bucket
// with the largest share of time across the slowest 5% of invocations —
// which phase owns the tail.
asbase::Json LatencyAttributionJson(const std::vector<FlightRecord>& records);

}  // namespace asobs

#endif  // SRC_OBS_FLIGHT_H_
