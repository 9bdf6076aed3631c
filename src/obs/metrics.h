// asobs: process-global metrics for a live AsVisor (observability tentpole).
//
// The bench harness measures AlloyStack from the outside; this registry is
// the inside view — counters and latency summaries the runtime updates on
// its hot paths and the watchdog exports as Prometheus text (`GET /metrics`).
//
// Design rules, in order:
//   1. Hot paths pay one relaxed atomic op, or nothing. Instrumented sites
//      cache `Counter&` references (stable for the process lifetime) so the
//      name/label lookup happens once. Paths too hot even for that (the MPK
//      domain switch) register a *collector* instead: a callback that reads
//      counters the subsystem already maintains, at scrape time only.
//   2. Metric names follow `alloy_<subsystem>_<what>_<unit>` (DESIGN.md
//      "Observability"). The standard families are declared up front so
//      `/metrics` always shows the full schema, zero-valued or not.
//   3. Exposition is deterministic (families and series sorted) so tests can
//      golden-check it.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <forward_list>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"

namespace asobs {

// Label set attached to one series, e.g. {{"backend", "emulated"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kSummary };

// Monotonically increasing count. All ops are relaxed atomics.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time value (resident bytes, live WFDs, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Thread-safe, windowed latency summary of bounded size.
//
// Samples land in log-linear buckets: exact below 16, then 8 sub-buckets
// per power of two, so a bucket is at most 1/8 of its lower bound wide. A
// quantile is read as its bucket's midpoint, clamped to the observed
// min/max, which puts it within 1/16 (6.25%) of the exact nearest-rank
// value. Two epochs keep recency: when the current epoch reaches `window`
// samples it becomes the previous one and recording starts fresh, so a
// summary covers between `window` and `2*window` recent samples. Each epoch
// stores counts only over the bucket range it has seen, so a series that
// holds one sample holds one bucket, and a full one at most kBuckets per
// epoch (~2 KiB) whatever its sample count. Values below zero record as 0.
//
// Histograms lock one of a fixed set of process-wide mutexes, picked by
// address, instead of owning one: a registry holds several per workflow.
class LatencyHistogram {
 public:
  // Bucket indices span every non-negative int64_t.
  static constexpr int kBuckets = 488;

  explicit LatencyHistogram(size_t window = 1u << 16)
      : window_(static_cast<uint32_t>(
            std::min<size_t>(window, UINT32_MAX))) {}

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(int64_t value_nanos);

  // What /metrics exports, read from the buckets of both epochs.
  struct Summary {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t p50 = 0;
    int64_t p99 = 0;
    int64_t p999 = 0;
  };
  Summary Summarize() const;

  // Both epochs as an exact-percentile histogram holding each bucket's
  // representative once per sample (counts and quantiles match
  // Summarize()). It allocates per sample: diagnostics and tests only.
  asbase::Histogram Snapshot() const;
  void Reset();

  // Heap bytes the bucket counts of both epochs hold.
  size_t BucketBytes() const;

  // Bucket of a value, and the value a bucket reports before clamping.
  static int BucketOf(int64_t value);
  static int64_t Representative(int bucket);

 private:
  // Counts of one epoch over bucket indices [lo, hi); `counts[i - lo]` is
  // bucket i. Storage grows to cover each new index, never beyond.
  struct Epoch {
    std::unique_ptr<uint32_t[]> counts;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    uint32_t count = 0;
    uint16_t lo = 0;
    uint16_t hi = 0;

    void Add(int bucket, int64_t value);
    uint32_t At(int bucket) const {
      return bucket >= lo && bucket < hi ? counts[bucket - lo] : 0;
    }
    void Clear();
  };

  std::mutex& mutex() const;
  Summary SummarizeLocked() const;

  uint32_t window_;
  Epoch current_;
  Epoch previous_;
};

// Hands collector callbacks a way to contribute samples at scrape time.
class MetricEmitter {
 public:
  void Emit(const std::string& name, MetricType type, const Labels& labels,
            uint64_t value);

 private:
  friend class Registry;
  struct Sample {
    std::string name;
    MetricType type;
    Labels labels;
    uint64_t value;
  };
  std::vector<Sample> samples_;
};

class Registry {
 public:
  Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every runtime component reports into.
  static Registry& Global();

  // Lookup-or-create. The returned reference is stable for the lifetime of
  // the registry; instrumented sites cache it. Type mismatches on an
  // existing name abort (a metric name means one thing).
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  LatencyHistogram& GetHistogram(const std::string& name,
                                 const Labels& labels = {});

  // Declares an (initially empty) family so its `# TYPE` line always shows
  // in the exposition, even before the first series is created.
  void DeclareFamily(const std::string& name, MetricType type);

  // Scrape-time callback; emits samples computed from state the subsystem
  // already keeps (zero hot-path cost). Runs on every RenderPrometheus().
  void RegisterCollector(std::function<void(MetricEmitter&)> collector);

  // Prometheus text exposition format 0.0.4.
  std::string RenderPrometheus() const;

  // Zeroes every series in place. Series objects and collectors survive, so
  // the `Counter&` references instrumented sites cache stay valid. Tests
  // only. (Collector-backed values reflect live subsystem state and are not
  // zeroed here.)
  void Reset();

 private:
  // A family's name and type, as a node of families_.
  using FamilyEntry = std::pair<const std::string, MetricType>;
  // A family's series under one label set. List nodes never move, so a
  // value's address is the reference GetCounter & co. hand out.
  template <typename T>
  using SeriesList = std::forward_list<std::pair<const FamilyEntry*, T>>;
  // Every series carrying one label set, whatever its family: the label
  // set is stored once (as its serialized key), and each series costs one
  // list node holding its value. A workflow's ~20 series share one entry.
  struct LabelSet {
    SeriesList<Counter> counters;
    SeriesList<Gauge> gauges;
    SeriesList<LatencyHistogram> summaries;
  };

  const FamilyEntry& FamilyLocked(const std::string& name, MetricType type);
  LabelSet& LabelSetLocked(const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, MetricType> families_;
  // Keyed by SerializeLabels(labels).
  std::map<std::string, LabelSet> label_sets_;
  std::vector<std::function<void(MetricEmitter&)>> collectors_;
};

// `{a="b",c="d"}` with Prometheus escaping; empty labels render as "".
std::string SerializeLabels(const Labels& labels);

}  // namespace asobs

#endif  // SRC_OBS_METRICS_H_
