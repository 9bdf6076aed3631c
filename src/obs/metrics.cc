#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <tuple>

#include "src/common/logging.h"

namespace asobs {
namespace {

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kSummary:
      return "summary";
  }
  return "untyped";
}

void AppendEscaped(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

// The metric-naming contract (DESIGN.md "Observability"). Declared on
// registry construction so `/metrics` always exposes the full schema.
constexpr struct {
  const char* name;
  MetricType type;
} kStandardFamilies[] = {
    {"alloy_visor_invocations_total", MetricType::kCounter},
    {"alloy_visor_invocation_failures_total", MetricType::kCounter},
    {"alloy_visor_invoke_nanos", MetricType::kSummary},
    {"alloy_visor_pool_hits_total", MetricType::kCounter},
    {"alloy_visor_pool_misses_total", MetricType::kCounter},
    {"alloy_visor_pool_evictions_total", MetricType::kCounter},
    {"alloy_visor_timeouts_total", MetricType::kCounter},
    {"alloy_visor_rejections_total", MetricType::kCounter},
    {"alloy_visor_inflight", MetricType::kGauge},
    {"alloy_visor_queued", MetricType::kGauge},
    {"alloy_visor_queue_wait_nanos", MetricType::kSummary},
    {"alloy_visor_prewarms_total", MetricType::kCounter},
    {"alloy_visor_warmer_wakeups_total", MetricType::kCounter},
    {"alloy_visor_pool_resident_bytes", MetricType::kGauge},
    {"alloy_visor_pool_lease_nanos", MetricType::kSummary},
    {"alloy_visor_snapshot_creates_total", MetricType::kCounter},
    {"alloy_visor_snapshot_clones_total", MetricType::kCounter},
    {"alloy_visor_snapshot_invalidations_total", MetricType::kCounter},
    {"alloy_visor_snapshot_fallback_boots_total", MetricType::kCounter},
    {"alloy_visor_snapshot_clone_nanos", MetricType::kSummary},
    {"alloy_visor_flight_records_total", MetricType::kCounter},
    {"alloy_visor_flight_dropped_total", MetricType::kCounter},
    {"alloy_visor_traces_retained_total", MetricType::kCounter},
    {"alloy_slo_burn_rate", MetricType::kGauge},
    {"alloy_slo_blackbox_snapshots_total", MetricType::kCounter},
    {"alloy_rebalance_reslices_total", MetricType::kCounter},
    {"alloy_rebalance_migrations_total", MetricType::kCounter},
    {"alloy_rebalance_scale_ups_total", MetricType::kCounter},
    {"alloy_rebalance_scale_downs_total", MetricType::kCounter},
    {"alloy_rebalance_shards", MetricType::kGauge},
    {"alloy_rebalance_queue_handoffs_total", MetricType::kCounter},
    {"alloy_orch_thread_spawns_total", MetricType::kCounter},
    {"alloy_orch_dispatch_nanos", MetricType::kSummary},
    {"alloy_libos_module_loads_total", MetricType::kCounter},
    {"alloy_libos_module_hits_total", MetricType::kCounter},
    {"alloy_libos_module_load_nanos", MetricType::kSummary},
    {"alloy_mpk_domain_switches_total", MetricType::kCounter},
    {"alloy_mpk_domain_switch_nanos_total", MetricType::kCounter},
    {"alloy_asbuffer_bytes_total", MetricType::kCounter},
    {"alloy_asbuffer_transfer_bytes", MetricType::kSummary},
    {"alloy_asbuffer_tx_pins_total", MetricType::kCounter},
    {"alloy_asbuffer_tx_pinned", MetricType::kGauge},
    {"alloy_asbuffer_pinned_release_total", MetricType::kCounter},
    {"alloy_net_tx_packets_total", MetricType::kCounter},
    {"alloy_net_rx_packets_total", MetricType::kCounter},
    {"alloy_net_tx_bytes_total", MetricType::kCounter},
    {"alloy_net_rx_bytes_total", MetricType::kCounter},
    {"alloy_net_poll_iterations_total", MetricType::kCounter},
    {"alloy_net_rx_dropped_total", MetricType::kCounter},
    {"alloy_net_tx_backpressure_nanos", MetricType::kSummary},
    {"alloy_net_tx_pins_aborted_total", MetricType::kCounter},
    {"alloy_net_rx_pool_blocks_total", MetricType::kCounter},
    {"alloy_edge_connections", MetricType::kGauge},
    {"alloy_edge_accepts_total", MetricType::kCounter},
    {"alloy_edge_overflows_total", MetricType::kCounter},
    {"alloy_edge_reaped_total", MetricType::kCounter},
    {"alloy_edge_parse_errors_total", MetricType::kCounter},
    {"alloy_edge_requests_total", MetricType::kCounter},
    {"alloy_fs_read_ops_total", MetricType::kCounter},
    {"alloy_fs_write_ops_total", MetricType::kCounter},
    {"alloy_fs_read_bytes_total", MetricType::kCounter},
    {"alloy_fs_write_bytes_total", MetricType::kCounter},
};

}  // namespace

std::string SerializeLabels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += key;
    out += "=\"";
    AppendEscaped(out, value);
    out += "\"";
  }
  out += "}";
  return out;
}

// ------------------------------------------------------- LatencyHistogram

namespace {

// Log-linear bucketing: 2^kSubBits sub-buckets per power of two. Values
// below 2^(kSubBits + 1) have a bucket each.
constexpr int kSubBits = 3;
constexpr int kSubBuckets = 1 << kSubBits;
constexpr int64_t kExactBelow = 2 * kSubBuckets;
// The last bucket holds INT64_MAX, whose octave is 62.
static_assert(LatencyHistogram::kBuckets == (62 - kSubBits + 2) * kSubBuckets);

// Non-negative sums saturate instead of overflowing.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? INT64_MAX : sum;
}

// Nearest-rank index of quantile q among n samples, as
// asbase::Histogram::Percentile ranks them.
uint64_t RankOf(double q, uint64_t n) {
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > 0) {
    rank -= 1;
  }
  return std::min(rank, n - 1);
}

}  // namespace

std::mutex& LatencyHistogram::mutex() const {
  static std::mutex stripes[64];
  const uintptr_t address = reinterpret_cast<uintptr_t>(this);
  return stripes[(address >> 4) * 0x9E3779B97F4A7C15ULL >> 58];
}

int LatencyHistogram::BucketOf(int64_t value) {
  if (value < kExactBelow) {
    return static_cast<int>(std::max<int64_t>(value, 0));
  }
  const int octave = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int shift = octave - kSubBits;
  return (shift + 1) * kSubBuckets +
         static_cast<int>((value >> shift) & (kSubBuckets - 1));
}

int64_t LatencyHistogram::Representative(int bucket) {
  if (bucket < kExactBelow) {
    return bucket;
  }
  const int shift = bucket / kSubBuckets - 1;
  const int64_t lower = static_cast<int64_t>(kSubBuckets + bucket % kSubBuckets)
                        << shift;
  const int64_t width = int64_t{1} << shift;
  return lower + (width - 1) / 2;
}

void LatencyHistogram::Epoch::Add(int bucket, int64_t value) {
  if (bucket < lo || bucket >= hi) {
    const int new_lo = counts == nullptr ? bucket : std::min<int>(lo, bucket);
    const int new_hi =
        counts == nullptr ? bucket + 1 : std::max<int>(hi, bucket + 1);
    auto grown = std::make_unique<uint32_t[]>(new_hi - new_lo);  // zeroed
    if (counts != nullptr) {
      std::copy(counts.get(), counts.get() + (hi - lo),
                grown.get() + (lo - new_lo));
    }
    counts = std::move(grown);
    lo = static_cast<uint16_t>(new_lo);
    hi = static_cast<uint16_t>(new_hi);
  }
  ++counts[bucket - lo];
  if (count == 0 || value < min) {
    min = value;
  }
  if (count == 0 || value > max) {
    max = value;
  }
  ++count;
  sum = SaturatingAdd(sum, value);
}

void LatencyHistogram::Epoch::Clear() {
  if (counts != nullptr) {
    std::fill(counts.get(), counts.get() + (hi - lo), 0u);
  }
  count = 0;
  sum = 0;
  min = 0;
  max = 0;
}

void LatencyHistogram::Record(int64_t value_nanos) {
  value_nanos = std::max<int64_t>(value_nanos, 0);
  const int bucket = BucketOf(value_nanos);
  std::lock_guard<std::mutex> lock(mutex());
  current_.Add(bucket, value_nanos);
  if (current_.count >= window_) {
    // The full epoch becomes the previous one; the old previous one's
    // storage, zeroed, is reused for the new epoch.
    std::swap(previous_, current_);
    current_.Clear();
  }
}

LatencyHistogram::Summary LatencyHistogram::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex());
  return SummarizeLocked();
}

LatencyHistogram::Summary LatencyHistogram::SummarizeLocked() const {
  Summary out;
  out.count = current_.count + previous_.count;
  if (out.count == 0) {
    return out;
  }
  out.sum = SaturatingAdd(current_.sum, previous_.sum);
  const Epoch* epochs[] = {&current_, &previous_};
  bool first = true;
  int lo = kBuckets;
  int hi = 0;
  for (const Epoch* epoch : epochs) {
    if (epoch->count == 0) {
      continue;
    }
    out.min = first ? epoch->min : std::min(out.min, epoch->min);
    out.max = first ? epoch->max : std::max(out.max, epoch->max);
    first = false;
    lo = std::min<int>(lo, epoch->lo);
    hi = std::max<int>(hi, epoch->hi);
  }
  // One walk over the used range answers every quantile, lowest first.
  const std::pair<double, int64_t*> quantiles[] = {
      {0.5, &out.p50}, {0.99, &out.p99}, {0.999, &out.p999}};
  size_t next = 0;
  uint64_t seen = 0;
  for (int bucket = lo; bucket < hi && next < std::size(quantiles); ++bucket) {
    seen += current_.At(bucket) + previous_.At(bucket);
    while (next < std::size(quantiles) &&
           RankOf(quantiles[next].first, out.count) < seen) {
      *quantiles[next].second =
          std::clamp(Representative(bucket), out.min, out.max);
      ++next;
    }
  }
  return out;
}

asbase::Histogram LatencyHistogram::Snapshot() const {
  Summary summary;
  std::vector<uint32_t> counts(kBuckets);
  {
    std::lock_guard<std::mutex> lock(mutex());
    summary = SummarizeLocked();
    for (const Epoch* epoch : {&current_, &previous_}) {
      for (int bucket = epoch->lo; bucket < epoch->hi; ++bucket) {
        counts[bucket] += epoch->At(bucket);
      }
    }
  }
  asbase::Histogram out;
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    const int64_t value =
        std::clamp(Representative(bucket), summary.min, summary.max);
    for (uint32_t i = 0; i < counts[bucket]; ++i) {
      out.Record(value);
    }
  }
  return out;
}

void LatencyHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex());
  current_.Clear();
  previous_.Clear();
}

size_t LatencyHistogram::BucketBytes() const {
  std::lock_guard<std::mutex> lock(mutex());
  return (current_.hi - current_.lo + previous_.hi - previous_.lo) *
         sizeof(uint32_t);
}

// ------------------------------------------------------------ MetricEmitter

void MetricEmitter::Emit(const std::string& name, MetricType type,
                         const Labels& labels, uint64_t value) {
  samples_.push_back(Sample{name, type, labels, value});
}

// ----------------------------------------------------------------- Registry

Registry::Registry() {
  for (const auto& family : kStandardFamilies) {
    DeclareFamily(family.name, family.type);
  }
}

Registry& Registry::Global() {
  static auto* registry = new Registry();
  return *registry;
}

const Registry::FamilyEntry& Registry::FamilyLocked(const std::string& name,
                                                    MetricType type) {
  const auto it = families_.try_emplace(name, type).first;
  AS_CHECK(it->second == type)
      << "metric family '" << name << "' re-registered as " << TypeName(type)
      << " (was " << TypeName(it->second) << ")";
  return *it;
}

Registry::LabelSet& Registry::LabelSetLocked(const Labels& labels) {
  return label_sets_.try_emplace(SerializeLabels(labels)).first->second;
}

namespace {

// The series of `family` in one label set's list, created on first use.
template <typename FamilyRef, typename T>
T& FindOrAdd(std::forward_list<std::pair<FamilyRef, T>>& series,
             FamilyRef family) {
  for (auto& [owner, value] : series) {
    if (owner == family) {
      return value;
    }
  }
  return series
      .emplace_front(std::piecewise_construct, std::forward_as_tuple(family),
                     std::forward_as_tuple())
      .second;
}

}  // namespace

Counter& Registry::GetCounter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const FamilyEntry* family = &FamilyLocked(name, MetricType::kCounter);
  return FindOrAdd(LabelSetLocked(labels).counters, family);
}

Gauge& Registry::GetGauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const FamilyEntry* family = &FamilyLocked(name, MetricType::kGauge);
  return FindOrAdd(LabelSetLocked(labels).gauges, family);
}

LatencyHistogram& Registry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const FamilyEntry* family = &FamilyLocked(name, MetricType::kSummary);
  return FindOrAdd(LabelSetLocked(labels).summaries, family);
}

void Registry::DeclareFamily(const std::string& name, MetricType type) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilyLocked(name, type);
}

void Registry::RegisterCollector(
    std::function<void(MetricEmitter&)> collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(collector));
}

std::string Registry::RenderPrometheus() const {
  // Render families -> lines into a sorted map so output is deterministic
  // and collector samples merge into the same families.
  struct RenderFamily {
    MetricType type;
    std::vector<std::string> lines;
  };
  std::map<std::string, RenderFamily> rendered;

  char buf[128];
  std::vector<std::function<void(MetricEmitter&)>> collectors;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    collectors = collectors_;
    for (const auto& [name, type] : families_) {
      rendered[name].type = type;
    }
    for (const auto& [labels, set] : label_sets_) {
      for (const auto& [family, counter] : set.counters) {
        std::snprintf(buf, sizeof(buf), " %" PRIu64, counter.value());
        rendered[family->first].lines.push_back(family->first + labels + buf);
      }
      for (const auto& [family, gauge] : set.gauges) {
        std::snprintf(buf, sizeof(buf), " %lld",
                      static_cast<long long>(gauge.value()));
        rendered[family->first].lines.push_back(family->first + labels + buf);
      }
      for (const auto& [family, histogram] : set.summaries) {
        const std::string& name = family->first;
        std::vector<std::string>& lines = rendered[name].lines;
        const LatencyHistogram::Summary summary = histogram.Summarize();
        // The quantile label goes last inside the series' own braces.
        const std::string open =
            labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
        const std::pair<const char*, int64_t> quantiles[] = {
            {"0.5", summary.p50}, {"0.99", summary.p99}, {"0.999", summary.p999}};
        for (const auto& [q, value] : quantiles) {
          std::snprintf(buf, sizeof(buf), "quantile=\"%s\"} %lld", q,
                        static_cast<long long>(value));
          lines.push_back(name + open + buf);
        }
        std::snprintf(buf, sizeof(buf), " %lld",
                      static_cast<long long>(summary.sum));
        lines.push_back(name + "_sum" + labels + buf);
        std::snprintf(buf, sizeof(buf), " %" PRIu64, summary.count);
        lines.push_back(name + "_count" + labels + buf);
      }
    }
  }

  // Collectors run unlocked: they may read other subsystems' locks.
  MetricEmitter emitter;
  for (const auto& collector : collectors) {
    collector(emitter);
  }
  for (const auto& sample : emitter.samples_) {
    RenderFamily& out = rendered[sample.name];
    out.type = sample.type;
    std::snprintf(buf, sizeof(buf), " %" PRIu64, sample.value);
    out.lines.push_back(sample.name + SerializeLabels(sample.labels) + buf);
  }

  std::string text;
  for (auto& [name, family] : rendered) {
    text += "# TYPE " + name + " " + TypeName(family.type) + "\n";
    std::sort(family.lines.begin(), family.lines.end());
    for (const std::string& line : family.lines) {
      text += line;
      text += "\n";
    }
  }
  return text;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [labels, set] : label_sets_) {
    for (auto& [family, counter] : set.counters) {
      counter.Reset();
    }
    for (auto& [family, gauge] : set.gauges) {
      gauge.Reset();
    }
    for (auto& [family, histogram] : set.summaries) {
      histogram.Reset();
    }
  }
}

}  // namespace asobs
