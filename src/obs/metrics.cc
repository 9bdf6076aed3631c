#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

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

void LatencyHistogram::Record(int64_t value_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.Record(value_nanos);
  if (current_.count() >= window_) {
    previous_ = std::move(current_);
    current_ = asbase::Histogram();
  }
}

void LatencyHistogram::Merge(const asbase::Histogram& other) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.Merge(other);
  if (current_.count() >= window_) {
    previous_ = std::move(current_);
    current_ = asbase::Histogram();
  }
}

asbase::Histogram LatencyHistogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  asbase::Histogram merged = previous_;
  merged.Merge(current_);
  return merged;
}

void LatencyHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.Clear();
  previous_.Clear();
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

Registry::Family& Registry::FamilyLocked(const std::string& name,
                                         MetricType type) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
  } else {
    AS_CHECK(it->second.type == type)
        << "metric family '" << name << "' re-registered as "
        << TypeName(type) << " (was " << TypeName(it->second.type) << ")";
  }
  return it->second;
}

Counter& Registry::GetCounter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      FamilyLocked(name, MetricType::kCounter).series[SerializeLabels(labels)];
  if (series.counter == nullptr) {
    series.labels = labels;
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& Registry::GetGauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      FamilyLocked(name, MetricType::kGauge).series[SerializeLabels(labels)];
  if (series.gauge == nullptr) {
    series.labels = labels;
    series.gauge = std::make_unique<Gauge>();
  }
  return *series.gauge;
}

LatencyHistogram& Registry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      FamilyLocked(name, MetricType::kSummary).series[SerializeLabels(labels)];
  if (series.histogram == nullptr) {
    series.labels = labels;
    series.histogram = std::make_unique<LatencyHistogram>();
  }
  return *series.histogram;
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
    for (const auto& [name, family] : families_) {
      RenderFamily& out = rendered[name];
      out.type = family.type;
      for (const auto& [label_key, series] : family.series) {
        if (series.counter != nullptr) {
          std::snprintf(buf, sizeof(buf), " %" PRIu64,
                        series.counter->value());
          out.lines.push_back(name + label_key + buf);
        } else if (series.gauge != nullptr) {
          std::snprintf(buf, sizeof(buf), " %lld",
                        static_cast<long long>(series.gauge->value()));
          out.lines.push_back(name + label_key + buf);
        } else if (series.histogram != nullptr) {
          const asbase::Histogram snapshot = series.histogram->Snapshot();
          const double quantiles[] = {0.5, 0.99, 0.999};
          for (double q : quantiles) {
            Labels quantile_labels = series.labels;
            std::snprintf(buf, sizeof(buf), "%g", q);
            quantile_labels.emplace_back("quantile", buf);
            std::snprintf(buf, sizeof(buf), " %lld",
                          static_cast<long long>(snapshot.Percentile(q)));
            out.lines.push_back(name + SerializeLabels(quantile_labels) + buf);
          }
          std::snprintf(buf, sizeof(buf), " %.0f",
                        snapshot.mean() * static_cast<double>(snapshot.count()));
          out.lines.push_back(name + "_sum" + label_key + buf);
          std::snprintf(buf, sizeof(buf), " %zu", snapshot.count());
          out.lines.push_back(name + "_count" + label_key + buf);
        }
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
  for (auto& [name, family] : families_) {
    for (auto& [label_key, series] : family.series) {
      if (series.counter != nullptr) {
        series.counter->Reset();
      }
      if (series.gauge != nullptr) {
        series.gauge->Reset();
      }
      if (series.histogram != nullptr) {
        series.histogram->Reset();
      }
    }
  }
}

}  // namespace asobs
