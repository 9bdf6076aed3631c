// Tests for asobs: metrics registry + Prometheus exposition, trace spans +
// Chrome JSON export, and the visor-level wiring (root invoke span with
// module_load children on cold start, none under load_all; /metrics and
// /trace served by the watchdog).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/asstd/asstd.h"
#include "src/core/visor/visor.h"
#include "src/core/visor/wfd_pool.h"
#include "src/http/http.h"
#include "src/mpk/pkey_runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

using asobs::Labels;
using asobs::MetricType;
using asobs::Registry;
using asobs::Trace;

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, CounterReferencesAreStable) {
  Registry registry;
  asobs::Counter& a = registry.GetCounter("alloy_test_total", {{"k", "v"}});
  asobs::Counter& b = registry.GetCounter("alloy_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b) << "same name+labels must return the same series";
  asobs::Counter& other = registry.GetCounter("alloy_test_total", {{"k", "w"}});
  EXPECT_NE(&a, &other);

  a.Add();
  b.Add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Registry registry;
  asobs::Gauge& gauge = registry.GetGauge("alloy_test_gauge");
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
}

TEST(MetricsTest, PrometheusExpositionGolden) {
  Registry registry;
  registry.GetCounter("alloy_test_requests_total", {{"method", "get"}}).Add(3);
  registry.GetCounter("alloy_test_requests_total", {{"method", "put"}}).Add(1);
  registry.GetGauge("alloy_test_live_wfds").Set(2);
  // Four identical samples make every quantile and the sum exact.
  asobs::LatencyHistogram& hist =
      registry.GetHistogram("alloy_test_latency_nanos");
  for (int i = 0; i < 4; ++i) {
    hist.Record(500);
  }

  const std::string text = registry.RenderPrometheus();
  const std::string expected_counter_block =
      "# TYPE alloy_test_requests_total counter\n"
      "alloy_test_requests_total{method=\"get\"} 3\n"
      "alloy_test_requests_total{method=\"put\"} 1\n";
  const std::string expected_gauge_block =
      "# TYPE alloy_test_live_wfds gauge\n"
      "alloy_test_live_wfds 2\n";
  const std::string expected_summary_block =
      "# TYPE alloy_test_latency_nanos summary\n"
      "alloy_test_latency_nanos_count 4\n"
      "alloy_test_latency_nanos_sum 2000\n"
      "alloy_test_latency_nanos{quantile=\"0.5\"} 500\n"
      "alloy_test_latency_nanos{quantile=\"0.99\"} 500\n"
      "alloy_test_latency_nanos{quantile=\"0.999\"} 500\n";
  EXPECT_NE(text.find(expected_counter_block), std::string::npos) << text;
  EXPECT_NE(text.find(expected_gauge_block), std::string::npos) << text;
  EXPECT_NE(text.find(expected_summary_block), std::string::npos) << text;

  // Families render sorted, and the standard schema shows even at zero.
  const size_t fs_pos = text.find("# TYPE alloy_fs_read_bytes_total counter");
  const size_t visor_pos =
      text.find("# TYPE alloy_visor_invocations_total counter");
  ASSERT_NE(fs_pos, std::string::npos) << text;
  ASSERT_NE(visor_pos, std::string::npos) << text;
  EXPECT_LT(fs_pos, visor_pos);
}

TEST(MetricsTest, LabelValuesAreEscaped) {
  EXPECT_EQ(asobs::SerializeLabels({{"path", "a\"b\\c\nd"}}),
            "{path=\"a\\\"b\\\\c\\nd\"}");
  EXPECT_EQ(asobs::SerializeLabels({}), "");
}

TEST(MetricsTest, CollectorSamplesMergeIntoExposition) {
  Registry registry;
  registry.RegisterCollector([](asobs::MetricEmitter& emitter) {
    emitter.Emit("alloy_test_collected_total", MetricType::kCounter,
                 {{"source", "collector"}}, 42);
  });
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE alloy_test_collected_total counter\n"
                      "alloy_test_collected_total{source=\"collector\"} 42\n"),
            std::string::npos)
      << text;
}

// The emulated backend's alloy_mpk_domain_switches_total in one scrape of
// the global registry.
uint64_t EmulatedSwitches(const std::string& text) {
  const std::string key =
      "alloy_mpk_domain_switches_total{backend=\"emulated\"} ";
  const size_t at = text.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

// MPK runtimes join and leave the telemetry list the /metrics collector
// walks, on several threads, while a scraper renders the registry; each
// thread keeps a few alive so runtimes also leave from the middle of the
// list. scripts/ci.sh runs the obs label under TSan and ASan.
TEST(MetricsTest, MpkRuntimesComeAndGoWhileMetricsAreScraped) {
  constexpr int kThreads = 4;
  constexpr int kRuntimesPerThread = 1000;
  constexpr int kSwitchesPerRuntime = 3;
  const uint64_t before =
      EmulatedSwitches(Registry::Global().RenderPrometheus());
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    do {
      const std::string text = Registry::Global().RenderPrometheus();
      EXPECT_GE(EmulatedSwitches(text), before);
      scrapes.fetch_add(1, std::memory_order_release);
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scrapes] {
      while (scrapes.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();  // start once the scraper is running
      }
      std::vector<std::unique_ptr<asmpk::PkeyRuntime>> alive;
      for (int i = 0; i < kRuntimesPerThread; ++i) {
        alive.push_back(std::make_unique<asmpk::PkeyRuntime>(
            asmpk::MpkBackend::kEmulated));
        for (int s = 0; s < kSwitchesPerRuntime; ++s) {
          alive.back()->WritePkru(0);
        }
        if (alive.size() > 3) {
          alive.erase(alive.begin());  // the oldest: mid-list by now
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  stop = true;
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(EmulatedSwitches(Registry::Global().RenderPrometheus()) - before,
            uint64_t{kThreads} * kRuntimesPerThread * kSwitchesPerRuntime)
      << "every switch counted once, live or retired";
}

TEST(MetricsTest, ResetZeroesInPlaceKeepingReferences) {
  Registry registry;
  asobs::Counter& counter = registry.GetCounter("alloy_test_total");
  counter.Add(9);
  registry.GetHistogram("alloy_test_latency_nanos").Record(100);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(registry.GetHistogram("alloy_test_latency_nanos")
                .Snapshot()
                .count(),
            0u);
  counter.Add(2);  // the cached reference must stay valid
  EXPECT_EQ(registry.GetCounter("alloy_test_total").value(), 2u);
}

TEST(MetricsTest, HistogramWindowBoundsMemory) {
  asobs::LatencyHistogram hist(/*window=*/8);
  for (int i = 0; i < 100; ++i) {
    hist.Record(i);
  }
  // Two epochs of at most `window` samples each.
  EXPECT_LE(hist.Snapshot().count(), 16u);
  EXPECT_GE(hist.Snapshot().count(), 4u);
}

TEST(MetricsTest, BucketedQuantilesStayWithinHalfABucketOfExact) {
  // Seeded log-normal latencies (median ~50 us, long tail), more than one
  // epoch's worth so both epochs contribute.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> latency(10.8, 1.2);
  asobs::LatencyHistogram bucketed;
  asbase::Histogram exact;
  for (int i = 0; i < 100'000; ++i) {
    const int64_t value = static_cast<int64_t>(latency(rng));
    bucketed.Record(value);
    exact.Record(value);
  }
  const asobs::LatencyHistogram::Summary summary = bucketed.Summarize();
  EXPECT_EQ(summary.count, exact.count());
  EXPECT_EQ(summary.min, exact.min());
  EXPECT_EQ(summary.max, exact.max());
  EXPECT_NEAR(static_cast<double>(summary.sum) / summary.count, exact.mean(),
              1.0);
  // A bucket spans at most 1/8 of its lower bound, and a quantile reads
  // the bucket's midpoint: within 1/16 of the exact nearest-rank value.
  auto within_half_bucket = [](int64_t approx, int64_t truth) {
    return std::llabs(approx - truth) * 16 <= truth;
  };
  EXPECT_PRED2(within_half_bucket, summary.p50, exact.Percentile(0.5));
  EXPECT_PRED2(within_half_bucket, summary.p99, exact.Percentile(0.99));
  EXPECT_PRED2(within_half_bucket, summary.p999, exact.Percentile(0.999));
  const asbase::Histogram snapshot = bucketed.Snapshot();
  ASSERT_EQ(snapshot.count(), exact.count());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_PRED2(within_half_bucket, snapshot.Percentile(q),
                 exact.Percentile(q))
        << "q=" << q;
  }
}

TEST(MetricsTest, BucketsCoverEveryValueInOrder) {
  using asobs::LatencyHistogram;
  for (int bucket = 0; bucket < LatencyHistogram::kBuckets; ++bucket) {
    const int64_t representative = LatencyHistogram::Representative(bucket);
    EXPECT_EQ(LatencyHistogram::BucketOf(representative), bucket);
    if (bucket > 0) {
      EXPECT_GT(representative, LatencyHistogram::Representative(bucket - 1));
    }
  }
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(15), 15);
  EXPECT_EQ(LatencyHistogram::BucketOf(INT64_MAX),
            LatencyHistogram::kBuckets - 1);
}

TEST(MetricsTest, HistogramStorageGrowsOnlyOverUsedBuckets) {
  asobs::LatencyHistogram hist;
  hist.Record(1000);
  EXPECT_EQ(hist.BucketBytes(), sizeof(uint32_t))
      << "one sample must hold one bucket, not a dense array";
  hist.Record(1100);
  EXPECT_LE(hist.BucketBytes(), 2 * sizeof(uint32_t));
  // Every octave in both epochs: the bound whatever the sample count.
  asobs::LatencyHistogram full(/*window=*/64);
  for (int round = 0; round < 4; ++round) {
    for (int shift = 0; shift < 63; ++shift) {
      full.Record(int64_t{1} << shift);
      full.Record(INT64_MAX >> shift);
    }
  }
  EXPECT_LE(full.BucketBytes(),
            2 * asobs::LatencyHistogram::kBuckets * sizeof(uint32_t));
  EXPECT_LE(sizeof(asobs::LatencyHistogram) + full.BucketBytes(), 4096u);
}

TEST(MetricsTest, SeriesSharingALabelSetStayDistinct) {
  Registry registry;
  const Labels labels = {{"workflow", "wf"}, {"alloy_visor_shard", "1"}};
  asobs::Counter& hits = registry.GetCounter("alloy_test_hits_total", labels);
  asobs::Counter& misses =
      registry.GetCounter("alloy_test_misses_total", labels);
  asobs::Gauge& depth = registry.GetGauge("alloy_test_depth", labels);
  asobs::LatencyHistogram& wait =
      registry.GetHistogram("alloy_test_wait_nanos", labels);
  EXPECT_NE(&hits, &misses);
  EXPECT_EQ(&registry.GetCounter("alloy_test_misses_total", labels), &misses);
  EXPECT_EQ(&registry.GetHistogram("alloy_test_wait_nanos", labels), &wait);
  hits.Add(2);
  misses.Add(5);
  depth.Set(-1);
  wait.Record(7);
  const std::string text = registry.RenderPrometheus();
  for (const char* line :
       {"alloy_test_hits_total{workflow=\"wf\",alloy_visor_shard=\"1\"} 2\n",
        "alloy_test_misses_total{workflow=\"wf\",alloy_visor_shard=\"1\"} 5\n",
        "alloy_test_depth{workflow=\"wf\",alloy_visor_shard=\"1\"} -1\n",
        "alloy_test_wait_nanos{workflow=\"wf\",alloy_visor_shard=\"1\","
        "quantile=\"0.99\"} 7\n",
        "alloy_test_wait_nanos_count{workflow=\"wf\",alloy_visor_shard=\"1\"} "
        "1\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << text;
  }
}

// ------------------------------------------------------------------- spans

TEST(TraceTest, SpanNestingAndParenting) {
  Trace trace("wf");
  asobs::Span root = trace.StartSpan("invoke", "visor");
  asobs::Span child = trace.StartSpan("stage:0", "orchestrator", root.id());
  asobs::Span grandchild =
      trace.StartSpan("fn#0", "function", child.id());
  grandchild.End();
  child.End();
  root.End();
  root.End();  // idempotent

  const std::vector<asobs::SpanRecord> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans record in end order: innermost first.
  EXPECT_EQ(spans[0].name, "fn#0");
  EXPECT_EQ(spans[2].name, "invoke");
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[2].id);
  EXPECT_EQ(spans[0].parent, spans[1].id);

  std::set<uint32_t> ids;
  for (const auto& span : spans) {
    EXPECT_TRUE(ids.insert(span.id).second) << "span ids must be unique";
    EXPECT_GE(span.duration_nanos, 0);
    EXPECT_NE(span.thread_id, 0u);
  }
}

TEST(TraceTest, MovedSpanEndsOnce) {
  Trace trace("wf");
  {
    asobs::Span outer;
    {
      asobs::Span inner = trace.StartSpan("moved", "test");
      inner.SetArg("k", "v");
      outer = std::move(inner);
    }  // destroying the moved-from span must not record
  }
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "moved");
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
}

TEST(TraceTest, ChromeJsonParsesBack) {
  Trace trace("parse-back");
  asobs::Span root = trace.StartSpan("invoke", "visor");
  root.SetArg("workflow", "parse-back");
  asobs::Span child = trace.StartSpan("wfd_create", "visor", root.id());
  child.End();
  root.End();

  auto doc = asbase::Json::Parse(trace.ToChromeJson().Dump());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ((*doc)["displayTimeUnit"].as_string(), "ms");
  const asbase::Json& events = (*doc)["traceEvents"];
  ASSERT_TRUE(events.is_array());
  // One "M" metadata event naming the process + two "X" complete events.
  ASSERT_EQ(events.array().size(), 3u);
  EXPECT_EQ(events[size_t{0}]["ph"].as_string(), "M");
  EXPECT_EQ(events[size_t{0}]["args"]["name"].as_string(), "parse-back");

  int64_t invoke_id = -1;
  for (const asbase::Json& event : events.array()) {
    if (event["ph"].as_string() != "X") {
      continue;
    }
    EXPECT_TRUE(event["args"].contains("span_id"));
    if (event["name"].as_string() == "invoke") {
      invoke_id = event["args"]["span_id"].as_int();
      EXPECT_EQ(event["args"]["parent_id"].as_int(), 0);
      EXPECT_EQ(event["args"]["workflow"].as_string(), "parse-back");
    }
  }
  ASSERT_GT(invoke_id, 0);
  bool found_child = false;
  for (const asbase::Json& event : events.array()) {
    if (event["ph"].as_string() == "X" &&
        event["args"]["parent_id"].as_int() == invoke_id) {
      found_child = true;
    }
  }
  EXPECT_TRUE(found_child);
}

// ------------------------------------------------------------ visor wiring

alloy::WfdOptions SmallWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

// Registers a file-writing function (forces fdtab+fatfs module loads) and a
// workflow running it once. Returns the workflow name.
std::string RegisterIoWorkflow(alloy::AsVisor& visor, const std::string& name,
                               bool on_demand) {
  alloy::FunctionRegistry::Global().Register(
      "test.obs-io", [](alloy::FunctionContext& ctx) -> asbase::Status {
        const uint8_t data[] = {'o', 'b', 's'};
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/obs.txt", data));
        // Touch the mm module too so a cold run crosses two independent
        // slow-path loads (fdtab pulls the filesystem as a dependency).
        AS_ASSIGN_OR_RETURN(alloy::RawBuffer buffer,
                            ctx.as().AllocBuffer("obs-buf", 64, 1));
        buffer.bytes[0] = 1;
        AS_ASSIGN_OR_RETURN(alloy::RawBuffer acquired,
                            ctx.as().AcquireBuffer("obs-buf", 1));
        AS_RETURN_IF_ERROR(ctx.as().FreeBuffer(acquired));
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  alloy::WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(
      alloy::StageSpec{{alloy::FunctionSpec{"test.obs-io", 1}}});
  alloy::AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.wfd.on_demand = on_demand;
  visor.RegisterWorkflow(spec, options);
  return name;
}

size_t CountModuleLoadSpans(const asobs::Trace& trace, uint32_t* parent_seen) {
  size_t count = 0;
  for (const asobs::SpanRecord& span : trace.Spans()) {
    if (span.name.rfind("module_load:", 0) == 0) {
      ++count;
      if (parent_seen != nullptr) {
        *parent_seen = span.parent;
      }
    }
  }
  return count;
}

TEST(VisorObsTest, ColdInvokeHasRootSpanWithModuleLoadChild) {
  alloy::AsVisor visor;
  RegisterIoWorkflow(visor, "obs-cold", /*on_demand=*/true);

  auto result = visor.Invoke("obs-cold", asbase::Json());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);

  uint32_t root_id = 0;
  for (const asobs::SpanRecord& span : result->trace->Spans()) {
    if (span.name == "invoke") {
      EXPECT_EQ(span.parent, 0u);
      root_id = span.id;
    }
  }
  ASSERT_GT(root_id, 0u) << "every invocation records a root invoke span";

  uint32_t module_parent = 0;
  EXPECT_GE(CountModuleLoadSpans(*result->trace, &module_parent), 2u)
      << "file IO on a cold WFD loads fdtab + fatfs";
  EXPECT_EQ(module_parent, root_id)
      << "module_load spans parent under the invoke root";

  // The span summary, built on demand, mirrors the trace.
  const asbase::Json summary = asobs::SummarizeTrace(*result->trace);
  EXPECT_EQ(summary["workflow"].as_string(), "obs-cold");
  EXPECT_EQ(summary["spans"].array().size(), result->trace->Spans().size());
}

TEST(VisorObsTest, LoadAllInvokeHasNoModuleLoadSpans) {
  alloy::AsVisor visor;
  RegisterIoWorkflow(visor, "obs-eager", /*on_demand=*/false);

  auto result = visor.Invoke("obs-eager", asbase::Json());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(CountModuleLoadSpans(*result->trace, nullptr), 0u)
      << "load_all boots modules before the run; none load inside spans";
}

// With the default threshold (0) every trace is retained, and the shard's
// flight recorder keeps the last 8 on their records: a retained trace
// holds exactly its spans, with no growth slack, and the
// root span allocates nothing for how the WFD started (its wfd_clone or
// wfd_create child says that).
TEST(VisorObsTest, RetainedTraceHoldsNoSpanSlack) {
  alloy::AsVisor visor;
  RegisterIoWorkflow(visor, "obs-retained", /*on_demand=*/true);
  // Two stages, so neither run's span count is a power of two, which a
  // growing vector would fill exactly.
  alloy::WorkflowSpec spec;
  spec.name = "obs-retained";
  for (int stage = 0; stage < 2; ++stage) {
    spec.stages.push_back(
        alloy::StageSpec{{alloy::FunctionSpec{"test.obs-io", 1}}});
  }
  alloy::AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  visor.RegisterWorkflow(spec, options);
  for (int i = 0; i < 2; ++i) {  // a full boot, then a warm hit
    auto result = visor.Invoke("obs-retained", asbase::Json());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->trace, nullptr);
    const std::vector<asobs::SpanRecord> spans = result->trace->Spans();
    EXPECT_EQ(result->trace->span_capacity(), spans.size()) << "run " << i;
    EXPECT_NE(spans.size() & (spans.size() - 1), 0u) << "run " << i;
    size_t boots = 0;
    for (const asobs::SpanRecord& span : spans) {
      if (span.name == "invoke") {
        ASSERT_EQ(span.args.size(), 1u) << "run " << i;
        EXPECT_EQ(span.args[0].first, "workflow");
      }
      boots += span.name == "wfd_create" ? 1 : 0;
    }
    EXPECT_EQ(boots, i == 0 ? 1u : 0u) << "run " << i;
  }
}

TEST(VisorObsTest, InvokeBumpsGlobalCounters) {
  alloy::AsVisor visor;
  RegisterIoWorkflow(visor, "obs-counted", /*on_demand=*/true);

  asobs::Counter& invocations = asobs::Registry::Global().GetCounter(
      "alloy_visor_invocations_total", {{"workflow", "obs-counted"}});
  const uint64_t before = invocations.value();
  ASSERT_TRUE(visor.Invoke("obs-counted", asbase::Json()).ok());
  EXPECT_EQ(invocations.value(), before + 1);

  asobs::Counter& failures = asobs::Registry::Global().GetCounter(
      "alloy_visor_invocation_failures_total", {{"workflow", "obs-missing"}});
  const uint64_t failures_before = failures.value();
  EXPECT_FALSE(visor.Invoke("obs-missing", asbase::Json()).ok());
  // Unknown workflow fails before the counting path; per-workflow failures
  // only count once the workflow exists.
  EXPECT_EQ(failures.value(), failures_before);
}

TEST(VisorObsTest, WatchdogServesMetricsAndTrace) {
  alloy::AsVisor visor;
  RegisterIoWorkflow(visor, "obs-http", /*on_demand=*/true);
  ASSERT_TRUE(visor.Invoke("obs-http", asbase::Json()).ok());
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  ashttp::HttpRequest request;
  request.method = "GET";
  request.target = "/metrics";
  auto metrics = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  for (const char* name :
       {"alloy_visor_invocations_total", "alloy_libos_module_loads_total",
        "alloy_mpk_domain_switches_total", "alloy_asbuffer_bytes_total"}) {
    EXPECT_NE(metrics->body.find(name), std::string::npos)
        << name << " missing from /metrics after an invocation";
  }
  EXPECT_NE(
      metrics->body.find("alloy_visor_invocations_total{workflow=\"obs-http\"}"),
      std::string::npos)
      << metrics->body;

  request.target = "/trace?workflow=obs-http";
  auto trace_response =
      ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(trace_response.ok());
  EXPECT_EQ(trace_response->status, 200);
  auto doc = asbase::Json::Parse(trace_response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const asbase::Json& events = (*doc)["traceEvents"];
  ASSERT_TRUE(events.is_array());

  int64_t invoke_id = -1;
  size_t children_of_invoke = 0;
  for (const asbase::Json& event : events.array()) {
    if (event["ph"].as_string() == "X" &&
        event["name"].as_string() == "invoke") {
      invoke_id = event["args"]["span_id"].as_int();
    }
  }
  ASSERT_GT(invoke_id, 0) << trace_response->body;
  for (const asbase::Json& event : events.array()) {
    if (event["ph"].as_string() == "X" &&
        event["args"]["parent_id"].as_int() == invoke_id) {
      ++children_of_invoke;
    }
  }
  EXPECT_GE(children_of_invoke, 1u)
      << "root invoke span must have at least one child";

  // Missing / unknown workflow parameters.
  request.target = "/trace";
  EXPECT_EQ(
      ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request)->status,
      400);
  request.target = "/trace?workflow=no-such";
  EXPECT_EQ(
      ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request)->status,
      404);
  visor.StopWatchdog();
}

// During re-registration (and during router-driven migration between
// shards) an old and a new WfdPool for the same workflow briefly update
// the same alloy_visor_pool_resident_bytes series. The gauge must move
// by deltas: a Set()-based implementation let whichever pool wrote last
// clobber the other's contribution, so Clear() on the dying pool erased
// the live pool's resident bytes from the scrape.
TEST(MetricsTest, ResidentGaugeComposesAcrossOverlappingPools) {
  auto make_touched_wfd = [] {
    alloy::WfdOptions options;
    options.heap_bytes = 8u << 20;
    options.disk_blocks = 16 * 1024;
    options.mpk_backend = asmpk::MpkBackend::kEmulated;
    auto wfd = alloy::Wfd::Create(options);
    EXPECT_TRUE(wfd.ok());
    // Touch heap pages so ResidentBytes (mincore-based) is non-zero.
    auto buffer = (*wfd)->libos().AllocBuffer("overlap", 128 * 1024, 16, 1);
    EXPECT_TRUE(buffer.ok());
    std::memset(*buffer, 0xcd, 128 * 1024);
    return std::move(*wfd);
  };

  asobs::Gauge& gauge = Registry::Global().GetGauge(
      "alloy_visor_pool_resident_bytes", {{"workflow", "overlapwf"}});
  const int64_t base = gauge.value();

  alloy::WfdPool old_pool("overlapwf", 1);
  alloy::WfdPool new_pool("overlapwf", 1);
  old_pool.Park(make_touched_wfd());
  new_pool.Park(make_touched_wfd());
  const int64_t old_bytes = static_cast<int64_t>(old_pool.resident_bytes());
  const int64_t new_bytes = static_cast<int64_t>(new_pool.resident_bytes());
  ASSERT_GT(old_bytes, 0);
  ASSERT_GT(new_bytes, 0);
  EXPECT_EQ(gauge.value(), base + old_bytes + new_bytes);

  // Scrape concurrently with pool churn: the render must observe a
  // consistent value per series (no torn reads) and never crash.
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string page = Registry::Global().RenderPrometheus();
      EXPECT_NE(page.find("alloy_visor_pool_resident_bytes"),
                std::string::npos);
    }
  });

  // The dying pool clears; the live pool's contribution must survive.
  old_pool.Clear();
  EXPECT_EQ(gauge.value(), base + new_bytes);
  new_pool.Clear();
  EXPECT_EQ(gauge.value(), base);

  stop.store(true, std::memory_order_relaxed);
  scraper.join();
}

}  // namespace
