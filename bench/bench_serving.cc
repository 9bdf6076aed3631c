// Serving-layer benchmark (DESIGN.md §8, EXPERIMENTS.md "serving"):
//
//   1. warm vs cold closed loop  — end-to-end p50/p99 with the WFD pool on
//      (pool_size=2) vs off (pool_size=0), plus the steady-state pool hit
//      rate, for an IO workflow whose cold start pays fdtab+fatfs loads.
//   2. RPS scaling              — closed-loop throughput over the watchdog
//      HTTP path while sweeping per-workflow max_concurrency.
//   3. saturation               — a burst past max_concurrency, counting
//      429 rejections vs 200 completions.
//   4. open loop                — fixed-rate arrivals, end-to-end latency
//      distribution under the admission caps.
//   5. spike                    — the same concurrent burst against three
//      admission configs: pure-reject (429 + client retry), queue-with-
//      budget, and queue + pre-warmed floor. Compares time-to-success p99
//      and cold-start counts.
//
// `--quick` shrinks every section to a smoke test (compile-and-run checked
// by ctest, label `serving`). Emits BENCH_serving.json.
//
// `--obs-overhead` runs only the flight-recorder overhead comparison: the
// warm closed loop with the recorder at its default ring size vs disabled
// (ALLOY_FLIGHT_RING=0), emitting BENCH_obs.json with the warm p50 for both
// and the relative overhead. The acceptance bar is <= 3%.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace asbench {
namespace {

using alloy::AsVisor;
using alloy::FunctionContext;
using alloy::FunctionRegistry;
using alloy::FunctionSpec;
using alloy::StageSpec;
using alloy::WorkflowSpec;

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

alloy::WfdOptions BenchWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

void RegisterFunctions() {
  // IO workflow: write + read a small file. A cold WFD pays the fdtab and
  // fatfs module loads here; a warm one only pays the file operations.
  FunctionRegistry::Global().Register(
      "bench.serve-io", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(
            ctx.as().WriteWholeFile("/serve.bin", Bytes(std::string(4096, 'x'))));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/serve.bin"));
        ctx.SetResult(std::to_string(data.size()));
        return asbase::OkStatus();
      });
  // CPU workflow: ~2ms of wall time, so throughput scales with concurrency
  // until the admission caps (not the work) become the limit.
  FunctionRegistry::Global().Register(
      "bench.serve-cpu", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  // IO workflow that rendezvouses with a sibling invocation, so a pair of
  // concurrent invokes deterministically overlaps: the second one misses
  // the (depth-1) pool and must clone-boot from the snapshot template.
  FunctionRegistry::Global().Register(
      "bench.serve-io-block", [](FunctionContext& ctx) -> asbase::Status {
        auto* gate = reinterpret_cast<std::atomic<int>*>(
            static_cast<uintptr_t>(ctx.params()["gate"].as_int()));
        if (gate != nullptr) {
          gate->fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (gate->load() < 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        AS_RETURN_IF_ERROR(
            ctx.as().WriteWholeFile("/serve.bin", Bytes(std::string(4096, 'x'))));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/serve.bin"));
        ctx.SetResult(std::to_string(data.size()));
        return asbase::OkStatus();
      });
}

WorkflowSpec OneStage(const std::string& name, const std::string& fn) {
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{fn, 1}}});
  return spec;
}

uint64_t PoolCounter(const std::string& name, const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow}})
      .value();
}

ashttp::HttpRequest InvokeRequest(const std::string& workflow) {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  return request;
}

// Build a warm-pool visor for the flight-recorder overhead comparison. The
// ring size env var is read in the AsVisor constructor, so each mode gets
// its own visor.
std::unique_ptr<AsVisor> ObsOverheadVisor(const char* flight_ring,
                                          const std::string& workflow) {
  if (flight_ring != nullptr) {
    setenv("ALLOY_FLIGHT_RING", flight_ring, 1);
  } else {
    unsetenv("ALLOY_FLIGHT_RING");
  }
  auto visor = std::make_unique<AsVisor>();
  unsetenv("ALLOY_FLIGHT_RING");
  AsVisor::WorkflowOptions options;
  options.wfd = BenchWfd();
  options.pool_size = 2;
  visor->RegisterWorkflow(OneStage(workflow, "bench.serve-io"), options);
  return visor;
}

int ObsOverheadMain(bool quick) {
  PrintHeader("serving --obs-overhead",
              "flight recorder on vs off, warm closed loop");
  RegisterFunctions();
  const int rounds = quick ? 4 : 20;
  const int batch = quick ? 10 : 20;
  const int iterations = rounds * batch;

  std::unique_ptr<AsVisor> visor_off = ObsOverheadVisor("0", "obs-off");
  std::unique_ptr<AsVisor> visor_on = ObsOverheadVisor(nullptr, "obs-on");

  // Warm both pools so the comparison measures the steady warm path.
  for (int i = 0; i < std::max(4, batch); ++i) {
    (void)visor_off->Invoke("obs-off", asbase::Json());
    (void)visor_on->Invoke("obs-on", asbase::Json());
  }

  // Interleave A/B batches: machine-wide drift (page cache, frequency
  // scaling, a noisy neighbour) lands on both modes instead of biasing one.
  asbase::Histogram off;
  asbase::Histogram on;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < batch; ++i) {
      auto r = visor_off->Invoke("obs-off", asbase::Json());
      if (r.ok()) {
        off.Record(r->end_to_end_nanos);
      }
    }
    for (int i = 0; i < batch; ++i) {
      auto r = visor_on->Invoke("obs-on", asbase::Json());
      if (r.ok()) {
        on.Record(r->end_to_end_nanos);
      }
    }
  }

  const int64_t p50_off = std::max<int64_t>(off.Percentile(0.5), 1);
  const int64_t p50_on = on.Percentile(0.5);
  const double overhead_pct =
      100.0 * (static_cast<double>(p50_on) - static_cast<double>(p50_off)) /
      static_cast<double>(p50_off);

  std::printf("\nwarm closed loop, %d invocations each (IO workflow)\n",
              iterations);
  std::printf("  %-22s %10s %10s\n", "", "p50", "p99");
  std::printf("  %-22s %10s %10s\n", "recorder off (ring=0)",
              Ms(off.Percentile(0.5)).c_str(),
              Ms(off.Percentile(0.99)).c_str());
  std::printf("  %-22s %10s %10s\n", "recorder on (default)",
              Ms(on.Percentile(0.5)).c_str(), Ms(on.Percentile(0.99)).c_str());
  std::printf("  flight-recorder overhead at warm p50: %+.2f%%\n",
              overhead_pct);

  asbase::Json doc;
  doc.Set("bench", "obs-overhead");
  doc.Set("quick", quick);
  doc.Set("iterations", static_cast<int64_t>(iterations));
  doc.Set("p50_recorder_on_nanos", p50_on);
  doc.Set("p50_recorder_off_nanos", static_cast<int64_t>(p50_off));
  doc.Set("p99_recorder_on_nanos", on.Percentile(0.99));
  doc.Set("p99_recorder_off_nanos", off.Percentile(0.99));
  doc.Set("overhead_pct", std::round(overhead_pct * 100.0) / 100.0);
  doc.Set("within_3pct_budget", overhead_pct <= 3.0);
  asbase::Json series{asbase::JsonObject{}};
  series.Set("recorder_on", on.ToJson());
  series.Set("recorder_off", off.ToJson());
  doc.Set("series", std::move(series));
  const std::string text = doc.Dump(2);
  if (FILE* f = std::fopen("BENCH_obs.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nresults written to BENCH_obs.json\n");
  }
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  bool obs_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--obs-overhead") == 0) {
      obs_overhead = true;
    }
  }
  if (obs_overhead) {
    return ObsOverheadMain(quick);
  }
  const int closed_loop_n = quick ? 20 : 200;
  const int rps_requests_per_client = quick ? 10 : 100;
  const int open_loop_n = quick ? 20 : 200;

  PrintHeader("serving", "warm pool + concurrent invocation pipeline");
  RegisterFunctions();

  asbase::Json doc;
  doc.Set("bench", "serving");
  doc.Set("scale", asbase::SimCostModel::Global().scale);
  doc.Set("quick", quick);
  asbase::Json series{asbase::JsonObject{}};

  // ------------------------------------------------- 1. warm vs cold p50/p99
  asbase::Histogram cold_hist;
  asbase::Histogram warm_hist;
  {
    AsVisor visor;
    AsVisor::WorkflowOptions cold_options;
    cold_options.wfd = BenchWfd();
    cold_options.pool_size = 0;  // cold-start every invocation
    visor.RegisterWorkflow(OneStage("serve-cold", "bench.serve-io"),
                           cold_options);
    AsVisor::WorkflowOptions warm_options;
    warm_options.wfd = BenchWfd();
    warm_options.pool_size = 2;
    visor.RegisterWorkflow(OneStage("serve-warm", "bench.serve-io"),
                           warm_options);

    for (int i = 0; i < closed_loop_n; ++i) {
      auto r = visor.Invoke("serve-cold", asbase::Json());
      if (r.ok()) {
        cold_hist.Record(r->end_to_end_nanos);
      }
    }
    for (int i = 0; i < closed_loop_n; ++i) {
      auto r = visor.Invoke("serve-warm", asbase::Json());
      if (r.ok()) {
        warm_hist.Record(r->end_to_end_nanos);
      }
    }
    const uint64_t hits = PoolCounter("alloy_visor_pool_hits_total",
                                      "serve-warm");
    const uint64_t misses = PoolCounter("alloy_visor_pool_misses_total",
                                        "serve-warm");
    const double hit_rate =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    std::printf("\nclosed loop, %d invocations each (IO workflow)\n",
                closed_loop_n);
    std::printf("  %-18s %10s %10s\n", "", "p50", "p99");
    std::printf("  %-18s %10s %10s\n", "cold (pool off)",
                Ms(cold_hist.Percentile(0.5)).c_str(),
                Ms(cold_hist.Percentile(0.99)).c_str());
    std::printf("  %-18s %10s %10s\n", "warm (pool=2)",
                Ms(warm_hist.Percentile(0.5)).c_str(),
                Ms(warm_hist.Percentile(0.99)).c_str());
    std::printf("  warm/cold p50 speedup: %.1fx   pool hit rate: %.1f%%\n",
                static_cast<double>(cold_hist.Percentile(0.5)) /
                    static_cast<double>(std::max<int64_t>(
                        warm_hist.Percentile(0.5), 1)),
                100.0 * hit_rate);
    series.Set("cold", cold_hist.ToJson());
    series.Set("warm", warm_hist.ToJson());
    doc.Set("pool_hit_rate", hit_rate);
    doc.Set("warm_cold_p50_speedup",
            static_cast<double>(cold_hist.Percentile(0.5)) /
                static_cast<double>(
                    std::max<int64_t>(warm_hist.Percentile(0.5), 1)));
  }

  // ------------------------------------- 1b. snapshot clone boot on a miss
  // Pool misses after the first invocation clone-boot from the geometry's
  // template (DESIGN.md §14) instead of paying a full cold start. Pairs of
  // rendezvoused invocations force one warm lease + one miss per round; the
  // miss's end-to-end latency is the clone row.
  {
    asbase::Histogram clone_hist;
    AsVisor visor;
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 1;
    options.max_concurrency = 2;
    visor.RegisterWorkflow(OneStage("serve-snap", "bench.serve-io-block"),
                           options);
    const uint64_t clones0 =
        PoolCounter("alloy_visor_snapshot_clones_total", "serve-snap");
    // First invocation boots, invokes, and publishes the template.
    (void)visor.Invoke("serve-snap", asbase::Json());
    const int pairs = std::max(closed_loop_n / 4, 2);
    std::atomic<int> gate{0};
    asbase::Json params;
    params.Set("gate",
               static_cast<int64_t>(reinterpret_cast<uintptr_t>(&gate)));
    for (int i = 0; i < pairs; ++i) {
      gate.store(0);
      asbase::Result<alloy::InvokeResult> r1 = asbase::Unavailable("unset");
      asbase::Result<alloy::InvokeResult> r2 = asbase::Unavailable("unset");
      std::thread t1([&] { r1 = visor.Invoke("serve-snap", params); });
      std::thread t2([&] { r2 = visor.Invoke("serve-snap", params); });
      t1.join();
      t2.join();
      for (const auto* r : {&r1, &r2}) {
        if (r->ok() && (**r).clone_start) {
          clone_hist.Record((**r).end_to_end_nanos);
        }
      }
    }
    const uint64_t clones =
        PoolCounter("alloy_visor_snapshot_clones_total", "serve-snap") -
        clones0;
    std::printf("  %-18s %10s %10s  (%llu clone boots, counter-proved)\n",
                "miss (clone boot)", Ms(clone_hist.Percentile(0.5)).c_str(),
                Ms(clone_hist.Percentile(0.99)).c_str(),
                static_cast<unsigned long long>(clones));
    series.Set("clone", clone_hist.ToJson());
    doc.Set("snapshot_clones_delta", static_cast<int64_t>(clones));
  }

  // ------------------------------------------------------- 2. RPS scaling
  {
    std::printf("\nclosed-loop RPS over the watchdog (CPU workflow, ~2ms)\n");
    std::printf("  %-16s %10s %10s\n", "max_concurrency", "RPS", "p99");
    asbase::Json rps_json{asbase::JsonObject{}};
    for (int concurrency : {1, 2, 4, 8}) {
      AsVisor visor;
      AsVisor::WorkflowOptions options;
      options.wfd = BenchWfd();
      options.pool_size = static_cast<size_t>(concurrency);
      options.max_concurrency = concurrency;
      visor.RegisterWorkflow(OneStage("serve-cpu", "bench.serve-cpu"),
                             options);
      AsVisor::ServingOptions serving;
      serving.max_inflight = 64;
      if (!visor.StartWatchdog(0, serving).ok()) {
        std::fprintf(stderr, "watchdog start failed\n");
        continue;
      }
      // One closed-loop client per admitted slot: no rejections, the
      // workflow's concurrency cap is the only throttle.
      asbase::Histogram latency;
      std::mutex latency_mutex;
      const int64_t start = asbase::MonoNanos();
      std::vector<std::thread> clients;
      for (int c = 0; c < concurrency; ++c) {
        clients.emplace_back([&] {
          for (int i = 0; i < rps_requests_per_client; ++i) {
            const int64_t t0 = asbase::MonoNanos();
            auto response = ashttp::HttpCall("127.0.0.1",
                                             visor.watchdog_port(),
                                             InvokeRequest("serve-cpu"));
            if (response.ok() && response->status == 200) {
              std::lock_guard<std::mutex> lock(latency_mutex);
              latency.Record(asbase::MonoNanos() - t0);
            }
          }
        });
      }
      for (auto& client : clients) {
        client.join();
      }
      const double seconds =
          static_cast<double>(asbase::MonoNanos() - start) / 1e9;
      const double rps = static_cast<double>(latency.count()) / seconds;
      std::printf("  %-16d %10.0f %10s\n", concurrency, rps,
                  Ms(latency.Percentile(0.99)).c_str());
      rps_json.Set(std::to_string(concurrency), rps);
      series.Set("http_c" + std::to_string(concurrency), latency.ToJson());
      visor.StopWatchdog();
    }
    doc.Set("rps_by_concurrency", std::move(rps_json));
  }

  // --------------------------------------------------------- 3. saturation
  {
    AsVisor visor;
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 2;
    options.max_concurrency = 2;
    visor.RegisterWorkflow(OneStage("serve-sat", "bench.serve-cpu"), options);
    AsVisor::ServingOptions serving;
    serving.max_inflight = 64;
    if (visor.StartWatchdog(0, serving).ok()) {
      const int burst = quick ? 8 : 16;
      std::atomic<int> completed{0};
      std::atomic<int> rejected{0};
      std::vector<std::thread> clients;
      for (int i = 0; i < burst; ++i) {
        clients.emplace_back([&] {
          auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                           InvokeRequest("serve-sat"));
          if (!response.ok()) {
            return;
          }
          if (response->status == 200) {
            ++completed;
          } else if (response->status == 429) {
            ++rejected;
          }
        });
      }
      for (auto& client : clients) {
        client.join();
      }
      std::printf("\nburst of %d at max_concurrency=2: %d completed, "
                  "%d rejected (429)\n",
                  burst, completed.load(), rejected.load());
      doc.Set("saturation_burst", static_cast<int64_t>(burst));
      doc.Set("saturation_completed", static_cast<int64_t>(completed.load()));
      doc.Set("saturation_rejected", static_cast<int64_t>(rejected.load()));
      visor.StopWatchdog();
    }
  }

  // ----------------------------------------------------------- 4. open loop
  {
    AsVisor visor;
    AsVisor::WorkflowOptions options;
    options.wfd = BenchWfd();
    options.pool_size = 4;
    options.max_concurrency = 8;
    visor.RegisterWorkflow(OneStage("serve-open", "bench.serve-cpu"), options);
    AsVisor::ServingOptions serving;
    serving.max_inflight = 64;
    if (visor.StartWatchdog(0, serving).ok()) {
      // Fixed-rate arrivals at 200 req/s (5ms spacing), each request on its
      // own thread so a slow response never delays the next arrival.
      asbase::Histogram open_latency;
      std::mutex open_mutex;
      std::atomic<int> open_rejected{0};
      std::vector<std::thread> arrivals;
      const int64_t interval_nanos = 5'000'000;
      const int64_t t0 = asbase::MonoNanos();
      for (int i = 0; i < open_loop_n; ++i) {
        const int64_t due = t0 + i * interval_nanos;
        while (asbase::MonoNanos() < due) {
          std::this_thread::yield();
        }
        arrivals.emplace_back([&] {
          const int64_t sent = asbase::MonoNanos();
          auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                           InvokeRequest("serve-open"));
          if (response.ok() && response->status == 200) {
            std::lock_guard<std::mutex> lock(open_mutex);
            open_latency.Record(asbase::MonoNanos() - sent);
          } else if (response.ok() && response->status == 429) {
            ++open_rejected;
          }
        });
      }
      for (auto& arrival : arrivals) {
        arrival.join();
      }
      std::printf("\nopen loop, 200 req/s for %d arrivals: %s (rejected: %d)\n",
                  open_loop_n, open_latency.Summary().c_str(),
                  open_rejected.load());
      series.Set("open_loop", open_latency.ToJson());
      doc.Set("open_loop_rejected", static_cast<int64_t>(open_rejected.load()));
      visor.StopWatchdog();
    }
  }

  // --------------------------------------------------------------- 5. spike
  {
    // The same burst hits three admission configs. Every client loops until
    // it gets a 200 (pure-reject clients retry 429s with a fixed 5ms
    // backoff), so the histograms measure time-to-success at identical
    // offered load — the metric a caller with a retry loop actually sees.
    struct SpikeResult {
      asbase::Histogram latency;
      int cold_starts = 0;
      int retries = 0;
      int failures = 0;
    };
    const int spike_burst = quick ? 12 : 32;
    auto run_spike = [&](const std::string& name, size_t queue_capacity,
                         size_t min_warm, bool retry_on_429) {
      SpikeResult result;
      AsVisor visor;
      AsVisor::WorkflowOptions options;
      options.wfd = BenchWfd();
      options.pool_size = 4;
      options.max_concurrency = 4;
      options.min_warm = min_warm;
      options.queue_capacity = queue_capacity;
      options.queueing_budget_ms = 10'000;
      visor.RegisterWorkflow(OneStage(name, "bench.serve-io"), options);
      if (min_warm > 0) {
        // Let the warmer reach the floor so the spike lands on a warm pool.
        const int64_t give_up = asbase::MonoNanos() + 10'000'000'000;
        while (asbase::MonoNanos() < give_up) {
          auto warm = visor.WarmWfdCount(name);
          if (warm.ok() && *warm >= min_warm) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      AsVisor::ServingOptions serving;
      serving.max_inflight = 64;
      if (!visor.StartWatchdog(0, serving).ok()) {
        std::fprintf(stderr, "watchdog start failed\n");
        return result;
      }
      std::mutex mutex;
      std::vector<std::thread> clients;
      for (int i = 0; i < spike_burst; ++i) {
        clients.emplace_back([&] {
          const int64_t sent = asbase::MonoNanos();
          for (int attempt = 0; attempt < 200; ++attempt) {
            auto response = ashttp::HttpCall(
                "127.0.0.1", visor.watchdog_port(), InvokeRequest(name));
            if (response.ok() && response->status == 200) {
              bool cold = false;
              if (auto body = asbase::Json::Parse(response->body); body.ok()) {
                cold = (*body)["start"].is_string() &&
                       (*body)["start"].as_string() != "hit";
              }
              std::lock_guard<std::mutex> lock(mutex);
              result.latency.Record(asbase::MonoNanos() - sent);
              if (cold) {
                ++result.cold_starts;
              }
              return;
            }
            if (response.ok() && response->status == 429 && retry_on_429) {
              {
                std::lock_guard<std::mutex> lock(mutex);
                ++result.retries;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
              continue;
            }
            break;
          }
          std::lock_guard<std::mutex> lock(mutex);
          ++result.failures;
        });
      }
      for (auto& client : clients) {
        client.join();
      }
      visor.StopWatchdog();
      return result;
    };

    SpikeResult reject = run_spike("spike-reject", 0, 0, true);
    SpikeResult queued = run_spike("spike-queue",
                                   static_cast<size_t>(spike_burst), 0, false);
    SpikeResult prewarm = run_spike(
        "spike-prewarm", static_cast<size_t>(spike_burst), 4, false);

    std::printf("\nspike of %d concurrent (IO workflow, max_concurrency=4)\n",
                spike_burst);
    std::printf("  %-22s %10s %10s %8s %8s\n", "", "p50", "p99", "cold",
                "retries");
    auto print_row = [](const char* label, const SpikeResult& r) {
      std::printf("  %-22s %10s %10s %8d %8d\n", label,
                  Ms(r.latency.Percentile(0.5)).c_str(),
                  Ms(r.latency.Percentile(0.99)).c_str(), r.cold_starts,
                  r.retries);
    };
    print_row("pure-reject + retry", reject);
    print_row("queue-with-budget", queued);
    print_row("queue + prewarm", prewarm);
    if (reject.failures + queued.failures + prewarm.failures > 0) {
      std::printf("  failures: reject=%d queue=%d prewarm=%d\n",
                  reject.failures, queued.failures, prewarm.failures);
    }
    std::printf("  queue+prewarm vs pure-reject p99: %.1fx\n",
                static_cast<double>(reject.latency.Percentile(0.99)) /
                    static_cast<double>(std::max<int64_t>(
                        prewarm.latency.Percentile(0.99), 1)));

    series.Set("spike_reject", reject.latency.ToJson());
    series.Set("spike_queue", queued.latency.ToJson());
    series.Set("spike_prewarm", prewarm.latency.ToJson());
    doc.Set("spike_burst", static_cast<int64_t>(spike_burst));
    doc.Set("spike_reject_p99_nanos", reject.latency.Percentile(0.99));
    doc.Set("spike_queue_p99_nanos", queued.latency.Percentile(0.99));
    doc.Set("spike_prewarm_p99_nanos", prewarm.latency.Percentile(0.99));
    doc.Set("spike_reject_retries", static_cast<int64_t>(reject.retries));
    doc.Set("spike_reject_cold_starts",
            static_cast<int64_t>(reject.cold_starts));
    doc.Set("spike_queue_cold_starts",
            static_cast<int64_t>(queued.cold_starts));
    doc.Set("spike_prewarm_cold_starts",
            static_cast<int64_t>(prewarm.cold_starts));
    doc.Set("spike_prewarm_beats_reject_p99",
            prewarm.latency.Percentile(0.99) <
                reject.latency.Percentile(0.99));
  }

  doc.Set("series", std::move(series));
  const std::string text = doc.Dump(2);
  if (FILE* f = std::fopen("BENCH_serving.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nresults written to BENCH_serving.json\n");
  }
  return 0;
}

}  // namespace asbench

int main(int argc, char** argv) { return asbench::Main(argc, argv); }
