// Tests for the visor serving layer (DESIGN.md §8): warm-WFD pooling,
// pre-warm floor + idle-TTL eviction driven by one PoolWarmer per shard
// (no polling, one thread per shard, Shutdown vs a tick in flight,
// eviction after migration), concurrent watchdog dispatch,
// admission control (queue-with-budget, 429 + computed Retry-After,
// tickets that hold no thread, the x-queue-budget-ms grammar),
// cooperative deadlines (504), and the destroy-on-failure rule.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/visor/visor.h"
#include "src/core/visor/visor_router.h"
#include "src/core/visor/wfd_pool.h"
#include "src/obs/metrics.h"

namespace alloy {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

uint64_t CounterValue(const std::string& name, const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow}})
      .value();
}

// Polls (up to 10 s) until `workflow` has `count` warm WFDs; returns the
// last count seen.
size_t WaitForWarm(const AsVisor& visor, const std::string& workflow,
                   size_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (visor.WarmWfdCount(workflow).value_or(0) < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return visor.WarmWfdCount(workflow).value_or(0);
}

// ------------------------------------------------------------- WfdPool

TEST(WfdPoolTest, LeaseParkEvictLifecycle) {
  WfdPool pool("pooltest", 1);
  const uint64_t hits0 = CounterValue("alloy_visor_pool_hits_total", "pooltest");
  const uint64_t misses0 =
      CounterValue("alloy_visor_pool_misses_total", "pooltest");
  const uint64_t evictions0 =
      CounterValue("alloy_visor_pool_evictions_total", "pooltest");

  // Empty pool: a lease misses.
  EXPECT_EQ(pool.TryAcquireWarm(), nullptr);
  EXPECT_EQ(CounterValue("alloy_visor_pool_misses_total", "pooltest"),
            misses0 + 1);

  auto first = Wfd::Create(SmallWfd());
  auto second = Wfd::Create(SmallWfd());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Parking beyond capacity evicts (destroys) the extra WFD.
  pool.Park(std::move(*first));
  EXPECT_EQ(pool.warm_count(), 1u);
  pool.Park(std::move(*second));
  EXPECT_EQ(pool.warm_count(), 1u);
  EXPECT_EQ(CounterValue("alloy_visor_pool_evictions_total", "pooltest"),
            evictions0 + 1);

  // Parked WFD comes back as a hit.
  EXPECT_NE(pool.TryAcquireWarm(), nullptr);
  EXPECT_EQ(CounterValue("alloy_visor_pool_hits_total", "pooltest"), hits0 + 1);
  EXPECT_EQ(pool.warm_count(), 0u);
}

TEST(WfdPoolTest, ZeroCapacityDisablesPooling) {
  WfdPool pool("pooloff", 0);
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  pool.Park(std::move(*wfd));
  EXPECT_EQ(pool.warm_count(), 0u);
  EXPECT_EQ(pool.TryAcquireWarm(), nullptr);
}

// A pool with a factory or an idle TTL is driven by a PoolWarmer, which
// must outlive it: each test below declares its warmer first.

TEST(WfdPoolTest, IdleTtlEvictsParkedWfdsAndDropsResidentGauge) {
  PoolWarmer warmer;
  WfdPoolOptions options;
  options.capacity = 2;
  options.idle_ttl_ms = 50;
  options.warmer = &warmer;
  WfdPool pool("ttltest", std::move(options));
  const uint64_t evictions0 =
      CounterValue("alloy_visor_pool_evictions_total", "ttltest");

  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  // Touch heap pages so the parked WFD has a real resident footprint
  // (ResidentBytes is mincore-based: untouched reservations count zero).
  auto buffer = (*wfd)->libos().AllocBuffer("ttl", 256 * 1024, 16, 1);
  ASSERT_TRUE(buffer.ok());
  std::memset(*buffer, 0xab, 256 * 1024);
  pool.Park(std::move(*wfd));
  ASSERT_EQ(pool.warm_count(), 1u);
  EXPECT_GT(pool.resident_bytes(), 0u);
  asobs::Gauge& gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_pool_resident_bytes", {{"workflow", "ttltest"}});
  EXPECT_GT(gauge.value(), 0);

  // No traffic: after the TTL the evictor empties the pool and the
  // resident-bytes gauge drops to zero.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (pool.warm_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.warm_count(), 0u) << "idle pool must shrink to zero";
  EXPECT_EQ(pool.resident_bytes(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(CounterValue("alloy_visor_pool_evictions_total", "ttltest"),
            evictions0 + 1);
}

TEST(WfdPoolTest, WarmerFillsToMinWarmFloor) {
  PoolWarmer warmer;
  WfdPoolOptions options;
  options.capacity = 2;
  options.min_warm = 2;
  options.factory = [] { return Wfd::Create(SmallWfd()); };
  options.warmer = &warmer;
  WfdPool pool("floortest", std::move(options));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (pool.warm_count() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.warm_count(), 2u);
  EXPECT_GE(CounterValue("alloy_visor_prewarms_total", "floortest"), 2u);
}

TEST(WfdPoolTest, SixtyFourPoolsOnOneWarmerEachEvictWithinTtl) {
  constexpr int kPools = 64;
  constexpr int64_t kTtlMs = 50;
  constexpr int64_t kMillis = 1'000'000;
  PoolWarmer warmer;
  std::vector<std::unique_ptr<WfdPool>> pools;
  for (int i = 0; i < kPools; ++i) {
    WfdPoolOptions options;
    options.capacity = 1;
    options.idle_ttl_ms = kTtlMs;
    options.warmer = &warmer;
    pools.push_back(std::make_unique<WfdPool>(
        "ttlfleet" + std::to_string(i), std::move(options)));
  }
  // Clone boots are O(us), so the 64 parks land within a few ms of each
  // other and their deadlines bunch up on the one warmer thread.
  auto tmpl = Wfd::Create(SmallWfd());
  ASSERT_TRUE(tmpl.ok());
  auto snapshot = (*tmpl)->CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::vector<std::unique_ptr<Wfd>> wfds;
  for (int i = 0; i < kPools; ++i) {
    auto clone = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    wfds.push_back(std::move(*clone));
  }
  std::vector<int64_t> parked_at(kPools);
  std::vector<int64_t> evicted_at(kPools, 0);
  for (int i = 0; i < kPools; ++i) {
    parked_at[i] = asbase::MonoNanos();
    pools[i]->Park(std::move(wfds[i]));
  }
  int remaining = kPools;
  const int64_t give_up = asbase::MonoNanos() + 5000 * kMillis;
  while (remaining > 0 && asbase::MonoNanos() < give_up) {
    for (int i = 0; i < kPools; ++i) {
      if (evicted_at[i] == 0 && pools[i]->warm_count() == 0) {
        evicted_at[i] = asbase::MonoNanos();
        --remaining;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(remaining, 0) << "some pools never evicted";
  for (int i = 0; i < kPools; ++i) {
    const int64_t idle = evicted_at[i] - parked_at[i];
    EXPECT_GE(idle, kTtlMs * kMillis) << "pool " << i << " evicted early";
    // Liveness only: how late the warmer wakes is up to the host's load.
    EXPECT_LE(idle, (kTtlMs + 1000) * kMillis)
        << "pool " << i << " evicted " << idle / kMillis << " ms after park";
  }
  // One warmer must not serialize the 64 deadlines: the last eviction lands
  // within 20 ms of the first, plus however far apart the parks were. A
  // uniformly late warmer moves every eviction alike and cannot trip this.
  const int64_t park_spread = parked_at[kPools - 1] - parked_at[0];
  const int64_t eviction_spread =
      *std::max_element(evicted_at.begin(), evicted_at.end()) -
      *std::min_element(evicted_at.begin(), evicted_at.end());
  EXPECT_LE(eviction_spread, park_spread + 20 * kMillis)
      << "evictions spread over " << eviction_spread / kMillis
      << " ms for parks " << park_spread / kMillis << " ms apart";
}

TEST(WfdPoolTest, ShutdownWaitsOutATickInsideTheFactory) {
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool entered = false;
  bool release = false;
  std::atomic<bool> factory_returned{false};
  PoolWarmer warmer;
  WfdPoolOptions options;
  options.capacity = 1;
  options.min_warm = 1;
  options.warmer = &warmer;
  options.factory = [&]() -> asbase::Result<std::unique_ptr<Wfd>> {
    auto wfd = Wfd::Create(SmallWfd());
    std::unique_lock<std::mutex> lock(latch_mutex);
    entered = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return release; });
    factory_returned = true;
    return wfd;
  };
  const uint64_t evictions0 =
      CounterValue("alloy_visor_pool_evictions_total", "midtick");
  const uint64_t prewarms0 =
      CounterValue("alloy_visor_prewarms_total", "midtick");
  WfdPool pool("midtick", std::move(options));
  {
    std::unique_lock<std::mutex> lock(latch_mutex);
    ASSERT_TRUE(latch_cv.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return entered; }))
        << "the warmer never called the factory";
  }

  std::atomic<bool> shut_down{false};
  std::thread closer([&] {
    pool.Shutdown();
    shut_down = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shut_down.load())
      << "Shutdown returned while its pool's tick was inside the factory";
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  closer.join();
  EXPECT_TRUE(factory_returned.load());
  // The WFD the interrupted tick booted is destroyed, not parked.
  EXPECT_EQ(pool.warm_count(), 0u);
  EXPECT_EQ(CounterValue("alloy_visor_pool_evictions_total", "midtick"),
            evictions0 + 1);
  EXPECT_EQ(CounterValue("alloy_visor_prewarms_total", "midtick"), prewarms0);
}

// ----------------------------------------------------------- PoolWarmer

WorkflowSpec NoopSpec(const std::string& name) {
  FunctionRegistry::Global().Register(
      "warmer.noop", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("noop");
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{"warmer.noop", 1}}});
  return spec;
}

AsVisor::WorkflowOptions TtlOptions(int64_t idle_ttl_ms) {
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.idle_ttl_ms = idle_ttl_ms;
  return options;
}

size_t ProcessThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(
      std::distance(begin(tasks), std::filesystem::directory_iterator()));
}

TEST(PoolWarmerTest, IdleShardWithSixtyFourTtlWorkflowsDoesNotPoll) {
  // A shard index no other test uses, so the wake-up series is this
  // visor's alone.
  AsVisor::ShardIdentity identity;
  identity.index = 57;
  AsVisor visor(identity);
  for (int i = 0; i < 64; ++i) {
    visor.RegisterWorkflow(NoopSpec("idleshard" + std::to_string(i)),
                           TtlOptions(50));
  }
  asobs::Counter& wakeups = asobs::Registry::Global().GetCounter(
      "alloy_visor_warmer_wakeups_total", {{"alloy_visor_shard", "57"}});
  const uint64_t before = wakeups.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LE(wakeups.value() - before, 5u)
      << "empty pools must not wake their warmer";

  // The counter is live: a parked WFD wakes the warmer for its TTL.
  ASSERT_TRUE(visor.Invoke("idleshard0", asbase::Json()).ok());
  ASSERT_EQ(visor.WarmWfdCount("idleshard0").value_or(0), 1u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (visor.WarmWfdCount("idleshard0").value_or(1) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(visor.WarmWfdCount("idleshard0").value_or(1), 0u);
  EXPECT_GT(wakeups.value(), before);
}

TEST(PoolWarmerTest, RouterAddsOneWarmerThreadPerShardNotPerWorkflow) {
  RouterOptions router_options;
  router_options.shards = 4;
  AsVisorRouter router(router_options);
  const size_t before = ProcessThreads();
  for (int i = 0; i < 64; ++i) {
    router.RegisterWorkflow(NoopSpec("threadcount" + std::to_string(i)),
                            TtlOptions(50));
  }
  const size_t after = ProcessThreads();
  EXPECT_GT(after, before) << "TTL workflows need a warmer";
  EXPECT_LE(after - before, 4u) << "at most one warmer thread per shard";
}

TEST(PoolWarmerTest, DestinationWarmerEvictsMigratedWfdsOnTheirTtl) {
  constexpr int64_t kTtlMs = 300;
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  router.RegisterWorkflow(NoopSpec("migratettl"), TtlOptions(kTtlMs));
  ASSERT_TRUE(router.Invoke("migratettl", asbase::Json()).ok());
  ASSERT_EQ(router.WarmWfdCount("migratettl").value_or(0), 1u);

  const size_t to = (router.ShardOf("migratettl") + 1) % 2;
  const asobs::Labels dest_labels = {{"workflow", "migratettl"},
                                     {"alloy_visor_shard",
                                      std::to_string(to)}};
  asobs::Counter& dest_evictions = asobs::Registry::Global().GetCounter(
      "alloy_visor_pool_evictions_total", dest_labels);
  const uint64_t evictions0 = dest_evictions.value();
  const auto migrated_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(router.MigrateWorkflow("migratettl", to).ok());
  ASSERT_EQ(router.ShardOf("migratettl"), to);
  EXPECT_EQ(router.WarmWfdCount("migratettl").value_or(0), 1u)
      << "the warm WFD must hand off, not evict";

  const auto deadline = migrated_at + std::chrono::seconds(5);
  while (router.WarmWfdCount("migratettl").value_or(1) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - migrated_at);
  EXPECT_EQ(router.WarmWfdCount("migratettl").value_or(1), 0u)
      << "the destination shard's warmer never evicted the adopted WFD";
  EXPECT_GE(idle.count(), kTtlMs) << "evicted before its TTL";
  EXPECT_EQ(dest_evictions.value(), evictions0 + 1);
}

// --------------------------------------------------------- warm serving

TEST(VisorServingTest, PoolReusesWfdAcrossInvocations) {
  FunctionRegistry::Global().Register(
      "serving.stateful", [](FunctionContext& ctx) -> asbase::Status {
        if (ctx.params()["mode"].as_string() == "write") {
          AS_RETURN_IF_ERROR(
              ctx.as().WriteWholeFile("/state.txt", Bytes("kept")));
          ctx.SetResult("wrote");
          return asbase::OkStatus();
        }
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/state.txt"));
        ctx.SetResult(std::string(data.begin(), data.end()));
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "warmwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.stateful", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  visor.RegisterWorkflow(spec, options);

  asbase::Json write_params;
  write_params.Set("mode", "write");
  auto cold = visor.Invoke("warmwf", write_params);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->warm_start);
  EXPECT_GT(cold->cold_start_nanos, 0);
  ASSERT_EQ(visor.WarmWfdCount("warmwf").value_or(0), 1u);

  // The second invocation leases the parked WFD: no wfd_create, no module
  // re-loads, and the filesystem written by invocation 1 is still there.
  asbase::Json read_params;
  read_params.Set("mode", "read");
  auto warm = visor.Invoke("warmwf", read_params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_start);
  EXPECT_EQ(warm->wfd_create_nanos, 0);
  EXPECT_EQ(warm->module_load_nanos, 0)
      << "warm start must not re-load modules the first run loaded";
  EXPECT_EQ(warm->run.result, "kept");
  EXPECT_EQ(visor.WarmWfdCount("warmwf").value_or(0), 1u);
}

TEST(VisorServingTest, ConcurrentWatchdogInvocationsRunInParallel) {
  FunctionRegistry::Global().Register(
      "serving.sleep100", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ctx.SetResult("slept");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "parwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep100", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 4;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      ashttp::HttpRequest request;
      request.method = "POST";
      request.target = "/invoke/parwf";
      auto response =
          ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
      if (response.ok() && response->status == 200) {
        ++ok_count;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ok_count.load(), 4);
  // Serial execution would take >= 400ms of sleeps alone.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            350)
      << "4 invocations at max_concurrency=4 must overlap";
}

TEST(VisorServingTest, SaturationRejectsWith429) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.block", [&started, &release](FunctionContext& ctx)
                           -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "satwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.block", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 1;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  const uint64_t rejections0 =
      CounterValue("alloy_visor_rejections_total", "satwf");

  std::thread first([&] {
    ashttp::HttpRequest request;
    request.method = "POST";
    request.target = "/invoke/satwf";
    auto response =
        ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The workflow is at max_concurrency=1: the next request is rejected
  // immediately, not queued.
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/satwf";
  auto rejected = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  EXPECT_EQ(rejected->headers.count("retry-after"), 1u);
  EXPECT_EQ(CounterValue("alloy_visor_rejections_total", "satwf"),
            rejections0 + 1);

  release = true;
  first.join();

  // With the slot free again the workflow is admissible.
  auto admitted = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, 200);
}

TEST(VisorServingTest, SlowStageTripsDeadline) {
  FunctionRegistry::Global().Register(
      "serving.slow", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ctx.SetResult("too late");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "slowwf";
  // Two stages so the deadline check after the slow stage's barrier stops
  // the second stage from ever running.
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.slow", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.slow", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.timeout_ms = 50;
  visor.RegisterWorkflow(spec, options);

  const uint64_t timeouts0 = CounterValue("alloy_visor_timeouts_total", "slowwf");
  auto result = visor.Invoke("slowwf", asbase::Json());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), asbase::ErrorCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(CounterValue("alloy_visor_timeouts_total", "slowwf"), timeouts0 + 1);

  // Over HTTP the deadline maps to 504 with the status visible in the body.
  ASSERT_TRUE(visor.StartWatchdog(0).ok());
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/slowwf";
  auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("DEADLINE_EXCEEDED"), std::string::npos);
}

TEST(VisorServingTest, FailedInvocationDestroysWfdInsteadOfRepooling) {
  FunctionRegistry::Global().Register(
      "serving.flaky", [](FunctionContext& ctx) -> asbase::Status {
        if (ctx.params()["fail"].as_bool(false)) {
          return asbase::Internal("induced failure");
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "flakywf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.flaky", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  visor.RegisterWorkflow(spec, options);

  asbase::Json fail_params;
  fail_params.Set("fail", true);
  EXPECT_FALSE(visor.Invoke("flakywf", fail_params).ok());
  EXPECT_EQ(visor.WarmWfdCount("flakywf").value_or(99), 0u)
      << "a failed invocation's WFD must be destroyed, never re-pooled";

  // The next invocation therefore cold-starts, then parks its clean WFD.
  auto recovered = visor.Invoke("flakywf", asbase::Json());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->warm_start);
  EXPECT_EQ(visor.WarmWfdCount("flakywf").value_or(0), 1u);
}

// ------------------------------------------- queue-with-budget admission

ashttp::HttpRequest InvokeRequest(const std::string& workflow,
                                  const std::string& body = "") {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  request.body = body;
  return request;
}

TEST(VisorServingTest, BurstQueuesThenServesWithinBudget) {
  FunctionRegistry::Global().Register(
      "serving.sleep30", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "queuewf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep30", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 8;
  options.queueing_budget_ms = 10'000;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  const uint64_t rejections0 =
      CounterValue("alloy_visor_rejections_total", "queuewf");

  // 4 concurrent requests against max_concurrency=1: pre-queue behavior
  // rejected 3 of them; with a queue and a generous budget all 4 serve.
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                       InvokeRequest("queuewf"));
      if (response.ok() && response->status == 200) {
        ++ok_count;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(ok_count.load(), 4);
  EXPECT_EQ(CounterValue("alloy_visor_rejections_total", "queuewf"),
            rejections0);
  // At least the non-first requests waited in the queue.
  const auto queue_wait = asobs::Registry::Global()
                              .GetHistogram("alloy_visor_queue_wait_nanos",
                                            {{"workflow", "queuewf"}})
                              .Snapshot();
  EXPECT_GE(queue_wait.count(), 3u);
}

TEST(VisorServingTest, OverBudgetRejectsWithComputedRetryAfter) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.tunable",
      [&started, &release](FunctionContext& ctx) -> asbase::Status {
        const int64_t sleep_ms = ctx.params()["sleep_ms"].as_int(0);
        if (sleep_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        } else {
          started = true;
          while (!release) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "budgetwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunable", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 4;
  options.queueing_budget_ms = 250;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  // Seed the service-time EWMA with one ~1.5s run so the predictor has a
  // sample: predicted wait for the next queued arrival = 1 × 1.5s / 1.
  asbase::Json seed;
  seed.Set("sleep_ms", static_cast<int64_t>(1500));
  ASSERT_TRUE(visor.Invoke("budgetwf", seed).ok());

  // Saturate the single slot with a request we control.
  std::thread blocker([&] {
    auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                     InvokeRequest("budgetwf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Default budget 250ms < predicted 1.5s: rejected, and Retry-After is
  // computed from the prediction (ceil(1.5s) = 2s), not the static
  // fallback of 1s.
  auto rejected = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                   InvokeRequest("budgetwf"));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  ASSERT_EQ(rejected->headers.count("retry-after"), 1u);
  EXPECT_EQ(rejected->headers.at("retry-after"), "2");

  // A client with a bigger budget (x-queue-budget-ms header) queues
  // instead, and serves once the blocker releases the slot.
  std::thread patient([&] {
    asbase::Json params;
    params.Set("sleep_ms", static_cast<int64_t>(1));
    auto request = InvokeRequest("budgetwf", params.Dump());
    request.headers["x-queue-budget-ms"] = "30000";
    auto response =
        ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  // Give the patient request time to enter the queue, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release = true;
  blocker.join();
  patient.join();
}

TEST(VisorServingTest, RegisterWorkflowPrewarmsToFloorWithoutInvocation) {
  FunctionRegistry::Global().Register(
      "serving.noop", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("noop");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "prewarmwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.noop", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  options.min_warm = 2;
  visor.RegisterWorkflow(spec, options);

  // No invocation: the pool warmer alone fills the floor.
  ASSERT_EQ(WaitForWarm(visor, "prewarmwf", 2), 2u);
  EXPECT_GE(CounterValue("alloy_visor_prewarms_total", "prewarmwf"), 2u);

  // A pre-warmed WFD serves the first invocation warm — the spike pays no
  // cold start.
  auto first = visor.Invoke("prewarmwf", asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->warm_start);
  EXPECT_EQ(first->wfd_create_nanos, 0);
}

TEST(VisorServingTest, PrewarmedReplacementIsACloneThatLoadsNoModules) {
  FunctionRegistry::Global().Register(
      "serving.warmod", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/warm.txt", Bytes("w")));
        if (ctx.params()["fail"].as_bool(false)) {
          return asbase::Internal("deliberate failure");
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  const std::string wf = "warmodwf";
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = wf;
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.warmod", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.min_warm = 1;
  visor.RegisterWorkflow(spec, options);
  ASSERT_EQ(WaitForWarm(visor, wf, 1), 1u);

  // No template existed for the pre-warmed WFD: the first run pays the
  // module loads itself and publishes the template.
  auto first = visor.Invoke(wf, asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->warm_start);
  EXPECT_GT(first->module_load_nanos, 0);

  // A failed invocation destroys its WFD, draining the pool; the warmer
  // boots the replacement as a clone of that template.
  const uint64_t clones0 =
      CounterValue("alloy_visor_snapshot_clones_total", wf);
  const uint64_t fallbacks0 =
      CounterValue("alloy_visor_snapshot_fallback_boots_total", wf);
  asbase::Json fail_params;
  fail_params.Set("fail", true);
  EXPECT_FALSE(visor.Invoke(wf, fail_params).ok());
  ASSERT_EQ(WaitForWarm(visor, wf, 1), 1u);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_clones_total", wf),
            clones0 + 1);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_fallback_boots_total", wf),
            fallbacks0);

  // The clone holds the template's modules: the same run loads none.
  auto replacement = visor.Invoke(wf, asbase::Json());
  ASSERT_TRUE(replacement.ok()) << replacement.status().ToString();
  EXPECT_TRUE(replacement->warm_start);
  EXPECT_EQ(replacement->module_load_nanos, 0);
}

TEST(VisorServingTest, PrewarmedRamfsWfdFullBootsAndLoadsOnFirstRun) {
  FunctionRegistry::Global().Register(
      "serving.ramfs_write", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/ram.txt", Bytes("r")));
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  const std::string wf = "ramfswarmwf";
  const uint64_t clones0 =
      CounterValue("alloy_visor_snapshot_clones_total", wf);
  const uint64_t fallbacks0 =
      CounterValue("alloy_visor_snapshot_fallback_boots_total", wf);
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = wf;
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.ramfs_write", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.wfd.use_ramfs = true;
  options.pool_size = 1;
  options.min_warm = 1;
  visor.RegisterWorkflow(spec, options);
  ASSERT_EQ(WaitForWarm(visor, wf, 1), 1u);
  // A ramfs WFD has no template to clone: the factory full-boots it.
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_fallback_boots_total", wf),
            fallbacks0 + 1);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_clones_total", wf), clones0);

  // The booted WFD holds no module yet: its first run loads them on demand.
  auto first = visor.Invoke(wf, asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->warm_start);
  EXPECT_EQ(first->run.result, "ok");
  EXPECT_GT(first->module_load_nanos, 0);
  EXPECT_NE(std::find(first->modules_loaded.begin(),
                      first->modules_loaded.end(), ModuleKind::kRamfs),
            first->modules_loaded.end());
}

// --------------------------------------------- cross-workflow queue fairness

TEST(VisorServingTest, AdmissionRoundRobinPreventsCrossWorkflowStarvation) {
  FunctionRegistry::Global().Register(
      "serving.sleep20", [](FunctionContext& ctx) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisor visor;
  auto register_workflow = [&](const std::string& name) {
    WorkflowSpec spec;
    spec.name = name;
    spec.stages.push_back(StageSpec{{FunctionSpec{"serving.sleep20", 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 1;
    options.max_concurrency = 1;
    options.queue_capacity = 8;
    options.queueing_budget_ms = 60'000;
    visor.RegisterWorkflow(spec, options);
  };
  register_workflow("heavywf");
  register_workflow("lightwf");
  AsVisor::ServingOptions serving;
  serving.worker_threads = 8;
  serving.max_inflight = 1;  // one global slot: the workflows must share it
  ASSERT_TRUE(visor.StartWatchdog(0, serving).ok());

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  std::vector<std::thread> clients;
  auto fire = [&](const std::string& name) {
    clients.emplace_back([&, name] {
      auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                       InvokeRequest(name));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200) << response->body;
      std::lock_guard<std::mutex> lock(order_mutex);
      completion_order.push_back(name);
    });
  };
  // A heavy backlog first, then one light request: if the global slot went
  // to whichever waiter raced first, the light workflow could drain behind
  // the entire heavy queue. Round-robin grants interleave it.
  for (int i = 0; i < 4; ++i) {
    fire("heavywf");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fire("lightwf");
  for (auto& client : clients) {
    client.join();
  }
  ASSERT_EQ(completion_order.size(), 5u);
  const auto light_at = std::find(completion_order.begin(),
                                  completion_order.end(), "lightwf");
  ASSERT_NE(light_at, completion_order.end());
  EXPECT_LT(light_at - completion_order.begin(), 4)
      << "the light workflow must not wait out the whole heavy backlog";
}

TEST(VisorServingTest, WeightedSharesGrantSlotsProportionally) {
  static std::atomic<bool> gate_started{false};
  static std::atomic<bool> gate_release{false};
  gate_started = false;
  gate_release = false;
  FunctionRegistry::Global().Register(
      "serving.weightgate", [](FunctionContext& ctx) -> asbase::Status {
        gate_started = true;
        while (!gate_release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  std::mutex order_mutex;
  std::vector<std::string> grant_order;
  FunctionRegistry::Global().Register(
      "serving.recordwf", [&](FunctionContext& ctx) -> asbase::Status {
        {
          std::lock_guard<std::mutex> lock(order_mutex);
          grant_order.push_back(ctx.params()["who"].as_string());
        }
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisor visor;
  auto register_workflow = [&](const std::string& name,
                               const std::string& function, double weight) {
    WorkflowSpec spec;
    spec.name = name;
    spec.stages.push_back(StageSpec{{FunctionSpec{function, 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 1;
    options.max_concurrency = 12;
    options.queue_capacity = 16;
    options.queueing_budget_ms = 60'000;
    options.weight = weight;
    visor.RegisterWorkflow(spec, options);
  };
  register_workflow("wgate", "serving.weightgate", 1.0);
  register_workflow("a-prio", "serving.recordwf", 3.0);
  register_workflow("b-std", "serving.recordwf", 1.0);
  AsVisor::ServingOptions serving;
  serving.worker_threads = 16;
  serving.max_inflight = 1;  // one global slot, granted strictly one by one
  ASSERT_TRUE(visor.StartWatchdog(0, serving).ok());

  // Occupy the single slot, then pile up 9 weight-3 and 3 weight-1 waiters
  // so every later grant is contested.
  std::thread gate_holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                     InvokeRequest("wgate"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  while (!gate_started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  asobs::Gauge& a_queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "a-prio"}});
  asobs::Gauge& b_queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "b-std"}});
  std::vector<std::thread> clients;
  auto fire = [&](const std::string& name) {
    clients.emplace_back([&, name] {
      asbase::Json params;
      params.Set("who", name);
      auto response =
          ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                           InvokeRequest(name, params.Dump()));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200) << response->body;
    });
  };
  for (int i = 0; i < 9; ++i) {
    fire("a-prio");
  }
  for (int i = 0; i < 3; ++i) {
    fire("b-std");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((a_queued.value() < 9 || b_queued.value() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(a_queued.value(), 9);
  ASSERT_EQ(b_queued.value(), 3);

  gate_release = true;
  gate_holder.join();
  for (auto& client : clients) {
    client.join();
  }

  // Deficit-round-robin at 3:1 weights grants in A,A,A,B cycles while both
  // queues are non-empty. Check the ratio window by window rather than the
  // exact sequence so the assertion is robust to the final uncontested tail.
  ASSERT_EQ(grant_order.size(), 12u);
  for (int window = 0; window < 3; ++window) {
    int a_grants = 0;
    for (int i = window * 4; i < (window + 1) * 4; ++i) {
      if (grant_order[i] == "a-prio") {
        ++a_grants;
      }
    }
    EXPECT_EQ(a_grants, 3) << "window " << window
                           << " must grant the weight-3 workflow 3 of 4 slots";
  }
}

// ------------------------------- one hop: admission holds no threads

TEST(VisorServingTest, WatchdogAddsOnlyReactorsAndServingWorkers) {
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  router.RegisterWorkflow(NoopSpec("hopthreads"), options);
  AsVisor::ServingOptions serving;
  serving.worker_threads = 6;
  serving.max_inflight = 8;
  const size_t before = ProcessThreads();
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());
  const size_t reactors = ashttp::HttpServerOptions::FromEnv().reactors;
  const size_t rebalancer = router.rebalancer() != nullptr ? 1 : 0;
  EXPECT_EQ(ProcessThreads() - before,
            reactors + serving.worker_threads + rebalancer)
      << "the edge must add its reactors and nothing else";
  router.StopWatchdog();
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  timeval timeout{};
  timeout.tv_sec = 10;  // fail loudly instead of hanging the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(VisorServingTest, QueuedBurstHoldsNoThreadsAndServesInTicketOrder) {
  static std::atomic<bool> gate_started{false};
  static std::atomic<bool> gate_release{false};
  gate_started = false;
  gate_release = false;
  std::mutex order_mutex;
  std::vector<int64_t> run_order;
  FunctionRegistry::Global().Register(
      "serving.fifo", [&](FunctionContext& ctx) -> asbase::Status {
        const int64_t seq = ctx.params()["seq"].as_int(-1);
        if (seq == 0) {
          gate_started = true;
          while (!gate_release) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (seq >= 0) {
          std::lock_guard<std::mutex> lock(order_mutex);
          run_order.push_back(seq);
        }
        ctx.SetResult("seq" + std::to_string(seq));
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "fifowf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.fifo", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 64;
  options.queueing_budget_ms = 60'000;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());
  // Warm up: the WFD exists and the service-time EWMA has a sample.
  auto warm = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                               InvokeRequest("fifowf"));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->status, 200) << warm->body;
  const size_t threads_before = ProcessThreads();

  // One keep-alive connection per request, all driven from this thread.
  // Request 0 holds the only slot; each later one is sent only once its
  // predecessor is queued, so ticket order is send order.
  constexpr int kRequests = 48;
  asobs::Gauge& queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "fifowf"}});
  std::vector<std::unique_ptr<ashttp::HostStream>> connections;
  for (int i = 0; i < kRequests; ++i) {
    const int fd = ConnectLoopback(visor.watchdog_port());
    ASSERT_GE(fd, 0) << i;
    connections.push_back(std::make_unique<ashttp::HostStream>(fd));
    asbase::Json params;
    params.Set("seq", static_cast<int64_t>(i));
    const std::string wire =
        ashttp::Serialize(InvokeRequest("fifowf", params.Dump()));
    ASSERT_TRUE(connections.back()
                    ->Write({reinterpret_cast<const uint8_t*>(wire.data()),
                             wire.size()})
                    .ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline &&
           (i == 0 ? !gate_started.load() : queued.value() < i)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(i == 0 ? gate_started.load() : queued.value() == i) << i;
  }
  EXPECT_EQ(ProcessThreads(), threads_before)
      << "47 queued requests must not hold a thread each";

  gate_release = true;
  for (int i = 0; i < kRequests; ++i) {
    auto response = ashttp::ReadResponse(*connections[i]);
    ASSERT_TRUE(response.ok()) << i;
    ASSERT_EQ(response->status, 200) << i << ": " << response->body;
    auto body = asbase::Json::Parse(response->body);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ((*body)["result"].as_string(), "seq" + std::to_string(i));
  }
  std::lock_guard<std::mutex> lock(order_mutex);
  ASSERT_EQ(run_order.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(run_order[i], i) << "grants must follow ticket order";
  }
}

TEST(VisorServingTest, QueueBudgetHeaderIsABoundedDecimal) {
  static std::atomic<bool> gate_started{false};
  static std::atomic<bool> gate_release{false};
  gate_started = false;
  gate_release = false;
  FunctionRegistry::Global().Register(
      "serving.budgetgate", [](FunctionContext& ctx) -> asbase::Status {
        if (ctx.params()["hold"].as_bool(false)) {
          gate_started = true;
          while (!gate_release) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "budgethdr";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.budgetgate", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 4;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());
  // A service-time sample, so every queued arrival predicts a wait > 0.
  ASSERT_TRUE(visor.Invoke("budgethdr", asbase::Json()).ok());

  asbase::Json hold;
  hold.Set("hold", true);
  std::thread holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                     InvokeRequest("budgethdr", hold.Dump()));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!gate_started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Malformed budgets are the client's error, not a 0 ms budget (429).
  for (const std::string bad : {"abc", "-1", "10ms", "", "+5", "1e3"}) {
    auto request = InvokeRequest("budgethdr");
    request.headers["x-queue-budget-ms"] = bad;
    auto response =
        ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
    ASSERT_TRUE(response.ok()) << bad;
    EXPECT_EQ(response->status, 400) << "'" << bad << "'";
  }
  // A huge budget clamps to kMaxQueueBudgetMs instead of overflowing the
  // nanosecond comparison into a negative budget (which rejected it): the
  // request queues and serves once the slot frees.
  std::thread patient([&] {
    auto request = InvokeRequest("budgethdr");
    request.headers["x-queue-budget-ms"] = "99999999999999999999";
    auto response =
        ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  asobs::Gauge& queued = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "budgethdr"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queued.value() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queued.value(), 1);
  gate_release = true;
  holder.join();
  patient.join();
}

// ------------------------- flight recorder / tail retention / SLO (§11)

TEST(VisorObservabilityTest, TimeoutBurstRetainsTailTracesAndFlightRecords) {
  FunctionRegistry::Global().Register(
      "serving.tunablesleep", [](FunctionContext& ctx) -> asbase::Status {
        const int64_t sleep_ms = ctx.params()["sleep_ms"].as_int(0);
        if (sleep_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
        ctx.SetResult("done");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "tailwf";
  // Two stages so the cooperative deadline check after the first stage's
  // barrier converts a slow run into kDeadlineExceeded.
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunablesleep", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.tunablesleep", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  options.timeout_ms = 50;
  visor.RegisterWorkflow(spec, options);

  // Tail-based retention: only failures/timeouts (or >10s runs) keep their
  // span tree. The fast successes below must NOT be retained.
  AsVisor::ServingOptions serving;
  serving.trace_threshold_ms = 10'000;
  ASSERT_TRUE(visor.StartWatchdog(0, serving).ok());
  EXPECT_EQ(visor.trace_threshold_ms(), 10'000);

  asobs::Counter& retained = asobs::Registry::Global().GetCounter(
      "alloy_visor_traces_retained_total");
  const uint64_t retained0 = retained.value();

  // Three fast successes...
  asbase::Json fast;
  fast.Set("sleep_ms", static_cast<int64_t>(0));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(visor.Invoke("tailwf", fast).ok());
  }
  // ...then a burst of three timeouts.
  asbase::Json slow;
  slow.Set("sleep_ms", static_cast<int64_t>(100));
  for (int i = 0; i < 3; ++i) {
    auto result = visor.Invoke("tailwf", slow);
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.status().code(), asbase::ErrorCode::kDeadlineExceeded);
  }

  // Only the offenders were retained for /trace.
  EXPECT_EQ(retained.value(), retained0 + 3)
      << "fast successes under the threshold must not be retained";

  // The flight ring has everything — and the timeout records carry a phase
  // breakdown (they reached the exec phase before the deadline fired).
  ashttp::HttpRequest request;
  request.method = "GET";
  request.target = "/debug/flight?workflow=tailwf";
  auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto doc = asbase::Json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  ASSERT_EQ((*doc)["count"].as_int(), 6);
  int ok_records = 0;
  int timeout_records = 0;
  std::set<int64_t> timeout_ids;
  for (const asbase::Json& record : (*doc)["records"].array()) {
    EXPECT_EQ(record["workflow"].as_string(), "tailwf");
    if (record["outcome"].as_string() == "ok") {
      ++ok_records;
    } else if (record["outcome"].as_string() == "timeout") {
      ++timeout_records;
      timeout_ids.insert(record["id"].as_int());
      EXPECT_GT(record["phases"]["exec_nanos"].as_int(), 0)
          << "a timeout record must attribute where the time went";
      EXPECT_GE(record["total_nanos"].as_int(), 50 * 1'000'000);
    }
  }
  EXPECT_EQ(ok_records, 3);
  EXPECT_EQ(timeout_records, 3);
  EXPECT_EQ(timeout_ids.size(), 3u) << "every record has its own id";

  // /trace holds exactly the three timed-out trees, each under its flight
  // record's id.
  request.target = "/trace?workflow=tailwf";
  auto traced = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  auto chrome = asbase::Json::Parse(traced->body);
  ASSERT_TRUE(chrome.ok()) << traced->body;
  std::set<int64_t> trace_pids;
  for (const asbase::Json& event : (*chrome)["traceEvents"].array()) {
    trace_pids.insert(event["pid"].as_int());
  }
  EXPECT_EQ(trace_pids, timeout_ids)
      << "served trees must be exactly the timeouts, pid = record id";

  // Phase attribution across the same records: exec owns this tail (the
  // timeouts burned their lives sleeping inside the orchestrator run).
  request.target = "/debug/latency?workflow=tailwf";
  auto latency = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(latency.ok());
  ASSERT_EQ(latency->status, 200);
  auto attribution = asbase::Json::Parse(latency->body);
  ASSERT_TRUE(attribution.ok()) << latency->body;
  EXPECT_EQ((*attribution)["count"].as_int(), 6);
  EXPECT_EQ((*attribution)["tail_owner"].as_string(), "exec")
      << latency->body;
}

TEST(VisorObservabilityTest, HealthzAlwaysOkReadyzReflectsDrain) {
  AsVisor visor;
  ASSERT_TRUE(visor.StartWatchdog(0).ok());
  ashttp::HttpRequest request;
  request.method = "GET";

  request.target = "/healthz";
  auto healthz = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  EXPECT_EQ(healthz->body, "ok");

  request.target = "/readyz";
  auto ready = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);
  EXPECT_EQ(ready->body, "ready");

  visor.BeginDrain();
  EXPECT_TRUE(visor.draining());
  auto drained = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->status, 503);
  EXPECT_EQ(drained->body, "draining");

  // Liveness is unaffected by the drain.
  request.target = "/healthz";
  auto alive = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->status, 200);
}

TEST(VisorObservabilityTest, SloBurnTriggerWritesBlackBox) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "alloy_blackbox_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("ALLOY_BLACKBOX_DIR", dir.c_str(), 1);

  FunctionRegistry::Global().Register(
      "serving.alwaysfail", [](FunctionContext&) -> asbase::Status {
        return asbase::Internal("induced failure");
      });
  {
    AsVisor visor;  // constructed AFTER the env var is set
    WorkflowSpec spec;
    spec.name = "slowf";
    spec.stages.push_back(StageSpec{{FunctionSpec{"serving.alwaysfail", 1}}});
    AsVisor::WorkflowOptions options;
    options.wfd = SmallWfd();
    options.pool_size = 0;
    options.slo_objective = 0.99;  // 1% budget: one failure burns hot
    visor.RegisterWorkflow(spec, options);

    EXPECT_FALSE(visor.Invoke("slowf", asbase::Json()).ok());

    // The failure pushed the fast burn over its threshold (bad fraction 1.0
    // against a 1% budget = burn 100 >= 14): gauges move, black box drops.
    asobs::Gauge& fast_burn = asobs::Registry::Global().GetGauge(
        "alloy_slo_burn_rate",
        {{"workflow", "slowf"}, {"window", "fast"}});
    EXPECT_GE(fast_burn.value(), 14'000)
        << "burn gauges are milli-scaled (burn 14.0 -> 14000)";
  }
  ::unsetenv("ALLOY_BLACKBOX_DIR");

  std::vector<fs::path> boxes;
  for (const auto& file : fs::directory_iterator(dir)) {
    boxes.push_back(file.path());
  }
  ASSERT_EQ(boxes.size(), 1u) << "exactly one black box per incident";
  std::ifstream in(boxes[0]);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto doc = asbase::Json::Parse(body);
  ASSERT_TRUE(doc.ok()) << body;
  EXPECT_EQ((*doc)["reason"].as_string(), "fast_burn");
  EXPECT_EQ((*doc)["workflow"].as_string(), "slowf");
  EXPECT_GE((*doc)["fast_burn_milli"].as_int(), 14'000);
  // The snapshot embeds the flight ring (the failure's record is in there)
  // and the per-workflow queue/pool state.
  EXPECT_GE((*doc)["flight"]["count"].as_int(), 1);
  ASSERT_TRUE((*doc)["queues"].is_array());
  EXPECT_EQ((*doc)["queues"].array()[0]["workflow"].as_string(), "slowf");
  fs::remove_all(dir);
}

TEST(VisorObservabilityTest, RejectionLeavesFlightRecord) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  FunctionRegistry::Global().Register(
      "serving.obsblock", [&started, &release](FunctionContext& ctx)
                              -> asbase::Status {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ctx.SetResult("released");
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "rejwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"serving.obsblock", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.max_concurrency = 1;
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  std::thread first([&] {
    auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                     InvokeRequest("rejwf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  while (!started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto rejected = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(),
                                   InvokeRequest("rejwf"));
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->status, 429);
  release = true;
  first.join();

  // The 429 deposited a "rejected" record — a rejection storm must be
  // reconstructable from the black box like any other incident.
  const std::vector<asobs::FlightRecord> records =
      visor.flight().Snapshot("rejwf");
  bool found = false;
  for (const asobs::FlightRecord& record : records) {
    if (record.outcome == asobs::FlightOutcome::kRejected) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "rejections must appear in the flight ring";
}

TEST(VisorObservabilityTest, ServingOptionsOverrideTraceKnobs) {
  AsVisor visor;
  // Construction default (no env override in the test environment).
  EXPECT_EQ(visor.trace_threshold_ms(), 0);
  AsVisor::ServingOptions serving;
  serving.trace_threshold_ms = 250;
  ASSERT_TRUE(visor.StartServing(serving).ok());
  EXPECT_EQ(visor.trace_threshold_ms(), 250);
  visor.StopServing();
}

}  // namespace
}  // namespace alloy
