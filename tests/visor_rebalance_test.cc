// Tests for the elastic shard mesh (DESIGN.md §12): live workflow migration
// with queue + warm-pool handoff, demand-weighted budget re-slicing, shard
// scale-up/down with consistent-hash redistribution, and the rebalance
// observability trail (counters + RebalanceLog in /debug/flight).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/visor/visor_rebalancer.h"
#include "src/core/visor/visor_router.h"
#include "src/obs/rebalance.h"

namespace alloy {
namespace {

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

ashttp::HttpRequest InvokeRequest(const std::string& workflow) {
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + workflow;
  return request;
}

void RegisterEcho() {
  static bool done = [] {
    FunctionRegistry::Global().Register(
        "rebalance.echo", [](FunctionContext& ctx) -> asbase::Status {
          ctx.SetResult("echoed");
          return asbase::OkStatus();
        });
    return true;
  }();
  (void)done;
}

WorkflowSpec EchoSpec(const std::string& name) {
  RegisterEcho();
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{"rebalance.echo", 1}}});
  return spec;
}

// Gate: invocations block until `release` flips, so tests can pin demand on
// a shard deterministically.
std::atomic<int> gate_running{0};
std::atomic<bool> gate_release{false};

WorkflowSpec GateSpec(const std::string& name) {
  static bool done = [] {
    FunctionRegistry::Global().Register(
        "rebalance.gate", [](FunctionContext& ctx) -> asbase::Status {
          ++gate_running;
          while (!gate_release) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          --gate_running;
          ctx.SetResult("released");
          return asbase::OkStatus();
        });
    return true;
  }();
  (void)done;
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{"rebalance.gate", 1}}});
  return spec;
}

// The shard that actually holds `name`, by asking every shard. Returns -1
// when unregistered, -2 when registered on more than one shard.
int OwningShard(AsVisorRouter& router, const std::string& name) {
  int owner = -1;
  for (size_t i = 0; i < router.shard_count(); ++i) {
    const auto names = router.shard(i).WorkflowNames();
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      if (owner >= 0) {
        return -2;
      }
      owner = static_cast<int>(i);
    }
  }
  return owner;
}

// ------------------------------------------------------------- migration

TEST(RebalanceTest, MigrateWorkflowMovesRegistrationAndWarmPool) {
  RouterOptions router_options;
  router_options.shards = 3;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  router.RegisterWorkflow(EchoSpec("movablewf"), options);
  const size_t from = router.ShardOf("movablewf");

  // Two invocations park warm WFDs in the source pool.
  ASSERT_TRUE(router.Invoke("movablewf", asbase::Json()).ok());
  ASSERT_TRUE(router.Invoke("movablewf", asbase::Json()).ok());
  auto warm_before = router.WarmWfdCount("movablewf");
  ASSERT_TRUE(warm_before.ok());
  ASSERT_GE(*warm_before, 1u);

  const size_t to = (from + 1) % router.shard_count();
  ASSERT_TRUE(router.MigrateWorkflow("movablewf", to).ok());

  // Exactly one registration, on the target shard; the route follows.
  EXPECT_EQ(OwningShard(router, "movablewf"), static_cast<int>(to));
  EXPECT_EQ(router.ShardOf("movablewf"), to);

  // The warm WFDs survived the move: the next invocation is a warm start
  // on the new shard, not a cold-start storm.
  auto warm_after = router.WarmWfdCount("movablewf");
  ASSERT_TRUE(warm_after.ok());
  EXPECT_GE(*warm_after, 1u) << "warm pool must hand off, not evict";
  auto invoked = router.Invoke("movablewf", asbase::Json());
  ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();
  EXPECT_TRUE(invoked->warm_start);

  // Migrating to the current owner is a no-op; an unknown workflow errors.
  EXPECT_TRUE(router.MigrateWorkflow("movablewf", to).ok());
  EXPECT_FALSE(router.MigrateWorkflow("nosuchwf", 0).ok());
}

TEST(RebalanceTest, QueuedAdmissionsHandOffDuringMigration) {
  gate_release = false;
  gate_running = 0;
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  options.max_concurrency = 1;
  options.queue_capacity = 8;
  options.queueing_budget_ms = 60'000;
  router.RegisterWorkflow(GateSpec("handoffwf"), options);
  const size_t from = router.ShardOf("handoffwf");
  AsVisor::ServingOptions serving;
  serving.max_inflight = 8;
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());

  asobs::Counter& handoffs = asobs::Registry::Global().GetCounter(
      "alloy_rebalance_queue_handoffs_total", {});
  const uint64_t handoffs_before = handoffs.value();

  // One request holds the workflow's only slot...
  std::thread holder([&] {
    auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                     InvokeRequest("handoffwf"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
  });
  while (gate_running.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...three more queue behind it on the source shard.
  constexpr int kQueued = 3;
  std::vector<std::thread> waiters;
  std::atomic<int> ok_count{0};
  std::atomic<int> fail_status{0};
  for (int i = 0; i < kQueued; ++i) {
    waiters.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest("handoffwf"));
      ASSERT_TRUE(response.ok());
      if (response->status == 200) {
        ++ok_count;
      } else {
        fail_status = response->status;
      }
    });
  }
  asobs::Gauge& queued_gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued", {{"workflow", "handoffwf"},
                             {"alloy_visor_shard", std::to_string(from)}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queued_gauge.value() < kQueued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queued_gauge.value(), kQueued);

  // Migrate the workflow out from under its own queue. The queued waiters
  // must hand off to the new shard and succeed — zero 503s, zero 404s.
  const size_t to = (from + 1) % 2;
  ASSERT_TRUE(router.MigrateWorkflow("handoffwf", to).ok());
  gate_release = true;
  holder.join();
  for (std::thread& waiter : waiters) {
    waiter.join();
  }
  EXPECT_EQ(ok_count.load(), kQueued)
      << "a queued request died with HTTP " << fail_status.load()
      << " instead of handing off";
  EXPECT_GE(handoffs.value(), handoffs_before + kQueued);

  // The migration left its audit trail in the merged flight report.
  ashttp::HttpRequest flight;
  flight.method = "GET";
  flight.target = "/debug/flight";
  auto report = ashttp::HttpCall("127.0.0.1", router.watchdog_port(), flight);
  ASSERT_TRUE(report.ok());
  auto doc = asbase::Json::Parse(report->body);
  ASSERT_TRUE(doc.ok()) << report->body;
  bool saw_migration = false;
  for (const asbase::Json& event : (*doc)["rebalance_events"].array()) {
    if (event["kind"].as_string() == "migrate" &&
        event["workflow"].as_string() == "handoffwf") {
      saw_migration = true;
    }
  }
  EXPECT_TRUE(saw_migration) << report->body;
  router.StopWatchdog();
}

// ------------------------------------------------------- budget re-slicing

TEST(RebalanceTest, DemandWeightedSlicesApportionExactly) {
  // Uniform demand -> even split, exact total.
  auto even = DemandWeightedSlices(8, {1, 1, 1, 1});
  EXPECT_EQ(even, (std::vector<size_t>{2, 2, 2, 2}));
  // Skewed demand -> proportional, floor of 1, exact total.
  auto skewed = DemandWeightedSlices(8, {7, 1});
  EXPECT_EQ(skewed[0] + skewed[1], 8u);
  EXPECT_GE(skewed[0], 6u);
  EXPECT_GE(skewed[1], 1u);
  // Budget smaller than the shard count: everyone keeps the floor.
  auto floor = DemandWeightedSlices(2, {5, 5, 5});
  EXPECT_EQ(floor, (std::vector<size_t>{1, 1, 1}));
  // Zero weights fall back to the even split.
  auto zero = DemandWeightedSlices(6, {0, 0, 0});
  EXPECT_EQ(zero, (std::vector<size_t>{2, 2, 2}));
}

TEST(RebalanceTest, ResliceShiftsBudgetTowardHotShardAndBack) {
  gate_release = false;
  gate_running = 0;
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  options.max_concurrency = 8;
  options.queue_capacity = 16;
  options.queueing_budget_ms = 60'000;
  options.pin_shard = 0;
  router.RegisterWorkflow(GateSpec("hotwf"), options);
  options.pin_shard = 1;
  router.RegisterWorkflow(EchoSpec("coldwf"), options);
  AsVisor::ServingOptions serving;
  serving.max_inflight = 8;
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());
  ASSERT_EQ(router.shard(0).max_inflight(), 4u);
  ASSERT_EQ(router.shard(1).max_inflight(), 4u);

  RebalancerOptions rebalance;
  rebalance.enabled = true;
  rebalance.cooldown_ms = 0;  // tests step the controller directly
  rebalance.reslice_deadband = 2;
  rebalance.migrate = false;
  rebalance.scale = false;
  ShardRebalancer rebalancer(&router, rebalance);

  // Saturate shard 0: 4 running (its whole slice) + 2 queued.
  std::vector<std::thread> load;
  for (int i = 0; i < 6; ++i) {
    load.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest("hotwf"));
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->status, 200) << response->body;
    });
  }
  asobs::Gauge& queued_gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued",
      {{"workflow", "hotwf"}, {"alloy_visor_shard", "0"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((gate_running.load() < 4 || queued_gauge.value() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(gate_running.load(), 4);
  ASSERT_GE(queued_gauge.value(), 2);

  // One control pass: the idle shard's budget flows to the hot one.
  EXPECT_TRUE(rebalancer.TickOnce());
  const size_t hot_slice = router.shard(0).max_inflight();
  const size_t cold_slice = router.shard(1).max_inflight();
  EXPECT_GT(hot_slice, 4u) << "hot shard must gain budget";
  EXPECT_LT(cold_slice, 4u) << "idle shard must cede budget";
  EXPECT_EQ(hot_slice + cold_slice, 8u) << "the total budget is conserved";
  EXPECT_GE(cold_slice, 1u) << "an idle shard keeps a trickle";

  // Load drains; the next pass restores the even split (hysteresis must
  // not wedge the skewed slices in place).
  gate_release = true;
  for (std::thread& thread : load) {
    thread.join();
  }
  EXPECT_TRUE(rebalancer.TickOnce());
  EXPECT_EQ(router.shard(0).max_inflight(), 4u);
  EXPECT_EQ(router.shard(1).max_inflight(), 4u);

  // Balanced load inside the dead band: no action, no churn.
  EXPECT_FALSE(rebalancer.TickOnce());
  router.StopWatchdog();
}

// ------------------------------------------------------------ shard scaling

TEST(RebalanceTest, ScaleDownRedistributesAFractionAndEvacuates) {
  RouterOptions router_options;
  router_options.shards = 5;
  router_options.min_shards = 1;
  router_options.max_shards = 5;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  const int kNames = 120;
  std::vector<size_t> before(kNames);
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "scale-" + std::to_string(i);
    router.RegisterWorkflow(EchoSpec(name), options);
    before[i] = router.ShardOf(name);
  }

  ASSERT_TRUE(router.ScaleTo(4).ok());
  ASSERT_EQ(router.shard_count(), 4u);

  int moved = 0;
  std::set<std::string> seen;
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "scale-" + std::to_string(i);
    const size_t after = router.ShardOf(name);
    ASSERT_LT(after, 4u) << name << " still routed to a removed shard";
    EXPECT_EQ(OwningShard(router, name), static_cast<int>(after))
        << name << " registration does not match its route";
    if (after != before[i]) {
      ++moved;
      // Consistent hashing: only keys the removed shard owned move.
      EXPECT_EQ(before[i], 4u)
          << name << " moved although its shard survived";
    }
  }
  // ~1/5 of the keys lived on the removed shard; allow generous slack but
  // reject the ~4/5 a modulo hash would reshuffle.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kNames / 2)
      << "scale-down reshuffled most keys; consistent hashing is broken";

  // The surviving mesh still serves everything.
  for (int i = 0; i < kNames; i += 17) {
    auto invoked =
        router.Invoke("scale-" + std::to_string(i), asbase::Json());
    ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();
  }
}

TEST(RebalanceTest, RebalancerScalesUpUnderLoadAndBackDownWhenIdle) {
  gate_release = false;
  gate_running = 0;
  RouterOptions router_options;
  router_options.shards = 1;
  router_options.min_shards = 1;
  router_options.max_shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  options.max_concurrency = 4;
  options.queue_capacity = 8;
  options.queueing_budget_ms = 60'000;
  router.RegisterWorkflow(GateSpec("elasticwf"), options);
  AsVisor::ServingOptions serving;
  serving.max_inflight = 2;
  ASSERT_TRUE(router.StartWatchdog(0, serving).ok());

  RebalancerOptions rebalance;
  rebalance.enabled = true;
  rebalance.cooldown_ms = 0;
  rebalance.migrate = false;
  rebalance.scale = true;
  ShardRebalancer rebalancer(&router, rebalance);

  // Saturate: 2 running fill the global budget, 2 queue. Utilization 2x.
  std::vector<std::thread> load;
  for (int i = 0; i < 4; ++i) {
    load.emplace_back([&] {
      auto response = ashttp::HttpCall("127.0.0.1", router.watchdog_port(),
                                       InvokeRequest("elasticwf"));
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->status, 200) << response->body;
    });
  }
  asobs::Gauge& queued_gauge = asobs::Registry::Global().GetGauge(
      "alloy_visor_queued",
      {{"workflow", "elasticwf"}, {"alloy_visor_shard", "0"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((gate_running.load() < 2 || queued_gauge.value() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(gate_running.load(), 2);

  EXPECT_TRUE(rebalancer.TickOnce());
  EXPECT_EQ(router.shard_count(), 2u) << "saturation must grow the mesh";
  // In-flight requests and the queue survive the scale-up.
  gate_release = true;
  for (std::thread& thread : load) {
    thread.join();
  }

  // Demand gone: the mesh shrinks back to the floor.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gate_running.load() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(rebalancer.TickOnce());
  EXPECT_EQ(router.shard_count(), 1u) << "idle mesh must scale back down";

  // The workflow still serves after the round trip.
  auto invoked = router.Invoke("elasticwf", asbase::Json());
  ASSERT_TRUE(invoked.ok()) << invoked.status().ToString();
  router.StopWatchdog();
}

}  // namespace
}  // namespace alloy
