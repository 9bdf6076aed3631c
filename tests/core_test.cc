// Tests for the AlloyStack core: WFD lifecycle, on-demand module loading,
// as-std syscall routing through the MPK trampoline, AsBuffer reference
// passing, orchestrator staging, visor/watchdog, and the WASI layer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/asstd/asstd.h"
#include "src/core/asstd/wasi.h"
#include "src/core/visor/visor.h"
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

// ------------------------------------------------------------ on-demand

TEST(WfdTest, CreateStartsWithNoModules) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  EXPECT_TRUE((*wfd)->libos().LoadedModules().empty())
      << "no as-libos module may be instantiated before first use";
  EXPECT_GT((*wfd)->creation_nanos(), 0);
  // WFD instantiation itself stays in the microsecond range (cold start).
  EXPECT_LT((*wfd)->creation_nanos(), 50'000'000);
}

TEST(WfdTest, FirstSyscallLoadsModuleSecondDoesNot) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());

  asobs::Counter& fatfs_loads = asobs::Registry::Global().GetCounter(
      "alloy_libos_module_loads_total", {{"module", "fatfs"}});
  const uint64_t fatfs_loads_before = fatfs_loads.value();

  ASSERT_FALSE((*wfd)->libos().IsLoaded(ModuleKind::kFdtab));
  ASSERT_TRUE(as.WriteWholeFile("/a.txt", Bytes("x")).ok());  // slow path
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kFdtab));
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kFatfs));

  // fdtab pulled fatfs in as a dependency: each is charged its own load,
  // and each pays at least the modelled dlmopen cost.
  const asbase::SimCostModel& model = asbase::SimCostModel::Global();
  const int64_t dlmopen = model.Scaled(model.dlmopen_per_module_nanos);
  const int64_t fatfs = (*wfd)->libos().ModuleLoadNanos(ModuleKind::kFatfs);
  const int64_t fdtab = (*wfd)->libos().ModuleLoadNanos(ModuleKind::kFdtab);
  EXPECT_GE(fatfs, dlmopen);
  EXPECT_GE(fdtab, dlmopen);
  EXPECT_EQ(fatfs + fdtab, (*wfd)->libos().TotalLoadNanos())
      << "a file write loads exactly fatfs and fdtab";
  EXPECT_EQ(fatfs_loads.value(), fatfs_loads_before + 1)
      << "the dependency load is counted under its own module";

  const int64_t load_after_first = (*wfd)->libos().TotalLoadNanos();
  ASSERT_TRUE(as.WriteWholeFile("/b.txt", Bytes("y")).ok());  // fast path
  EXPECT_EQ((*wfd)->libos().TotalLoadNanos(), load_after_first)
      << "fast path must not re-load modules";
}

TEST(WfdTest, LoadAllBootsEverythingUpfront) {
  WfdOptions options = SmallWfd();
  options.on_demand = false;
  auto wfd = Wfd::Create(options);
  ASSERT_TRUE(wfd.ok());
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kMm));
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kFatfs));
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kFdtab));
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kTime));
  EXPECT_GT((*wfd)->libos().TotalLoadNanos(), 0);
}

TEST(WfdTest, OnDemandBeatsLoadAllOnColdStart) {
  // The headline claim of §4: with on-demand loading a workflow that needs
  // no module starts far faster than a load-all LibOS.
  WfdOptions lazy = SmallWfd();
  WfdOptions eager = SmallWfd();
  eager.on_demand = false;

  auto lazy_wfd = Wfd::Create(lazy);
  auto eager_wfd = Wfd::Create(eager);
  ASSERT_TRUE(lazy_wfd.ok());
  ASSERT_TRUE(eager_wfd.ok());
  const int64_t lazy_cold = (*lazy_wfd)->creation_nanos();
  const int64_t eager_cold =
      (*eager_wfd)->creation_nanos() + (*eager_wfd)->libos().TotalLoadNanos();
  EXPECT_LT(lazy_cold, eager_cold);
}

TEST(WfdTest, SharedModulesAcrossFunctionsInOneWfd) {
  // Figure 7(c): a later function reuses the module the first one loaded.
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  ASSERT_TRUE(as.WriteWholeFile("/shared.txt", Bytes("one")).ok());
  const int64_t loads = (*wfd)->libos().TotalLoadNanos();

  std::thread second_function([&] {
    auto data = as.ReadWholeFile("/shared.txt");
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(std::string(data->begin(), data->end()), "one");
  });
  second_function.join();
  EXPECT_EQ((*wfd)->libos().TotalLoadNanos(), loads);
}

TEST(WfdTest, RamfsVariantWorks) {
  WfdOptions options = SmallWfd();
  options.use_ramfs = true;
  auto wfd = Wfd::Create(options);
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  ASSERT_TRUE(as.WriteWholeFile("/r.txt", Bytes("ram")).ok());
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kRamfs));
  EXPECT_FALSE((*wfd)->libos().IsLoaded(ModuleKind::kFatfs));
}

// ------------------------------------------------------------ trampoline

TEST(AsStdTest, SyscallsCrossTheTrampoline) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  const uint64_t enters_before = (*wfd)->trampoline().enter_count();
  ASSERT_TRUE(as.NowMicros().ok());
  ASSERT_TRUE(as.NowMicros().ok());
  EXPECT_EQ((*wfd)->trampoline().enter_count(), enters_before + 2);
  EXPECT_EQ(as.syscall_count(), 2u);
}

TEST(AsStdTest, UserContextCannotTouchHeapWithoutItsKey) {
  // The MPK model: heap pages carry the user key; a PKRU that denies it
  // makes buffer memory unreachable (CheckAccess is what as-std consults
  // under the emulated backend).
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  auto buffer = as.AllocBuffer("guarded", 64, 1);
  ASSERT_TRUE(buffer.ok());

  auto& mpk = (*wfd)->mpk();
  mpk.WritePkru(asmpk::PkeyRuntime::kDenyAll);  // deny even the user key
  EXPECT_EQ(mpk.CheckAccess(buffer->bytes.data(), 8, true).code(),
            asbase::ErrorCode::kPermissionDenied);
  mpk.WritePkru((*wfd)->UserPkru((*wfd)->user_key()));
  EXPECT_TRUE(mpk.CheckAccess(buffer->bytes.data(), 8, true).ok());
  mpk.WritePkru(0);
}

// --------------------------------------------------------------- buffers

TEST(AsBufferTest, ReferencePassingRoundTrip) {
  // Figure 8: func_a writes, func_b reads through the same slot.
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());

  struct MyFuncData {
    char name[16];
    uint64_t year;
  };

  {  // func_a: sender
    auto data = AsBuffer<MyFuncData>::WithSlot(as, "Conference");
    ASSERT_TRUE(data.ok());
    std::strcpy((*data)->name, "Euro");
    (*data)->year = 2025;
  }
  {  // func_b: receiver
    auto data = AsBuffer<MyFuncData>::FromSlot(as, "Conference");
    ASSERT_TRUE(data.ok());
    EXPECT_STREQ((*data)->name, "Euro");
    EXPECT_EQ((*data)->year, 2025u);
    EXPECT_TRUE(data->Release().ok());
  }
}

TEST(AsBufferTest, AcquireIsSingleConsumer) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  struct Payload { uint64_t v; };
  ASSERT_TRUE(AsBuffer<Payload>::WithSlot(as, "s").ok());
  ASSERT_TRUE(AsBuffer<Payload>::FromSlot(as, "s").ok());
  EXPECT_EQ(AsBuffer<Payload>::FromSlot(as, "s").status().code(),
            asbase::ErrorCode::kNotFound);
}

TEST(AsBufferTest, TypeFingerprintMismatchRejected) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  struct A { uint64_t v; };
  struct B { uint64_t v; };
  ASSERT_TRUE(AsBuffer<A>::WithSlot(as, "typed").ok());
  EXPECT_EQ(AsBuffer<B>::FromSlot(as, "typed").status().code(),
            asbase::ErrorCode::kInvalidArgument);
}

TEST(AsBufferTest, ZeroCopySameAddressAcrossFunctions) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  auto sent = as.AllocBuffer("zc", 4096, 42);
  ASSERT_TRUE(sent.ok());
  sent->bytes[0] = 0xAB;
  auto received = as.AcquireBuffer("zc", 42);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bytes.data(), sent->bytes.data())
      << "reference passing must not copy";
  EXPECT_EQ(received->bytes[0], 0xAB);
  ASSERT_TRUE(as.FreeBuffer(*received).ok());
}

TEST(AsBufferTest, FanOutAndFanInViaDistinctSlots) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  for (int i = 0; i < 3; ++i) {
    auto buffer = as.AllocBuffer("fan-" + std::to_string(i), 128, 1);
    ASSERT_TRUE(buffer.ok());
    buffer->bytes[0] = static_cast<uint8_t>(i + 10);
  }
  for (int i = 0; i < 3; ++i) {
    auto buffer = as.AcquireBuffer("fan-" + std::to_string(i), 1);
    ASSERT_TRUE(buffer.ok());
    EXPECT_EQ(buffer->bytes[0], static_cast<uint8_t>(i + 10));
    ASSERT_TRUE(as.FreeBuffer(*buffer).ok());
  }
}

// --------------------------------------------------------- mmap backend

TEST(MmapBackendTest, LazyFaultingReadsFileContent) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  AsStd as(wfd->get());
  std::vector<uint8_t> content(20000);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_TRUE(as.WriteWholeFile("/blob.bin", content).ok());

  auto mapping = as.MapFile("/blob.bin");
  ASSERT_TRUE(mapping.ok());
  ASSERT_EQ(mapping->size(), content.size());
  ASSERT_TRUE(as.FaultIn(*mapping, 0, mapping->size()).ok());
  EXPECT_EQ(std::memcmp(mapping->data(), content.data(), content.size()), 0);
  EXPECT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kMmapFileBackend));
  ASSERT_TRUE(as.Unmap(*mapping).ok());
}

// ----------------------------------------------------------- orchestrator

TEST(OrchestratorTest, RunsStagesInOrderWithBarriers) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());

  std::atomic<int> stage_zero_done{0};
  std::atomic<bool> order_violated{false};
  FunctionRegistry::Global().Register(
      "test.stage0", [&](FunctionContext&) -> asbase::Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        stage_zero_done.fetch_add(1);
        return asbase::OkStatus();
      });
  FunctionRegistry::Global().Register(
      "test.stage1", [&](FunctionContext& ctx) -> asbase::Status {
        if (stage_zero_done.load() != 3) {
          order_violated.store(true);
        }
        ctx.SetResult("done");
        return asbase::OkStatus();
      });

  WorkflowSpec spec;
  spec.name = "order";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.stage0", 3}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.stage1", 1}}});

  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(order_violated.load());
  EXPECT_EQ(stats->instances_run, 4u);
  EXPECT_EQ(stats->result, "done");
  EXPECT_GT(stats->total_nanos, 0);
}

TEST(OrchestratorTest, DataFlowsBetweenStagesByReference) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());

  FunctionRegistry::Global().Register(
      "test.producer", [](FunctionContext& ctx) -> asbase::Status {
        AS_ASSIGN_OR_RETURN(
            RawBuffer buffer,
            ctx.as().AllocBuffer("hand-off-" + std::to_string(ctx.instance()),
                                 256, 7));
        buffer.bytes[0] = static_cast<uint8_t>(100 + ctx.instance());
        return asbase::OkStatus();
      });
  FunctionRegistry::Global().Register(
      "test.consumer", [](FunctionContext& ctx) -> asbase::Status {
        int sum = 0;
        for (int i = 0; i < ctx.params()["producers"].as_int(); ++i) {
          AS_ASSIGN_OR_RETURN(
              RawBuffer buffer,
              ctx.as().AcquireBuffer("hand-off-" + std::to_string(i), 7));
          sum += buffer.bytes[0];
          AS_RETURN_IF_ERROR(ctx.as().FreeBuffer(buffer));
        }
        ctx.SetResult(std::to_string(sum));
        return asbase::OkStatus();
      });

  WorkflowSpec spec;
  spec.name = "flow";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.producer", 3}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.consumer", 1}}});
  asbase::Json params;
  params.Set("producers", 3);

  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, params);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, std::to_string(100 + 101 + 102));
}

TEST(OrchestratorTest, FailingFunctionAbortsRun) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  FunctionRegistry::Global().Register(
      "test.fails", [](FunctionContext&) -> asbase::Status {
        return asbase::Internal("deliberate failure");
      });
  WorkflowSpec spec;
  spec.name = "fails";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.fails", 1}}});
  Orchestrator orchestrator(wfd->get());
  EXPECT_FALSE(orchestrator.Run(spec, asbase::Json()).ok());
}

TEST(OrchestratorTest, WorkerPoolReusesThreadsAcrossInvocations) {
  // Fan-out 2: the caller runs instance 0, the pool's one worker runs
  // instance 1 (a fan-out-1 workflow has no pool to reuse).
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());

  std::mutex ids_mutex;
  std::vector<std::thread::id> pooled_ids;
  FunctionRegistry::Global().Register(
      "test.tid", [&](FunctionContext& ctx) -> asbase::Status {
        if (ctx.instance() == 1) {
          std::lock_guard<std::mutex> lock(ids_mutex);
          pooled_ids.push_back(std::this_thread::get_id());
        }
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "tid";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.tid", 2}}});

  asobs::Counter& spawns = asobs::Registry::Global().GetCounter(
      "alloy_orch_thread_spawns_total");
  Orchestrator orchestrator(wfd->get());
  ASSERT_TRUE(orchestrator.Run(spec, asbase::Json()).ok());
  EXPECT_EQ((*wfd)->stage_worker_count(), 1u);
  const uint64_t spawns_after_first = spawns.value();

  // Warm reuse: reset between invocations, like the pool does.
  ASSERT_TRUE((*wfd)->Reset().ok());
  ASSERT_TRUE(orchestrator.Run(spec, asbase::Json()).ok());

  ASSERT_EQ(pooled_ids.size(), 2u);
  EXPECT_EQ(pooled_ids[0], pooled_ids[1])
      << "a reused WFD must run stage instances on the same pool worker";
  EXPECT_NE(pooled_ids[0], std::this_thread::get_id());
  EXPECT_EQ(spawns.value(), spawns_after_first)
      << "the second invocation on a warm WFD must spawn zero threads";
}

TEST(OrchestratorTest, FanOutOneRunsOnTheCallingThread) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  std::vector<std::thread::id> ids;
  FunctionRegistry::Global().Register(
      "test.caller", [&](FunctionContext& ctx) -> asbase::Status {
        ids.push_back(std::this_thread::get_id());
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "caller";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.caller", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.caller", 1}}});

  asobs::Counter& spawns = asobs::Registry::Global().GetCounter(
      "alloy_orch_thread_spawns_total");
  const uint64_t before = spawns.value();
  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, "ok");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_EQ(ids[1], std::this_thread::get_id());
  EXPECT_EQ((*wfd)->stage_worker_count(), 0u)
      << "a fan-out-1 workflow needs no stage worker";
  EXPECT_EQ((*wfd)->stage_workers(), nullptr);
  EXPECT_EQ(spawns.value(), before);
}

TEST(OrchestratorTest, FanOutThreeSpawnsTwoWorkersReusedWhenWarm) {
  // 1 -> 3 -> 1: the middle stage's three instances meet at a rendezvous,
  // which only completes if all three run at once — on the caller plus two
  // pool workers.
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  std::mutex mutex;
  std::condition_variable arrived_cv;
  int arrived = 0;
  std::vector<std::thread::id> middle_ids;
  FunctionRegistry::Global().Register(
      "test.rendezvous", [&](FunctionContext& ctx) -> asbase::Status {
        std::unique_lock<std::mutex> lock(mutex);
        middle_ids.push_back(std::this_thread::get_id());
        ++arrived;
        arrived_cv.notify_all();
        const int target = (arrived + ctx.instance_count() - 1) /
                           ctx.instance_count() * ctx.instance_count();
        if (!arrived_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return arrived >= target; })) {
          return asbase::DeadlineExceeded("siblings never arrived");
        }
        return asbase::OkStatus();
      });
  FunctionRegistry::Global().Register(
      "test.noop13", [](FunctionContext&) { return asbase::OkStatus(); });
  WorkflowSpec spec;
  spec.name = "fan13";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.noop13", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.rendezvous", 3}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.noop13", 1}}});

  asobs::Counter& spawns = asobs::Registry::Global().GetCounter(
      "alloy_orch_thread_spawns_total");
  const uint64_t before = spawns.value();
  Orchestrator orchestrator(wfd->get());
  auto first = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->instances_run, 5u);
  EXPECT_EQ(spawns.value() - before, 2u);
  EXPECT_EQ((*wfd)->stage_worker_count(), 2u);

  ASSERT_TRUE((*wfd)->Reset().ok());
  auto warm = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(spawns.value() - before, 2u) << "the warm run must reuse both";
  EXPECT_EQ((*wfd)->stage_worker_count(), 2u);

  // Each run: the caller plus the same two workers.
  ASSERT_EQ(middle_ids.size(), 6u);
  std::set<std::thread::id> first_ids(middle_ids.begin(),
                                      middle_ids.begin() + 3);
  std::set<std::thread::id> warm_ids(middle_ids.begin() + 3,
                                     middle_ids.end());
  EXPECT_EQ(first_ids.size(), 3u);
  EXPECT_EQ(first_ids, warm_ids);
  EXPECT_EQ(first_ids.count(std::this_thread::get_id()), 1u);
}

TEST(OrchestratorTest, FailingCallerRunInstanceAbortsAfterSiblingsDrain) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  std::atomic<int> siblings_done{0};
  std::atomic<bool> next_stage_ran{false};
  FunctionRegistry::Global().Register(
      "test.caller_fails", [&](FunctionContext& ctx) -> asbase::Status {
        if (ctx.instance() == 0) {
          return asbase::Internal("caller-run instance failed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        siblings_done.fetch_add(1);
        return asbase::OkStatus();
      });
  FunctionRegistry::Global().Register(
      "test.after_failure", [&](FunctionContext&) {
        next_stage_ran = true;
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "caller_fails";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.caller_fails", 3}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.after_failure", 1}}});

  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), asbase::ErrorCode::kInternal);
  EXPECT_NE(stats.status().message().find("caller-run instance failed"),
            std::string::npos);
  EXPECT_EQ(siblings_done.load(), 2)
      << "the run may only abort once the pooled siblings have drained";
  EXPECT_FALSE(next_stage_ran.load());
  EXPECT_EQ((*wfd)->mpk().ReadPkru(), 0u);
}

TEST(OrchestratorTest, EachWfdRunsUnderItsOwnPkruOnASharedThread) {
  // Fan-out-1 runs on this thread, so both WFDs' instances share it. Under
  // AS-IFI the second WFD's instance runs under its own function key, so
  // the two WFDs' user PKRUs differ: a per-thread PKRU cache would hand
  // one WFD's permissions to the other.
  auto plain = Wfd::Create(SmallWfd());
  WfdOptions ifi_options = SmallWfd();
  ifi_options.inter_function_isolation = true;
  auto ifi = Wfd::Create(ifi_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(ifi.ok());

  uint32_t observed = 0;
  FunctionRegistry::Global().Register(
      "test.read_pkru", [&](FunctionContext& ctx) -> asbase::Status {
        observed = ctx.as().wfd().mpk().ReadPkru();
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "pkru";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.read_pkru", 1}}});

  const uint32_t plain_pkru = (*plain)->UserPkru((*plain)->user_key());
  Orchestrator plain_orch(plain->get());
  Orchestrator ifi_orch(ifi->get());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(plain_orch.Run(spec, asbase::Json()).ok());
    EXPECT_EQ(observed, plain_pkru) << "round " << round;
    EXPECT_EQ((*plain)->mpk().ReadPkru(), 0u);

    ASSERT_TRUE(ifi_orch.Run(spec, asbase::Json()).ok());
    EXPECT_NE(observed, plain_pkru) << "round " << round;
    EXPECT_TRUE(asmpk::PkeyRuntime::KeyAllowed(observed, (*ifi)->user_key(),
                                               /*write=*/true));
    EXPECT_FALSE(asmpk::PkeyRuntime::KeyAllowed(
        observed, (*ifi)->system_key(), /*write=*/false));
    EXPECT_EQ((*ifi)->mpk().ReadPkru(), 0u);
  }
}

TEST(OrchestratorTest, RetryRecoversIdempotentFunction) {
  // Retry-based fault tolerance (§3.1): an idempotent function that crashes
  // once succeeds on re-execution without poisoning the WFD.
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  std::atomic<int> attempts{0};
  FunctionRegistry::Global().Register(
      "test.flaky", [&](FunctionContext&) -> asbase::Status {
        if (attempts.fetch_add(1) == 0) {
          throw std::runtime_error("simulated crash");
        }
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "flaky";
  FunctionSpec fn{"test.flaky", 1};
  fn.max_retries = 2;
  spec.stages.push_back(StageSpec{{fn}});
  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(stats->retries, 1u);
}

TEST(OrchestratorTest, UnknownFunctionRejected) {
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  WorkflowSpec spec;
  spec.name = "ghost";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.no-such-fn", 1}}});
  Orchestrator orchestrator(wfd->get());
  EXPECT_EQ(orchestrator.Run(spec, asbase::Json()).status().code(),
            asbase::ErrorCode::kNotFound);
}

TEST(WorkflowSpecTest, ParsesFromJson) {
  auto config = asbase::Json::Parse(R"({
    "name": "wc",
    "stages": [
      {"functions": [{"name": "map", "instances": 3}]},
      {"functions": [{"name": "reduce"}]}
    ]
  })");
  ASSERT_TRUE(config.ok());
  auto spec = WorkflowSpec::FromJson(*config);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "wc");
  ASSERT_EQ(spec->stages.size(), 2u);
  EXPECT_EQ(spec->stages[0].functions[0].instances, 3);
  EXPECT_EQ(spec->stages[1].functions[0].instances, 1);
}

TEST(WorkflowSpecTest, RejectsMalformed) {
  auto bad = [](const char* text) {
    auto config = asbase::Json::Parse(text);
    return !config.ok() || !WorkflowSpec::FromJson(*config).ok();
  };
  EXPECT_TRUE(bad("{}"));
  EXPECT_TRUE(bad(R"({"name":"x"})"));
  EXPECT_TRUE(bad(R"({"name":"x","stages":[]})"));
  EXPECT_TRUE(bad(R"({"name":"x","stages":[{"functions":[]}]})"));
  EXPECT_TRUE(bad(R"({"name":"x","stages":[{"functions":[{"instances":2}]}]})"));
}

// ----------------------------------------------------------------- visor

TEST(VisorTest, InvokeRunsWorkflowInFreshWfd) {
  FunctionRegistry::Global().Register(
      "test.hello", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("hello " + ctx.params()["who"].as_string());
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "hello";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.hello", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  visor.RegisterWorkflow(spec, options);

  asbase::Json params;
  params.Set("who", "eurosys");
  auto result = visor.Invoke("hello", params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->run.result, "hello eurosys");
  EXPECT_GT(result->cold_start_nanos, 0);
  EXPECT_GE(result->end_to_end_nanos, result->run.total_nanos);

  EXPECT_FALSE(visor.Invoke("no-such-workflow", params).ok());
}

TEST(VisorTest, InvokeFromJsonConfig) {
  FunctionRegistry::Global().Register(
      "test.config-fn", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("ran");
        return asbase::OkStatus();
      });
  AsVisor visor;
  auto result = visor.InvokeFromConfig(R"({
    "name": "from-config",
    "stages": [{"functions": [{"name": "test.config-fn"}]}],
    "options": {"ramfs": true, "heap_mb": 8}
  })",
                                       asbase::Json());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->run.result, "ran");
}

TEST(VisorTest, WatchdogInvokesOverHttp) {
  FunctionRegistry::Global().Register(
      "test.http-fn", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("via-http:" + ctx.params()["x"].as_string());
        return asbase::OkStatus();
      });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "httpwf";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.http-fn", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  visor.RegisterWorkflow(spec, options);
  ASSERT_TRUE(visor.StartWatchdog(0).ok());

  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/httpwf";
  request.body = R"({"x":"42"})";
  auto response = ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("via-http:42"), std::string::npos);

  // Health endpoint + unknown workflow.
  ashttp::HttpRequest health;
  health.method = "GET";
  health.target = "/health";
  EXPECT_EQ(ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), health)->body,
            "ok");
  request.target = "/invoke/missing";
  EXPECT_EQ(ashttp::HttpCall("127.0.0.1", visor.watchdog_port(), request)
                ->status,
            404);
  visor.StopWatchdog();
}

TEST(VisorTest, LatencyHistogramAccumulates) {
  FunctionRegistry::Global().Register(
      "test.quick", [](FunctionContext&) { return asbase::OkStatus(); });
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = "quick";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.quick", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  visor.RegisterWorkflow(spec, options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(visor.Invoke("quick", asbase::Json()).ok());
  }
  auto histogram = visor.LatencyHistogram("quick");
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ(histogram->count(), 5u);
}

// ------------------------------------------------------------------ WASI

TEST(WasiTest, VmFunctionTransfersDataThroughAsBuffer) {
  // Guest A registers a string buffer; guest B reads it back — the C/Python
  // path of §7.2 exercised end to end through as-libos.
  const std::string sender = R"(
    .data 100 "wfslot"
    .data 200 "payload-from-wasm"
    .func main
      push 100
      push 6
      push 200
      push 17
      host buffer_register
      halt
    .end
  )";
  const std::string receiver = R"(
    .data 100 "wfslot"
    .func main locals=1
      push 100
      push 6
      push 4096
      push 64
      host access_buffer
      local.set 0
      # report the received byte count
      push 4096
      local.get 0
      host ctx_set_result
      drop
      local.get 0
      halt
    .end
  )";
  ASSERT_TRUE(RegisterVmFunction("test.wasm-sender", sender).ok());
  ASSERT_TRUE(RegisterVmFunction("test.wasm-receiver", receiver).ok());

  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  WorkflowSpec spec;
  spec.name = "wasm-pipe";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.wasm-sender", 1}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.wasm-receiver", 1}}});
  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, "payload-from-wasm");
}

TEST(WasiTest, VmFunctionDoesFileIoThroughLibos) {
  const std::string writer = R"(
    .data 100 "/wasm.out"
    .data 200 "written-by-guest"
    .func main locals=1
      push 100
      push 9
      push 1            # write|create
      host path_open
      local.set 0
      local.get 0
      push 200
      push 16
      host fd_write
      drop
      local.get 0
      host fd_close
      halt
    .end
  )";
  ASSERT_TRUE(RegisterVmFunction("test.wasm-writer", writer).ok());

  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  WorkflowSpec spec;
  spec.name = "wasm-file";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.wasm-writer", 1}}});
  Orchestrator orchestrator(wfd->get());
  ASSERT_TRUE(orchestrator.Run(spec, asbase::Json()).ok());

  AsStd as(wfd->get());
  auto data = as.ReadWholeFile("/wasm.out");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "written-by-guest");
}

TEST(WasiTest, ContextAccessorsReachGuest) {
  const std::string source = R"(
    .data 100 "n"
    .func main
      host ctx_instances
      host ctx_instance
      add
      push 100
      push 1
      host ctx_param_int
      add
      halt
    .end
  )";
  ASSERT_TRUE(RegisterVmFunction("test.wasm-ctx", source).ok());
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());
  WorkflowSpec spec;
  spec.name = "wasm-ctx";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.wasm-ctx", 2}}});
  asbase::Json params;
  params.Set("n", 40);
  Orchestrator orchestrator(wfd->get());
  EXPECT_TRUE(orchestrator.Run(spec, params).ok());
}

TEST(WasiTest, PythonRuntimeLoadsStdlibImage) {
  ASSERT_TRUE(RegisterVmFunction("test.py-fn", R"(
    .func main
      push 0
      halt
    .end
  )",
                                 VmFunctionOptions{
                                     .python_runtime = true})
                  .ok());
  auto wfd = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd.ok());

  // Pre-provision the stdlib image the way the bench harness does.
  AsStd as(wfd->get());
  ASSERT_TRUE(EnsurePythonStdlib(as).ok());

  WorkflowSpec spec;
  spec.name = "py";
  spec.stages.push_back(StageSpec{{FunctionSpec{"test.py-fn", 1}}});
  Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(spec, asbase::Json());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The stdlib read is attributed to the read-input phase.
  EXPECT_GT(stats->phases.read_input_nanos, 0);
}

// -------------------------------------------------------------- IFI mode

TEST(IfiTest, InterFunctionIsolationCostsPkruSwitches) {
  WfdOptions base = SmallWfd();
  WfdOptions ifi = SmallWfd();
  ifi.inter_function_isolation = true;

  auto run_pipe = [](const WfdOptions& options) -> uint64_t {
    auto wfd = Wfd::Create(options);
    EXPECT_TRUE(wfd.ok());
    AsStd as(wfd->get());
    auto buffer = as.AllocBuffer("p", 4096, 1);
    EXPECT_TRUE(buffer.ok());
    const uint64_t before = (*wfd)->mpk().switch_count();
    for (int i = 0; i < 10; ++i) {
      auto guard = as.BufferAccess();
      buffer->bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
    }
    return (*wfd)->mpk().switch_count() - before;
  };

  EXPECT_EQ(run_pipe(base), 0u) << "no PKRU cost without IFI";
  EXPECT_EQ(run_pipe(ifi), 20u) << "two PKRU writes per access under IFI";
}

}  // namespace
}  // namespace alloy
