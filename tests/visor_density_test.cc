// Resident-memory regression tests for a sharded visor. They are a binary
// of their own so that nothing else in the process has already paged in the
// memory they measure:
//   - a shard that has served no request must not hold its flight ring
//     (ALLOY_FLIGHT_RING records of 160 B each) resident;
//   - registering a workflow costs a small, fixed amount of heap, most of
//     it the workflow's metric series;
//   - a workflow's latency series stay bounded however many samples land;
//   - a parked fatfs tenant holds a few KiB of heap, one disk page and one
//     system page, and an evicted one gives its pages back;
//   - a parked WFD holds none of the heap pages its last invocation freed;
//   - a sort invocation keeps its input and scratch on the WFD heap, so it
//     does not grow the host's malloc arenas.

#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/asstd/asstd.h"
#include "src/core/visor/visor_router.h"
#include "src/fatfs/fat_volume.h"
#include "src/obs/metrics.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"

namespace alloy {
namespace {

// VmRSS of this process in KiB, or -1 if /proc is unreadable.
int64_t VmRssKib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      int64_t kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

TEST(VisorDensityTest, IdleShardsHoldNoFlightRing) {
  // Warm up whatever one router pays once per process (the metrics
  // registry, its series), so the measured router pays only its own.
  {
    RouterOptions options;
    options.shards = 1;
    AsVisorRouter warmup(options);
  }
  RouterOptions options;
  options.shards = 4;
  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  auto router = std::make_unique<AsVisorRouter>(options);
  const int64_t growth_kib = VmRssKib() - before;
  ASSERT_EQ(router->shard_count(), 4u);
  EXPECT_EQ(router->shard(0).flight().capacity(), 1024u);
  // Four zero-filled 1024-record rings would be 640 KiB.
  EXPECT_LT(growth_kib, 64) << "constructing 4 idle shards made " << growth_kib
                            << " KiB resident";
}

// Registers `count` one-stage fatfs tenants shaped like the serving bench's
// zipf_tenants (pool 1, concurrency 1, queue 8, 50 ms idle TTL), named
// <prefix>-<i>, on shard `pin_shard` (-1: placed by hash). Their stage runs
// `fn`; `idle_ttl_ms` 0 keeps parked WFDs.
std::vector<std::string> RegisterTenants(AsVisorRouter& router,
                                         const std::string& prefix, int count,
                                         int pin_shard = -1,
                                         const std::string& fn = "density.noop",
                                         int64_t idle_ttl_ms = 50) {
  FunctionRegistry::Global().Register(
      "density.noop", [](FunctionContext&) { return asbase::OkStatus(); });
  AsVisor::WorkflowOptions options;
  options.wfd.heap_bytes = 8u << 20;
  options.wfd.disk_blocks = 16 * 1024;
  options.wfd.mpk_backend = asmpk::MpkBackend::kEmulated;
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 8;
  options.idle_ttl_ms = idle_ttl_ms;
  options.pin_shard = pin_shard;
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) {
    WorkflowSpec spec;
    spec.name = prefix + "-" + std::to_string(i);
    spec.stages.push_back(StageSpec{{FunctionSpec{fn, 1}}});
    router.RegisterWorkflow(spec, options);
    names.push_back(spec.name);
  }
  return names;
}

TEST(VisorDensityTest, RegisteringAWorkflowCostsUnder3KiBOfHeap) {
  RouterOptions options;
  options.shards = 4;
  AsVisorRouter router(options);
  // One tenant per shard first, so the measured ones pay neither the
  // shard's pool warmer nor the families' first series.
  for (int shard = 0; shard < 4; ++shard) {
    RegisterTenants(router, "density-warm" + std::to_string(shard), 1, shard);
  }
  constexpr int kTenants = 64;
  const size_t before = mallinfo2().uordblks;
  RegisterTenants(router, "density-tenant", kTenants);
  const size_t per_tenant = (mallinfo2().uordblks - before) / kTenants;
  // Each registration creates ~18 metric series under one label set; with
  // a label vector, key string and boxed value per series, plus two empty
  // std::deques, it held 9.1 KiB.
  EXPECT_LT(per_tenant, 3u * 1024) << "one registration holds " << per_tenant
                                   << " B of heap";
}

// The stage function of the fatfs density tests: writes a 4 KiB file and
// reads it back, as a zipf_tenants request does.
void RegisterTenantIo() {
  FunctionRegistry::Global().Register(
      "density.tenant_io", [](FunctionContext& ctx) -> asbase::Status {
        const std::vector<uint8_t> payload(4096, 0x5A);
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/tenant.bin", payload));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> back,
                            ctx.as().ReadWholeFile("/tenant.bin"));
        return back == payload ? asbase::OkStatus()
                               : asbase::DataLoss("read-back differs");
      });
}

void InvokeAll(AsVisorRouter& router, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    auto result = router.Invoke(name, asbase::Json());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  }
}

// The density case: tenants shaped like zipf_tenants, each holding one
// parked WFD cloned from the shared template after its function wrote a
// 4 KiB file and read it back. What a tenant then holds is its
// registration plus a parked clone: the file's data page, the two metadata
// sectors the write copied, and the WFD's own bookkeeping. The clone's
// memory is its reservation, not the malloc heap: the data page is in its
// disk range, the bookkeeping and the sectors in its system pages, and both
// are added to the heap delta. The pool's resident gauge charges exactly
// those pages.
TEST(VisorDensityTest, ParkedFatfsTenantCostsUnder12KiBOfHeap) {
  RegisterTenantIo();
  RouterOptions options;
  options.shards = 4;
  AsVisorRouter router(options);
  // One tenant per shard first: the shard's warmer, the families' first
  // series and the geometry's template (one full boot) are paid once.
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_NO_FATAL_FAILURE(InvokeAll(
        router,
        RegisterTenants(router, "density-io-warm" + std::to_string(shard), 1,
                        shard, "density.tenant_io", /*idle_ttl_ms=*/0)));
  }
  constexpr int kTenants = 256;
  const size_t before = mallinfo2().uordblks;
  const std::vector<std::string> names = RegisterTenants(
      router, "density-io", kTenants, -1, "density.tenant_io", 0);
  ASSERT_NO_FATAL_FAILURE(InvokeAll(router, names));
  const size_t heap = mallinfo2().uordblks - before;
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t disk_pages = 0;
  size_t system_pages = 0;
  for (const std::string& name : names) {
    ASSERT_EQ(*router.WarmWfdCount(name), 1u) << name;
    const int64_t charged =
        asobs::Registry::Global()
            .GetGauge("alloy_visor_pool_resident_bytes",
                      {{"workflow", name},
                       {"alloy_visor_shard",
                        std::to_string(router.ShardOf(name))}})
            .value();
    std::shared_ptr<WfdPool> pool =
        router.shard(router.ShardOf(name)).MigrateOut(name);
    ASSERT_NE(pool, nullptr) << name;
    for (const std::unique_ptr<Wfd>& wfd : pool->TakeWarmForHandoff()) {
      auto fs = wfd->libos().Filesystem();
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      auto* volume = dynamic_cast<asfat::FatVolume*>(*fs);
      ASSERT_NE(volume, nullptr) << name;
      EXPECT_EQ(volume->PrivateMetaBytes(), 2u * 512) << name;
      disk_pages += wfd->libos().ResidentDiskBytes();
      system_pages += wfd->ResidentSystemBytes();
      EXPECT_EQ(charged, static_cast<int64_t>(wfd->ResidentBytes())) << name;
    }
    pool->Shutdown();
  }
  EXPECT_EQ(disk_pages, kTenants * size_t{4096}) << "one data page each";
  // The Wfd, its LibOS, volume (with the two copied sectors), MemDisk,
  // MPK runtime and trampoline, moved off the malloc heap.
  EXPECT_EQ(system_pages, kTenants * page) << "one system page each";
  const size_t per_tenant = (heap + disk_pages + system_pages) / kTenants;
  // ~2.9 KiB of heap each (~3.7 KiB while every tenant kept its own
  // retained span trees). When fatfs wrote its FAT and directory sectors
  // through to the disk, each clone also held the two 4 KiB disk pages they
  // sit in: ~18.6 KiB.
  EXPECT_LT(per_tenant, 12u * 1024)
      << "one parked tenant holds " << per_tenant
      << " B of heap, disk and system pages";
  std::printf("[ density  ] parked fatfs tenant: %zu B of heap + %zu B of "
              "disk pages + %zu B of system pages\n",
              heap / kTenants, disk_pages / kTenants, system_pages / kTenants);
}

// Tenants whose pools the warmer evicts after their one invocation. The
// TTL outlives the invocation loop, so all 256 clones are parked at once and
// their memory interleaves with what the tenants keep (registration,
// series), as a serving process's does. Freed malloc chunks between those
// stay resident, so nothing a clone owns may be one: its disk page and its
// bookkeeping live in its reservation, which eviction unmaps. Retained span
// trees hang off the shards' flight records, 8 per shard whatever the
// tenant count: 4 × 8 trees spread over 256 tenants. Measured alone:
// ~3.1 KiB kept and 8 KiB (the disk page and the system page) returned per
// tenant; ~4.0 KiB kept when each tenant kept up to 8 trees of its own,
// 7600 B kept and 4096 B returned when the bookkeeping was malloc'd, 11648 B
// kept and 0 B returned when the disk chunks were too.
TEST(VisorDensityTest, EvictedFatfsTenantsReturnTheirDiskPages) {
  RegisterTenantIo();
  RouterOptions options;
  options.shards = 4;
  AsVisorRouter router(options);
  constexpr int64_t kTtlMs = 500;
  auto wait_evicted = [&router](const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      for (int i = 0; i < 1000 && *router.WarmWfdCount(name) != 0; ++i) {
        usleep(10'000);
      }
      ASSERT_EQ(*router.WarmWfdCount(name), 0u) << name << " never evicted";
    }
  };
  // One evicted tenant per shard first: the warmer, the first series and
  // the geometry's template are paid once.
  for (int shard = 0; shard < 4; ++shard) {
    const std::vector<std::string> warm =
        RegisterTenants(router, "evict-warm" + std::to_string(shard), 1, shard,
                        "density.tenant_io", kTtlMs);
    ASSERT_NO_FATAL_FAILURE(InvokeAll(router, warm));
    ASSERT_NO_FATAL_FAILURE(wait_evicted(warm));
  }
  constexpr int kTenants = 256;
  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  const std::vector<std::string> names = RegisterTenants(
      router, "evict", kTenants, -1, "density.tenant_io", kTtlMs);
  ASSERT_NO_FATAL_FAILURE(InvokeAll(router, names));
  const int64_t parked = VmRssKib();
  ASSERT_NO_FATAL_FAILURE(wait_evicted(names));
  const int64_t after = VmRssKib();
  const int64_t per_tenant = (after - before) * 1024 / kTenants;
  const int64_t returned = (parked - after) * 1024 / kTenants;
  EXPECT_LT(per_tenant, 4 * 1024) << "one evicted tenant left " << per_tenant
                                  << " B resident";
  EXPECT_GE(returned, 6 * 1024) << "evicting a tenant returned " << returned
                                << " B";
  std::printf("[ density  ] evicted fatfs tenant: %lld B of VmRSS kept, "
              "%lld B returned\n",
              static_cast<long long>(per_tenant),
              static_cast<long long>(returned));
}

TEST(VisorDensityTest, InvokeSeriesStayBoundedUnderAMillionSamples) {
  RouterOptions options;
  options.shards = 4;
  AsVisorRouter router(options);
  const std::vector<std::string> names =
      RegisterTenants(router, "density-load", 64);
  std::vector<asobs::LatencyHistogram*> series;
  for (const std::string& name : names) {
    series.push_back(&asobs::Registry::Global().GetHistogram(
        "alloy_visor_invoke_nanos",
        {{"workflow", name},
         {"alloy_visor_shard", std::to_string(router.ShardOf(name))}}));
  }
  // Latencies around 50 us with a long tail, seeded.
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> latency(10.8, 1.0);
  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 1'000'000; ++i) {
    series[i % series.size()]->Record(static_cast<int64_t>(latency(rng)));
  }
  const int64_t growth_kib = VmRssKib() - before;
  // Raw samples would be 8 MB; each series holds at most two epochs of
  // LatencyHistogram::kBuckets counts.
  EXPECT_LT(growth_kib, 1024) << "10^6 samples made " << growth_kib
                              << " KiB resident";
  for (asobs::LatencyHistogram* one : series) {
    EXPECT_LE(one->BucketBytes(),
              2 * asobs::LatencyHistogram::kBuckets * sizeof(uint32_t));
  }
  auto snapshot = router.LatencyHistogram(names[0]);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->count(), 1'000'000u / names.size());
}

// Four producers hand 256 KiB AsBuffers to one consumer, which frees them:
// ~1 MiB of WFD heap per invocation, none of it live at the end.
TEST(VisorDensityTest, ParkedWfdHoldsNoFreedHeapPages) {
  constexpr size_t kPart = 256 * 1024;
  constexpr int kProducers = 4;
  FunctionRegistry::Global().Register(
      "density.produce", [](FunctionContext& ctx) -> asbase::Status {
        AS_ASSIGN_OR_RETURN(
            RawBuffer buffer,
            ctx.as().AllocBuffer("part-" + std::to_string(ctx.instance()),
                                 kPart, 11));
        std::memset(buffer.bytes.data(), 0x40 + ctx.instance(), kPart);
        return asbase::OkStatus();
      });
  FunctionRegistry::Global().Register(
      "density.consume", [](FunctionContext& ctx) -> asbase::Status {
        for (int i = 0; i < kProducers; ++i) {
          AS_ASSIGN_OR_RETURN(
              RawBuffer buffer,
              ctx.as().AcquireBuffer("part-" + std::to_string(i), 11));
          if (buffer.bytes[kPart - 1] != 0x40 + i) {
            return asbase::DataLoss("part " + std::to_string(i));
          }
          AS_RETURN_IF_ERROR(ctx.as().FreeBuffer(buffer));
        }
        return asbase::OkStatus();
      });
  WorkflowSpec spec;
  spec.name = "density-parked-heap";
  spec.stages.push_back(
      StageSpec{{FunctionSpec{"density.produce", kProducers}}});
  spec.stages.push_back(StageSpec{{FunctionSpec{"density.consume", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd.heap_bytes = 8u << 20;
  options.wfd.disk_blocks = 16 * 1024;
  options.wfd.mpk_backend = asmpk::MpkBackend::kEmulated;
  options.pool_size = 1;

  AsVisor visor;
  visor.RegisterWorkflow(spec, options);
  for (int i = 0; i < 5; ++i) {
    auto result = visor.Invoke(spec.name, asbase::Json());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Measured before reset: the invocation's footprint.
    EXPECT_GE(result->resident_bytes, kProducers * kPart);
    EXPECT_EQ(result->warm_start, i > 0);
  }
  const int64_t charged =
      asobs::Registry::Global()
          .GetGauge("alloy_visor_pool_resident_bytes",
                    {{"workflow", spec.name}})
          .value();
  std::shared_ptr<WfdPool> pool = visor.MigrateOut(spec.name);
  ASSERT_NE(pool, nullptr);
  std::vector<std::unique_ptr<Wfd>> parked = pool->TakeWarmForHandoff();
  pool->Shutdown();
  ASSERT_EQ(parked.size(), 1u);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t heap = parked[0]->libos().ResidentHeapBytes();
  EXPECT_LE(heap, 2 * page) << "the parked WFD holds " << heap
                            << " B of freed heap";
  // The pool charged exactly that and the WFD's system pages: this
  // workflow never loads fatfs.
  EXPECT_EQ(parked[0]->libos().ResidentDiskBytes(), 0u);
  EXPECT_EQ(charged,
            static_cast<int64_t>(heap + parked[0]->ResidentSystemBytes()));
}

// Bytes glibc malloc holds from the kernel, summed over all arenas, plus
// its mmapped chunks.
size_t MallocHeldBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.arena + info.hblkhd;
}

// ParallelSorting(4) over 256 KiB, behind a stage that writes the input,
// as bench/serve's sort_fanout runs it. Each partition reads its slice of
// the input into the WFD heap and each sorter sorts its AsBuffer in place,
// so the malloc arenas of the stage workers hold only bookkeeping. When
// every partition read the whole input into a host vector and every sorter
// copied its part through one, a 256 KiB invocation grew them by ~1 MiB
// that they kept.
TEST(VisorDensityTest, SortInvocationKeepsItsDataOffTheHostHeap) {
  static const std::vector<uint8_t> kInput =
      aswl::MakeIntegerInput(256 * 1024, 29);
  static const std::vector<uint8_t> kWarmupInput =
      aswl::MakeIntegerInput(4 * 1024, 31);
  // Writes both inputs on every invocation, so the WFD's disk has grown to
  // hold them before the measured one; params["input"] picks the sorted one.
  FunctionRegistry::Global().Register(
      "density.sort_gen", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile("/warmup.bin", kWarmupInput));
        return ctx.as().WriteWholeFile("/input.bin", kInput);
      });
  WorkflowSpec spec =
      aswl::RegisterAlloyStackWorkflow(aswl::ParallelSortingWorkflow(4));
  spec.name = "density-sort";
  spec.stages.insert(spec.stages.begin(),
                     StageSpec{{FunctionSpec{"density.sort_gen", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd.heap_bytes = 8u << 20;
  options.wfd.disk_blocks = 16 * 1024;
  options.wfd.mpk_backend = asmpk::MpkBackend::kEmulated;
  options.pool_size = 1;

  // glibc raises its mmap threshold to the size of each mmapped chunk that
  // is freed, and its trim threshold to twice that. A serving process did
  // so long ago (sort_fanout's input generator frees a 256 KiB vector per
  // request), so chunks this size come from the arenas, which then keep
  // them. Free one here to measure that steady state.
  { const std::vector<uint8_t> freed = aswl::MakeIntegerInput(256 * 1024, 1); }

  AsVisor visor;
  visor.RegisterWorkflow(spec, options);
  // A small sort first: it boots the WFD, loads its modules and starts the
  // stage workers, each of which gets its malloc arena.
  asbase::Json params;
  params.Set("input", "/warmup.bin");
  auto warmup = visor.Invoke(spec.name, params);
  ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  ASSERT_EQ(warmup->run.result, aswl::ExpectedSortingResult(kWarmupInput));

  params.Set("input", "/input.bin");
  const size_t before = MallocHeldBytes();
  auto result = visor.Invoke(spec.name, params);
  const size_t after = MallocHeldBytes();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->warm_start);
  EXPECT_EQ(result->run.result, aswl::ExpectedSortingResult(kInput));
  const int64_t growth = static_cast<int64_t>(after) -
                         static_cast<int64_t>(before);
  EXPECT_LT(growth, 128 * 1024)
      << "one 256 KiB sort invocation grew the malloc arenas by " << growth
      << " B";
}

}  // namespace
}  // namespace alloy
