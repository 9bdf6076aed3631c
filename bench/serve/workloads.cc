#include "bench/serve/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/asstd/asstd.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"

namespace serve {
namespace {

using alloy::FunctionContext;

constexpr size_t kSortInputBytes = 256u << 10;
constexpr int kSortFanout = 4;
constexpr size_t kSortSeeds = 8;
constexpr size_t kTenants = 64;
constexpr double kTenantZipf = 1.1;
constexpr size_t kTenantSeeds = 4;
constexpr size_t kTenantBytes = 4u << 10;
constexpr size_t kBulkBytes = 128u << 10;
constexpr size_t kBulkBodies = 8;
constexpr int64_t kBurstWindowNanos = 100'000'000;
// One window in kBurstGroup runs at kBurstFactor x the base rate.
constexpr int kBurstGroup = 5;
constexpr double kBurstFactor = 3.0;

std::atomic<bool> g_timing{false};
std::mutex g_times_mutex;
AsStdTimes g_times;  // guarded by g_times_mutex

// Runs an AsStd call, recording its wall time into `which` while timing is
// on.
template <typename Fn>
auto Timed(asbase::Histogram AsStdTimes::*which, Fn&& fn) {
  if (!g_timing.load(std::memory_order_relaxed)) {
    return fn();
  }
  const int64_t start = asbase::MonoNanos();
  auto out = fn();
  const int64_t nanos = asbase::MonoNanos() - start;
  std::lock_guard<std::mutex> lock(g_times_mutex);
  (g_times.*which).Record(nanos);
  return out;
}

std::string ChecksumResult(std::span<const uint8_t> bytes) {
  return "bytes=" + std::to_string(bytes.size()) +
         " hash=" + std::to_string(aswl::Checksum(bytes));
}

uint64_t ParamSeed(const FunctionContext& ctx) {
  return static_cast<uint64_t>(ctx.params()["seed"].as_int());
}

asbase::Status Noop(FunctionContext& ctx) {
  ctx.SetResult("ok");
  return asbase::OkStatus();
}

// The fan-out workflow's producer: writes the sort input through AsStd.
asbase::Status SortGen(FunctionContext& ctx) {
  const std::vector<uint8_t> input =
      aswl::MakeIntegerInput(kSortInputBytes, ParamSeed(ctx));
  return Timed(&AsStdTimes::write, [&] {
    return ctx.as().WriteWholeFile(ctx.params()["input"].as_string(), input);
  });
}

asbase::Status TenantIo(FunctionContext& ctx) {
  const std::vector<uint8_t> payload =
      aswl::MakePayload(kTenantBytes, ParamSeed(ctx));
  alloy::AsStd& as = ctx.as();
  AS_RETURN_IF_ERROR(Timed(&AsStdTimes::write, [&] {
    return as.WriteWholeFile("/tenant.bin", payload);
  }));
  AS_ASSIGN_OR_RETURN(std::vector<uint8_t> back,
                      Timed(&AsStdTimes::read,
                            [&] { return as.ReadWholeFile("/tenant.bin"); }));
  ctx.SetResult(ChecksumResult(back));
  return asbase::OkStatus();
}

asbase::Status BulkWrite(FunctionContext& ctx) {
  const std::string& data = ctx.params()["data"].as_string();
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(data.data()), data.size());
  AS_RETURN_IF_ERROR(Timed(&AsStdTimes::write, [&] {
    return ctx.as().WriteWholeFile("/bulk.bin", bytes);
  }));
  ctx.SetResult(ChecksumResult(bytes));
  return asbase::OkStatus();
}

alloy::WorkflowSpec OneStage(const std::string& name, const std::string& fn) {
  alloy::WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(alloy::StageSpec{{alloy::FunctionSpec{fn, 1}}});
  return spec;
}

// Small WFDs: the default 64 MiB heap and disk would make peak_rss_mib
// measure untouched reservations. MPK is emulated, charging each WRPKRU the
// calibrated 25 ns: the hardware has 15 keys per process, two per WFD, so
// 64 tenants could not even be registered on it, and the numbers would
// depend on whether the machine has PKU.
alloy::AsVisor::WorkflowOptions SmallWfd() {
  alloy::AsVisor::WorkflowOptions options;
  options.wfd.heap_bytes = 8u << 20;
  options.wfd.disk_blocks = 16 * 1024;
  options.wfd.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

void AddVariant(Workload* workload, const std::string& workflow,
                std::string body, std::string expected) {
  RequestVariant variant;
  variant.workflow = workflow;
  variant.wire = "POST /invoke/" + workflow +
                 " HTTP/1.1\r\nhost: bench\r\ncontent-length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body;
  variant.body = std::move(body);
  variant.expected = std::move(expected);
  workload->variants.push_back(std::move(variant));
}

void UniformCdf(Workload* workload) {
  const size_t n = workload->variants.size();
  for (size_t i = 1; i <= n; ++i) {
    workload->cdf.push_back(static_cast<double>(i) / static_cast<double>(n));
  }
}

// Open-loop rates sit below a quarter of each workload's closed-loop
// capacity, so that when the shared host slows down for a minute, latency
// stretches with it instead of a queue building up (README.md,
// "Workloads").
Workload NoopWarm() {
  Workload w;
  w.name = "noop_warm";
  w.rate_rps = 2000;
  w.deployments.push_back({OneStage(w.name, "serve.noop"), SmallWfd()});
  AddVariant(&w, w.name, "{}", "ok");
  UniformCdf(&w);
  return w;
}

Workload SortFanout(uint64_t seed) {
  Workload w;
  w.name = "sort_fanout";
  w.rate_rps = 20;
  alloy::WorkflowSpec spec = aswl::RegisterAlloyStackWorkflow(
      aswl::ParallelSortingWorkflow(kSortFanout));
  spec.name = w.name;
  spec.stages.insert(
      spec.stages.begin(),
      alloy::StageSpec{{alloy::FunctionSpec{"serve.sort_gen", 1}}});
  w.deployments.push_back({spec, SmallWfd()});
  asbase::Rng rng(SeedFor(seed, 0x5047));
  for (size_t i = 0; i < kSortSeeds; ++i) {
    const int64_t input_seed = static_cast<int64_t>(rng.Next() >> 33);
    AddVariant(&w, w.name,
               "{\"seed\":" + std::to_string(input_seed) +
                   ",\"input\":\"/input.bin\"}",
               aswl::ExpectedSortingResult(aswl::MakeIntegerInput(
                   kSortInputBytes, static_cast<uint64_t>(input_seed))));
  }
  UniformCdf(&w);
  return w;
}

Workload ZipfTenants(
    uint64_t seed, const std::function<bool(const std::string&)>& placeable) {
  Workload w;
  w.name = "zipf_tenants";
  w.rate_rps = 750;
  w.bursty = true;
  alloy::AsVisor::WorkflowOptions options = SmallWfd();
  options.pool_size = 1;
  options.max_concurrency = 1;
  options.queue_capacity = 8;
  // Parked WFDs of unpopular tenants expire between their requests, so a
  // share of invocations clone-boots from the tenant's template.
  options.idle_ttl_ms = 50;
  asbase::Rng rng(SeedFor(seed, 0x21f));
  std::vector<int64_t> payload_seeds;
  std::vector<std::string> expected;
  for (size_t j = 0; j < kTenantSeeds; ++j) {
    payload_seeds.push_back(static_cast<int64_t>(rng.Next() >> 33));
    expected.push_back(ChecksumResult(aswl::MakePayload(
        kTenantBytes, static_cast<uint64_t>(payload_seeds.back()))));
  }
  double total = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    total += std::pow(static_cast<double>(t + 1), -kTenantZipf);
  }
  double cumulative = 0;
  size_t index = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    char name[32];
    do {
      std::snprintf(name, sizeof(name), "tenant-%02zu", index++);
    } while (!placeable(name));
    w.deployments.push_back({OneStage(name, "serve.tenant_io"), options});
    const double share =
        std::pow(static_cast<double>(t + 1), -kTenantZipf) / total;
    for (size_t j = 0; j < kTenantSeeds; ++j) {
      AddVariant(&w, name,
                 "{\"seed\":" + std::to_string(payload_seeds[j]) + "}",
                 expected[j]);
      cumulative += share / static_cast<double>(kTenantSeeds);
      w.cdf.push_back(cumulative);
    }
  }
  w.cdf.back() = 1.0;
  return w;
}

Workload BulkBody(uint64_t seed) {
  Workload w;
  w.name = "bulk_body";
  w.rate_rps = 500;
  w.deployments.push_back({OneStage(w.name, "serve.bulk_write"), SmallWfd()});
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  asbase::Rng rng(SeedFor(seed, 0xb01c));
  for (size_t i = 0; i < kBulkBodies; ++i) {
    std::string data(kBulkBytes, 'a');
    for (char& c : data) {
      c = kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
    }
    std::string expected = ChecksumResult(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(data.data()), data.size()));
    AddVariant(&w, w.name, "{\"data\":\"" + data + "\"}", std::move(expected));
  }
  UniformCdf(&w);
  return w;
}

uint32_t Pick(const Workload& workload, asbase::Rng& rng) {
  const auto it = std::lower_bound(workload.cdf.begin(), workload.cdf.end(),
                                   rng.NextDouble());
  return static_cast<uint32_t>(
      std::min<size_t>(it - workload.cdf.begin(), workload.cdf.size() - 1));
}

}  // namespace

void RegisterFunctions() {
  alloy::FunctionRegistry& registry = alloy::FunctionRegistry::Global();
  registry.Register("serve.noop", Noop);
  registry.Register("serve.sort_gen", SortGen);
  registry.Register("serve.tenant_io", TenantIo);
  registry.Register("serve.bulk_write", BulkWrite);
}

std::optional<Workload> MakeWorkload(
    const std::string& name, uint64_t seed,
    const std::function<bool(const std::string&)>& placeable) {
  if (name == "noop_warm") {
    return NoopWarm();
  }
  if (name == "sort_fanout") {
    return SortFanout(seed);
  }
  if (name == "zipf_tenants") {
    return ZipfTenants(seed, placeable);
  }
  if (name == "bulk_body") {
    return BulkBody(seed);
  }
  return std::nullopt;
}

uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  return asbase::Rng(seed * 0x9E3779B97F4A7C15ULL + stream).Next();
}

std::vector<Arrival> MakeSchedule(const Workload& workload, uint64_t seed,
                                  int64_t duration_nanos) {
  asbase::Rng rng(seed);
  std::vector<Arrival> arrivals;
  // Which window of each group of kBurstGroup runs hot.
  int64_t hot = static_cast<int64_t>(rng.Below(kBurstGroup));
  int64_t window = 0;
  auto rate = [&] {
    return workload.rate_rps *
           (workload.bursty && window % kBurstGroup == hot ? kBurstFactor
                                                           : 1.0);
  };
  double t = 0;
  while (true) {
    const double gap = -std::log(1.0 - rng.NextDouble()) / rate() * 1e9;
    const double window_end =
        static_cast<double>((window + 1) * kBurstWindowNanos);
    if (workload.bursty && t + gap >= window_end) {
      // Exponential gaps are memoryless: restart at the window boundary
      // with the next window's rate.
      t = window_end;
      ++window;
      if (window % kBurstGroup == 0) {
        hot = static_cast<int64_t>(rng.Below(kBurstGroup));
      }
      continue;
    }
    t += gap;
    if (t >= static_cast<double>(duration_nanos)) {
      break;
    }
    arrivals.push_back(Arrival{static_cast<int64_t>(t), Pick(workload, rng)});
  }
  return arrivals;
}

std::vector<uint32_t> MakeSequence(const Workload& workload, uint64_t seed,
                                   size_t count) {
  asbase::Rng rng(seed);
  std::vector<uint32_t> sequence(count);
  for (uint32_t& variant : sequence) {
    variant = Pick(workload, rng);
  }
  return sequence;
}

void SetAsStdTiming(bool on) {
  g_timing.store(on, std::memory_order_relaxed);
}

AsStdTimes TakeAsStdTimes() {
  std::lock_guard<std::mutex> lock(g_times_mutex);
  AsStdTimes taken = std::move(g_times);
  g_times = AsStdTimes{};
  return taken;
}

}  // namespace serve
