// bench_serve: the serving benchmark (bench/serve/README.md).
//
// Runs ONE workload against the real serving path: AsVisorRouter behind the
// watchdog HttpServer, over keep-alive loopback HTTP, with the router,
// serving and pool settings at the library defaults. run.py starts a fresh
// process per workload. Prints `<workload>.<metric> <value> <unit>` lines
// and writes one results JSON.
//
//   bench_serve --workload <name> [--seed N] [--seconds S] [--trace]
//               [--smoke] [--out FILE]
//
// Untraced: six deployments, each set-up, warm-up, an open-loop round and a
// closed-loop round; each metric is the median of its per-deployment values,
// except memory, which is the first deployment's.
// Traced: one deployment, warm-up, the serial ladder, then four open-loop
// rounds that alternate untraced and traced.
// Exit codes: 0 ok, 1 failure, 2 usage, 3 INVALID.

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve/loadgen.h"
#include "bench/serve/workloads.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/core/visor/orchestrator.h"
#include "src/core/visor/visor_router.h"
#include "src/core/wfd.h"
#include "src/http/http.h"
#include "src/mpk/pkey_runtime.h"
#include "src/obs/metrics.h"

#ifndef BENCH_SERVE_BUILD_TYPE
#define BENCH_SERVE_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_SERVE_SANITIZE
#define BENCH_SERVE_SANITIZE 0
#endif

namespace serve {
namespace {

using asbase::MonoNanos;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = BENCH_SERVE_SANITIZE != 0;
#endif

constexpr int kDeployments = 6;
constexpr int kTracedLoadRounds = 4;
// Ladder rungs stop at this many samples; each takes at least the minimum.
constexpr size_t kLadderMaxReps = 20000;
constexpr size_t kLadderMinReps = 5;
constexpr int kLadderCreates = 3;
constexpr size_t kClosedSequence = 1u << 16;
// The latency limit behind slo_frac, a client's timeout: a request misses
// it when it hangs or fails, not when a shared host runs it slower
// (README.md, "End-to-end metrics").
constexpr int64_t kSloNanos = 100'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Totals {
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;

  void Add(const PhaseResult& phase) {
    attempted += phase.sent;
    failed += phase.errors + phase.wrong;
    wrong += phase.wrong;
  }
  void AddOne(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++wrong;
    }
  }
};

// One deployment of the workload: the router and a generator connected to
// its watchdog. The generator is declared last so it disconnects first.
struct Serving {
  std::unique_ptr<alloy::AsVisorRouter> router;
  std::unique_ptr<LoadGen> gen;
};

double Us(int64_t nanos) { return static_cast<double>(nanos) / 1e3; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double MedianUs(const asbase::Histogram& hist) {
  return Us(hist.Percentile(0.5));
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus.empty() ? std::vector<int>{0} : cpus;
}

struct GeneratorCpu {
  int cpu = 0;
  // Share of the workload's requests whose stage workers run on `cpu`.
  double share = 0;
};

// The CPU on which the shards serving this workload run the smallest share
// of its requests (the highest such CPU on a tie), so that the generator
// competes least with pinned stage workers. That share is 0: the
// single-workflow workloads use one shard, and `zipf_tenants` keeps its
// tenants off the highest CPU's shard (TenantPlacement).
GeneratorCpu PlaceGenerator(const Workload& workload,
                            alloy::AsVisorRouter& router,
                            const std::vector<int>& cpus) {
  std::map<int, double> load;
  double below = 0;
  for (size_t v = 0; v < workload.variants.size(); ++v) {
    const size_t shard = router.ShardOf(workload.variants[v].workflow);
    for (int cpu : router.ShardPtr(shard)->shard_cpus()) {
      load[cpu] += workload.cdf[v] - below;
    }
    below = workload.cdf[v];
  }
  int best = cpus.back();
  for (auto it = cpus.rbegin(); it != cpus.rend(); ++it) {
    if (load[*it] < load[best]) {
      best = *it;
    }
  }
  return GeneratorCpu{best, load[best]};
}

// Accepts a workflow name unless the router would place it on the shard
// that runs on `gen_cpu`. With that shard's stage workers pinned to the
// generator's CPU, some `zipf_tenants` runs had a generator lag p90 of
// 50-500 us in every round and a p50 2.5x the usual (README.md, "Findings").
// With a single shard, every name is accepted.
std::function<bool(const std::string&)> TenantPlacement(int gen_cpu) {
  auto probe = std::make_shared<const alloy::AsVisorRouter>();
  const size_t shards = probe->shard_count();
  size_t avoid = shards;  // no shard
  for (size_t shard = 0; shards > 1 && shard < shards; ++shard) {
    const std::vector<int>& owned = probe->ShardPtr(shard)->shard_cpus();
    if (std::find(owned.begin(), owned.end(), gen_cpu) != owned.end()) {
      avoid = shard;
    }
  }
  return [probe, avoid](const std::string& workflow) {
    return probe->ShardOf(workflow) != avoid;
  };
}

// Keeps server threads off the generator's CPU. Threads inherit the
// affinity of the thread that starts them, and set-up starts them all from
// this one; stage workers still pin themselves to their shard's CPUs.
// Sharing its CPU with unpinned server threads delayed the generator by up
// to milliseconds (README.md, "Findings").
void KeepOffCpu(int gen_cpu, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu != gen_cpu) {
      CPU_SET(cpu, &set);
    }
  }
  if (CPU_COUNT(&set) > 0) {
    sched_setaffinity(0, sizeof(set), &set);
  }
}

// Restarts VmHWM from the current RSS, so that the peak covers only the
// measured phases that follow, not set-up and warm-up.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// A `/proc/self/status` size field such as "VmRSS:", in MiB.
double StatusMib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

// One CPU's line of /proc/stat, in ticks: all states, and steal, the time
// the host ran something else while this vCPU had work to do.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

std::map<int, CpuTicks> ReadCpuTicks() {
  std::map<int, CpuTicks> ticks;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    fields >> cpu;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    CpuTicks& cpu_ticks = ticks[cpu];
    uint64_t value = 0;
    for (int field = 0; field < 8 && fields >> value; ++field) {
      cpu_ticks.total += value;
      if (field == 7) {
        cpu_ticks.steal = value;
      }
    }
  }
  return ticks;
}

// The share of `cpu`'s time stolen by the host between two readings.
double StealFrac(const std::map<int, CpuTicks>& before,
                 const std::map<int, CpuTicks>& after, int cpu) {
  const auto from = before.find(cpu);
  const auto to = after.find(cpu);
  if (from == before.end() || to == after.end() ||
      to->second.total <= from->second.total) {
    return 0;
  }
  return static_cast<double>(to->second.steal - from->second.steal) /
         static_cast<double>(to->second.total - from->second.total);
}

const Deployment& DeploymentOf(const Workload& workload,
                               const std::string& workflow) {
  for (const Deployment& deployment : workload.deployments) {
    if (deployment.spec.name == workflow) {
      return deployment;
    }
  }
  return workload.deployments.front();
}

asbase::Json Params(const RequestVariant& variant) {
  auto parsed = asbase::Json::Parse(variant.body);
  return parsed.ok() ? *parsed : asbase::Json();
}

// Registers every workflow on a router with default options, invokes each
// once (its full boot and template capture land here, not in the measured
// phases), starts the watchdog and connects the generator.
asbase::Status SetUp(const Workload& workload, const std::vector<int>& cpus,
                     Serving* serving, Totals* totals, GeneratorCpu* gen) {
  serving->router = std::make_unique<alloy::AsVisorRouter>();
  alloy::AsVisorRouter& router = *serving->router;
  *gen = PlaceGenerator(workload, router, cpus);
  KeepOffCpu(gen->cpu, cpus);
  for (const Deployment& deployment : workload.deployments) {
    router.RegisterWorkflow(deployment.spec, deployment.options);
  }
  for (const Deployment& deployment : workload.deployments) {
    const RequestVariant* variant = nullptr;
    for (const RequestVariant& candidate : workload.variants) {
      if (candidate.workflow == deployment.spec.name) {
        variant = &candidate;
        break;
      }
    }
    auto primed = router.Invoke(deployment.spec.name, Params(*variant));
    const bool ok = primed.ok() && primed->run.result == variant->expected;
    totals->AddOne(ok);
    if (!ok) {
      return asbase::Internal(
          "priming " + deployment.spec.name + " failed: " +
          (primed.ok() ? "wrong result" : primed.status().ToString()));
    }
  }
  AS_RETURN_IF_ERROR(router.StartWatchdog(0));
  serving->gen = std::make_unique<LoadGen>(router.watchdog_port(), cpus.size(),
                                           gen->cpu, &workload.variants);
  if (!serving->gen->connected()) {
    return asbase::Unavailable("generator could not connect");
  }
  return asbase::OkStatus();
}

// Per-round open-loop summary.
struct OpenRound {
  size_t samples = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double slo_frac = 0;
  double error_frac = 0;
  double invoke_p50_us = 0;
  double invoke_p99_us = 0;
  double outside_p50_us = 0;
  double outside_p99_us = 0;
  // The server's CPU time over the round per verified reply.
  double cpu_us_per_req = 0;
};

OpenRound Summarize(const PhaseResult& phase) {
  asbase::Histogram latency;
  asbase::Histogram invoke;
  asbase::Histogram outside;
  size_t good = 0;
  for (const Completion& completion : phase.completions) {
    latency.Record(completion.latency_nanos);
    if (completion.ok) {
      invoke.Record(completion.invoke_nanos);
      outside.Record(completion.latency_nanos - completion.invoke_nanos);
      if (completion.latency_nanos <= kSloNanos) {
        ++good;
      }
    }
  }
  const double attempted =
      static_cast<double>(std::max<size_t>(phase.sent, 1));
  OpenRound round;
  round.samples = latency.count();
  round.p50_us = Us(latency.Percentile(0.5));
  round.p90_us = Us(latency.Percentile(0.9));
  round.p99_us = Us(latency.Percentile(0.99));
  round.slo_frac = static_cast<double>(good) / attempted;
  round.error_frac =
      static_cast<double>(phase.errors + phase.wrong) / attempted;
  round.invoke_p50_us = Us(invoke.Percentile(0.5));
  round.invoke_p99_us = Us(invoke.Percentile(0.99));
  round.outside_p50_us = Us(outside.Percentile(0.5));
  round.outside_p99_us = Us(outside.Percentile(0.99));
  const size_t verified = std::max<size_t>(invoke.count(), 1);
  round.cpu_us_per_req =
      Us(phase.server_cpu_nanos) / static_cast<double>(verified);
  return round;
}

template <typename Field>
double MedianOf(const std::vector<OpenRound>& rounds, Field field) {
  std::vector<double> values;
  for (const OpenRound& round : rounds) {
    values.push_back(round.*field);
  }
  return Median(values);
}

// ------------------------------------------------------------- the ladder

// Times variants[0] at each layer's public entry point, serially, outermost
// rung last. Self times are differences of paired per-request quantities so
// that the run time of the workflow itself cancels.
asbase::Status RunLadder(const Workload& workload, int64_t budget_nanos,
                         Serving* serving, Totals* totals,
                         std::vector<Metric>* metrics,
                         std::vector<Metric>* diagnostics) {
  alloy::AsVisorRouter& router = *serving->router;
  const RequestVariant& variant = workload.variants[0];
  const Deployment& deployment = DeploymentOf(workload, variant.workflow);
  const asbase::Json params = Params(variant);
  const int64_t slice = budget_nanos / 4;
  auto more = [](size_t done, int64_t start, int64_t budget) {
    return done < kLadderMaxReps &&
           (done < kLadderMinReps || MonoNanos() - start < budget);
  };

  // Rung: the WFD lifecycle, on a bench-owned WFD pinned like the owning
  // shard pins its own.
  alloy::WfdOptions options = deployment.options.wfd;
  options.name = deployment.spec.name;
  options.cpu_affinity =
      router.ShardPtr(router.ShardOf(variant.workflow))->shard_cpus();
  asbase::Histogram create, boot, capture, clone, run, reset, wait, switches,
      enters;
  std::vector<asbase::Histogram> stages(deployment.spec.stages.size());
  std::unique_ptr<alloy::Wfd> wfd;
  std::shared_ptr<const alloy::WfdSnapshot> snapshot;
  auto run_once = [&](alloy::Wfd* target, bool record) -> asbase::Status {
    const int64_t t0 = MonoNanos();
    auto stats = alloy::Orchestrator(target).Run(deployment.spec, params);
    const int64_t t1 = MonoNanos();
    const bool ok = stats.ok() && stats->result == variant.expected;
    totals->AddOne(ok);
    if (!ok) {
      return asbase::Internal("ladder run of " + variant.workflow + " failed");
    }
    AS_RETURN_IF_ERROR(target->Reset());
    if (record) {
      run.Record(t1 - t0);
      reset.Record(MonoNanos() - t1);
      wait.Record(stats->phases.wait_nanos);
      switches.Record(static_cast<int64_t>(stats->pkru_switches));
      enters.Record(static_cast<int64_t>(stats->trampoline_enters));
      for (size_t i = 0; i < stages.size() && i < stats->stage_nanos.size();
           ++i) {
        stages[i].Record(stats->stage_nanos[i]);
      }
    }
    return asbase::OkStatus();
  };
  int64_t start = MonoNanos();
  for (int i = 0; i < kLadderCreates &&
                  (i == 0 || MonoNanos() - start < slice / 2);
       ++i) {
    const int64_t t0 = MonoNanos();
    AS_ASSIGN_OR_RETURN(std::unique_ptr<alloy::Wfd> created,
                        alloy::Wfd::Create(options));
    create.Record(MonoNanos() - t0);
    AS_RETURN_IF_ERROR(run_once(created.get(), false));
    // A full boot: Create plus the first run, which loads the modules.
    boot.Record(MonoNanos() - t0);
    const int64_t t1 = MonoNanos();
    AS_ASSIGN_OR_RETURN(snapshot, created->CaptureSnapshot());
    capture.Record(MonoNanos() - t1);
    wfd = std::move(created);
  }
  start = MonoNanos();
  while (more(clone.count(), start, slice / 4)) {
    const int64_t t0 = MonoNanos();
    auto cloned = alloy::Wfd::CloneFromSnapshot(options, snapshot);
    clone.Record(MonoNanos() - t0);
    if (!cloned.ok()) {
      return cloned.status();
    }
  }
  start = MonoNanos();
  while (more(run.count(), start, slice / 4)) {
    AS_RETURN_IF_ERROR(run_once(wfd.get(), true));
  }
  wfd.reset();

  // Rung: AsVisorRouter::Invoke, with the bench's AsStd timers on.
  asbase::Histogram invoke, invoke_outside_e2e, invoke_outside_run;
  SetAsStdTiming(true);
  start = MonoNanos();
  while (more(invoke.count(), start, slice)) {
    const int64_t t0 = MonoNanos();
    auto result = router.Invoke(variant.workflow, params);
    const int64_t wall = MonoNanos() - t0;
    const bool ok = result.ok() && result->run.result == variant.expected;
    totals->AddOne(ok);
    if (!ok) {
      SetAsStdTiming(false);
      return asbase::Internal("ladder invoke failed");
    }
    invoke.Record(wall);
    invoke_outside_e2e.Record(wall - result->end_to_end_nanos);
    invoke_outside_run.Record(wall - result->run.total_nanos);
  }
  SetAsStdTiming(false);
  const AsStdTimes asstd = TakeAsStdTimes();

  // Rung: AsVisorRouter::Dispatch, the serving pipeline without the socket.
  ashttp::HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/" + variant.workflow;
  request.body = variant.body;
  asbase::Histogram dispatch, dispatch_outside_e2e;
  start = MonoNanos();
  while (more(dispatch.count(), start, slice)) {
    const int64_t t0 = MonoNanos();
    const ashttp::HttpResponse response = router.Dispatch(request);
    const int64_t wall = MonoNanos() - t0;
    auto body = asbase::Json::Parse(response.body);
    const bool ok = response.status == 200 && body.ok() &&
                    (*body)["result"].is_string() &&
                    (*body)["result"].as_string() == variant.expected;
    totals->AddOne(ok);
    if (!ok) {
      return asbase::Internal("ladder dispatch failed");
    }
    dispatch.Record(wall);
    dispatch_outside_e2e.Record(wall - (*body)["end_to_end_nanos"].as_int());
  }

  // Rung: the HTTP round trip over one keep-alive connection.
  const PhaseResult serial = serving->gen->Serial(0, slice, kLadderMaxReps);
  totals->Add(serial);
  asbase::Histogram rtt, rtt_outside_e2e;
  for (const Completion& completion : serial.completions) {
    rtt.Record(completion.latency_nanos);
    rtt_outside_e2e.Record(completion.latency_nanos - completion.invoke_nanos);
  }
  if (serial.errors + serial.wrong > 0 || rtt.count() == 0) {
    return asbase::Internal("ladder round trips failed");
  }

  metrics->push_back({"edge.rtt_us", MedianUs(rtt), "us"});
  metrics->push_back({"router.dispatch_us", MedianUs(dispatch), "us"});
  metrics->push_back({"visor.invoke_us", MedianUs(invoke), "us"});
  metrics->push_back({"orch.run_us", MedianUs(run), "us"});
  metrics->push_back({"wfd.reset_us", MedianUs(reset), "us"});
  metrics->push_back({"wfd.create_ms", MedianUs(create) / 1e3, "ms"});
  metrics->push_back({"wfd.clone_us", MedianUs(clone), "us"});
  metrics->push_back({"wfd.capture_ms", MedianUs(capture) / 1e3, "ms"});
  metrics->push_back({"edge.self_us",
                      MedianUs(rtt_outside_e2e) -
                          MedianUs(dispatch_outside_e2e),
                      "us"});
  metrics->push_back({"admission.self_us",
                      MedianUs(dispatch_outside_e2e) -
                          MedianUs(invoke_outside_e2e),
                      "us"});
  metrics->push_back({"visor.self_us",
                      MedianUs(invoke_outside_run) - MedianUs(reset), "us"});
  metrics->push_back({"orch.wait_us", MedianUs(wait), "us"});
  const double switch_count = static_cast<double>(switches.Percentile(0.5));
  metrics->push_back({"mpk.switches", switch_count, "count"});
  metrics->push_back({"mpk.trampoline_enters",
                      static_cast<double>(enters.Percentile(0.5)), "count"});
  diagnostics->push_back(
      {"mpk.cost_us",
       switch_count *
           static_cast<double>(asbase::SimCostModel::Global().wrpkru_nanos) /
           1e3,
       "us"});
  diagnostics->push_back({"wfd.boot_ms", MedianUs(boot) / 1e3, "ms"});
  for (size_t i = 0; i < stages.size(); ++i) {
    diagnostics->push_back(
        {"orch.stage" + std::to_string(i) + "_us", MedianUs(stages[i]), "us"});
  }
  if (asstd.write.count() > 0) {
    diagnostics->push_back({"asstd.write_us", MedianUs(asstd.write), "us"});
  }
  if (asstd.read.count() > 0) {
    diagnostics->push_back({"asstd.read_us", MedianUs(asstd.read), "us"});
  }
  diagnostics->push_back(
      {"ladder.samples", static_cast<double>(rtt.count()), "count"});
  return asbase::OkStatus();
}

// ------------------------------------------------- traced load, /metrics

// Sums each /metrics counter family over its series.
asbase::Result<std::map<std::string, double>> ScrapeCounters(uint16_t port) {
  ashttp::HttpRequest request;
  request.target = "/metrics";
  AS_ASSIGN_OR_RETURN(ashttp::HttpResponse response,
                      ashttp::HttpCall("127.0.0.1", port, request));
  std::map<std::string, double> totals;
  size_t pos = 0;
  const std::string& text = response.body;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    totals[line.substr(0, name_end)] +=
        std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return totals;
}

// The admission queue-wait series of every workflow, as the visor labels
// them. The visor records a wait only for requests that queued.
std::vector<asobs::LatencyHistogram*> QueueWaitSeries(
    const Workload& workload, alloy::AsVisorRouter& router) {
  std::vector<asobs::LatencyHistogram*> series;
  for (const Deployment& deployment : workload.deployments) {
    series.push_back(&asobs::Registry::Global().GetHistogram(
        "alloy_visor_queue_wait_nanos",
        {{"workflow", deployment.spec.name},
         {"alloy_visor_shard",
          std::to_string(router.ShardOf(deployment.spec.name))}}));
  }
  return series;
}

// ------------------------------------------------------------------- main

int Usage() {
  std::fprintf(stderr,
               "usage: bench_serve --workload <name> [--seed N] "
               "[--seconds S] [--trace] [--smoke] [--out FILE]\n");
  return 2;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "bench_serve: %s\n", what.c_str());
  return 1;
}

int Invalid(const std::string& why) {
  std::printf("INVALID: %s\n", why.c_str());
  std::fflush(stdout);
  return 3;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      args.out = argv[++i];
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage();
  }
  // The CPUs the process may use; one keep-alive connection per CPU.
  const std::vector<int> cpus = AllowedCpus();
  RegisterFunctions();
  const std::optional<Workload> made =
      MakeWorkload(args.workload, args.seed, TenantPlacement(cpus.back()));
  if (!made) {
    return Usage();
  }
  const Workload& workload = *made;
  if (!args.smoke && (!kOptimized || kSanitized)) {
    return Invalid(std::string("timing a ") +
                   (kSanitized ? "sanitizer" : "non-optimised") + " build");
  }

  const int64_t total_nanos = static_cast<int64_t>(args.seconds * 1e9);
  Totals totals;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;

  Serving serving;
  GeneratorCpu gen;
  std::vector<double> setup_seconds;
  std::vector<double> setup_rss;
  // Tears down the current deployment, if any, and times a fresh set-up.
  auto redeploy = [&]() -> asbase::Status {
    serving.gen.reset();
    serving.router.reset();
    const int64_t t0 = MonoNanos();
    AS_RETURN_IF_ERROR(SetUp(workload, cpus, &serving, &totals, &gen));
    setup_seconds.push_back(static_cast<double>(MonoNanos() - t0) / 1e9);
    // The watchdog's threads and the server side of the generator's
    // connections finish setting up within ~20 ms. Read at once, VmRSS
    // differed by 6% between runs; read after this wait, by under 1%.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    setup_rss.push_back(StatusMib("VmRSS:"));
    return asbase::OkStatus();
  };

  asbase::Histogram lag;
  // Per-round values behind the medians, so a run's steadiness shows.
  std::map<std::string, asbase::Json> per_round;
  size_t short_sent = 0;
  // Share of the process's CPUs' time the host stole, per measured round.
  std::vector<double> round_steal;
  // Runs one open-loop round; a measured one adds its generator lag to the
  // run's and records the host's steal over it.
  auto open_round = [&](uint64_t stream, int64_t nanos, bool measured) {
    const std::map<int, CpuTicks> ticks_before = ReadCpuTicks();
    PhaseResult phase = serving.gen->OpenLoop(
        MakeSchedule(workload, SeedFor(args.seed, stream), nanos));
    const std::map<int, CpuTicks> ticks_after = ReadCpuTicks();
    totals.Add(phase);
    if (phase.sent < phase.scheduled) {
      short_sent += phase.scheduled - phase.sent;
    }
    if (measured) {
      asbase::Histogram round_lag;
      for (const Completion& completion : phase.completions) {
        round_lag.Record(completion.lag_nanos);
      }
      per_round["gen.lag_p90_us"].Append(Us(round_lag.Percentile(0.9)));
      lag.Merge(round_lag);
      double steal_sum = 0;
      for (int cpu : cpus) {
        steal_sum += StealFrac(ticks_before, ticks_after, cpu);
      }
      round_steal.push_back(steal_sum / static_cast<double>(cpus.size()));
      per_round["host.steal_frac"].Append(round_steal.back());
    }
    return phase;
  };

  if (!args.trace) {
    // Every round runs on a deployment of its own, so each metric is a
    // median over six server instances, whose thread placement the
    // scheduler settles afresh, and the set-ups are the samples behind
    // setup_s.
    const int deployments = args.smoke ? 2 : kDeployments;
    const int64_t slot = total_nanos / deployments;
    std::vector<OpenRound> rounds;
    std::vector<double> capacity;
    std::vector<double> rss;
    for (int d = 0; d < deployments; ++d) {
      const asbase::Status deployed = redeploy();
      if (!deployed.ok()) {
        return Fail("set-up: " + deployed.ToString());
      }
      open_round(10 + d, slot / 10, false);  // warm-up
      ResetPeakRss();
      rounds.push_back(Summarize(open_round(100 + d, slot * 6 / 10, true)));
      const PhaseResult closed = serving.gen->ClosedLoop(
          slot * 3 / 10,
          MakeSequence(workload, SeedFor(args.seed, 200 + d), kClosedSequence));
      totals.Add(closed);
      size_t good = 0;
      for (const Completion& completion : closed.completions) {
        good += completion.ok ? 1 : 0;
      }
      capacity.push_back(static_cast<double>(good) /
                         (static_cast<double>(closed.elapsed_nanos) / 1e9));
      rss.push_back(StatusMib("VmHWM:"));
    }
    for (const OpenRound& round : rounds) {
      per_round["p50_us"].Append(round.p50_us);
      per_round["p90_us"].Append(round.p90_us);
      per_round["p99_us"].Append(round.p99_us);
      per_round["cpu_us_per_req"].Append(round.cpu_us_per_req);
    }
    for (size_t d = 0; d < capacity.size(); ++d) {
      per_round["capacity_rps"].Append(capacity[d]);
      per_round["peak_rss_mib"].Append(rss[d]);
      per_round["setup_rss_mib"].Append(setup_rss[d]);
      per_round["setup_s"].Append(setup_seconds[d]);
    }
    metrics.push_back(
        {"slo_frac", MedianOf(rounds, &OpenRound::slo_frac), "frac"});
    // Both memory numbers are the first deployment's: a torn-down router
    // leaves memory resident, so later deployments start higher (README.md,
    // "Findings").
    metrics.push_back({"setup_rss_mib", setup_rss.front(), "MiB"});
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
    // Too unsteady across runs on a shared host to carry a bound
    // (README.md, "End-to-end metrics").
    diagnostics.push_back(
        {"p50_us", MedianOf(rounds, &OpenRound::p50_us), "us"});
    diagnostics.push_back({"cpu_us_per_req",
                           MedianOf(rounds, &OpenRound::cpu_us_per_req), "us"});
    diagnostics.push_back({"peak_rss_mib", rss.front(), "MiB"});
    diagnostics.push_back(
        {"p90_us", MedianOf(rounds, &OpenRound::p90_us), "us"});
    diagnostics.push_back(
        {"p99_us", MedianOf(rounds, &OpenRound::p99_us), "us"});
    diagnostics.push_back({"capacity_rps", Median(capacity), "1/s"});
    size_t samples = 0;
    for (const OpenRound& round : rounds) {
      samples += round.samples;
    }
    diagnostics.push_back(
        {"open.samples", static_cast<double>(samples), "count"});
    diagnostics.push_back(
        {"error_frac", MedianOf(rounds, &OpenRound::error_frac), "frac"});
  } else {
    const asbase::Status deployed = redeploy();
    if (!deployed.ok()) {
      return Fail("set-up: " + deployed.ToString());
    }
    open_round(1, total_nanos / 10, false);  // warm-up
    const asbase::Status ladder = RunLadder(
        workload, total_nanos * 3 / 10, &serving, &totals, &metrics,
        &diagnostics);
    if (!ladder.ok()) {
      return Fail("ladder: " + ladder.ToString());
    }
    std::vector<OpenRound> untraced;
    std::vector<OpenRound> traced;
    std::map<std::string, double> deltas;
    asbase::Histogram queue_wait;
    alloy::AsVisorRouter& router = *serving.router;
    const std::vector<asobs::LatencyHistogram*> queue_series =
        QueueWaitSeries(workload, router);
    const int64_t round_nanos = total_nanos * 6 / 10 / kTracedLoadRounds;
    for (int r = 0; r < kTracedLoadRounds; ++r) {
      if (r % 2 == 0) {
        untraced.push_back(
            Summarize(open_round(300 + r, round_nanos, true)));
        continue;
      }
      auto before = ScrapeCounters(router.watchdog_port());
      for (asobs::LatencyHistogram* series : queue_series) {
        series->Reset();
      }
      const PhaseResult phase = open_round(300 + r, round_nanos, true);
      auto after = ScrapeCounters(router.watchdog_port());
      if (!before.ok() || !after.ok()) {
        return Fail("scraping /metrics failed");
      }
      for (const auto& [name, value] : *after) {
        deltas[name] += value - (*before)[name];
      }
      for (asobs::LatencyHistogram* series : queue_series) {
        queue_wait.Merge(series->Snapshot());
      }
      traced.push_back(Summarize(phase));
    }
    const double hits = deltas["alloy_visor_pool_hits_total"];
    const double misses = deltas["alloy_visor_pool_misses_total"];
    const double full = deltas["alloy_visor_snapshot_fallback_boots_total"];
    const double leases = std::max(hits + misses, 1.0);
    metrics.push_back({"load.invoke_p50_us",
                       MedianOf(traced, &OpenRound::invoke_p50_us), "us"});
    metrics.push_back({"load.invoke_p99_us",
                       MedianOf(traced, &OpenRound::invoke_p99_us), "us"});
    metrics.push_back({"load.outside_p50_us",
                       MedianOf(traced, &OpenRound::outside_p50_us), "us"});
    metrics.push_back({"load.outside_p99_us",
                       MedianOf(traced, &OpenRound::outside_p99_us), "us"});
    metrics.push_back({"pool.hit_frac", hits / leases, "frac"});
    metrics.push_back(
        {"pool.clone_frac", std::max(misses - full, 0.0) / leases, "frac"});
    metrics.push_back(
        {"trace.overhead_frac",
         MedianOf(traced, &OpenRound::p50_us) /
                 MedianOf(untraced, &OpenRound::p50_us) -
             1.0,
         "frac"});
    diagnostics.push_back({"pool.full_frac", full / leases, "frac"});
    diagnostics.push_back(
        {"admission.queued_frac",
         static_cast<double>(queue_wait.count()) / leases, "frac"});
    if (queue_wait.count() > 0) {
      diagnostics.push_back({"admission.queue_wait_p99_us",
                             Us(queue_wait.Percentile(0.99)), "us"});
    }
    diagnostics.push_back({"admission.rejected",
                           deltas["alloy_visor_rejections_total"], "count"});
  }
  const size_t shards = serving.router->shard_count();
  (args.trace ? metrics : diagnostics)
      .push_back({"gen.lag_p99_us", Us(lag.Percentile(0.99)), "us"});
  diagnostics.push_back({"gen.lag_p90_us", Us(lag.Percentile(0.9)), "us"});
  diagnostics.push_back({"host.steal_frac", Median(round_steal), "frac"});

  serving.gen.reset();
  serving.router.reset();

  if (!args.smoke && short_sent > 0) {
    return Invalid(std::to_string(short_sent) +
                   " scheduled requests were never sent");
  }

  asbase::Json doc;
  doc.Set("workload", workload.name);
  doc.Set("seed", static_cast<int64_t>(args.seed));
  doc.Set("trace", args.trace);
  doc.Set("smoke", args.smoke);
  doc.Set("seconds", args.seconds);
  asbase::Json config{asbase::JsonObject{}};
  config.Set("nproc", static_cast<int64_t>(cpus.size()));
  config.Set("shards", static_cast<int64_t>(shards));
  config.Set("generator_cpu", static_cast<int64_t>(gen.cpu));
  config.Set("generator_cpu_share", gen.share);
  config.Set("connections", static_cast<int64_t>(cpus.size()));
  config.Set("rate_rps", workload.rate_rps);
  config.Set("build_type", BENCH_SERVE_BUILD_TYPE);
  config.Set("optimized", kOptimized);
  config.Set("sanitized", kSanitized);
  config.Set("mpk_backend",
             workload.deployments[0].options.wfd.mpk_backend ==
                     asmpk::MpkBackend::kHardware
                 ? "hardware"
                 : "emulated");
  config.Set("deployments", static_cast<int64_t>(setup_seconds.size()));
  config.Set("seed", static_cast<int64_t>(args.seed));
  doc.Set("config", std::move(config));
  doc.Set("correct", totals.wrong == 0);
  doc.Set("attempted", static_cast<int64_t>(totals.attempted));
  doc.Set("failed", static_cast<int64_t>(totals.failed));
  auto to_json = [&](const std::vector<Metric>& list) {
    asbase::Json out{asbase::JsonObject{}};
    for (const Metric& metric : list) {
      asbase::Json entry;
      entry.Set("value", metric.value);
      entry.Set("unit", metric.unit);
      out.Set(metric.name, std::move(entry));
      std::printf("%s.%s %.6g %s\n", workload.name.c_str(),
                  metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    return out;
  };
  doc.Set("metrics", to_json(metrics));
  doc.Set("diagnostics", to_json(diagnostics));
  asbase::Json rounds_json{asbase::JsonObject{}};
  for (auto& [name, values] : per_round) {
    rounds_json.Set(name, std::move(values));
  }
  doc.Set("rounds", std::move(rounds_json));
  const std::string text = doc.Dump(2) + "\n";
  if (args.out.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else if (FILE* file = std::fopen(args.out.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
  } else {
    return Fail("cannot write " + args.out);
  }
  return 0;
}

}  // namespace
}  // namespace serve

int main(int argc, char** argv) { return serve::Main(argc, argv); }
