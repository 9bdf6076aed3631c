#include "src/core/visor/visor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/rebalance.h"

namespace alloy {
namespace {

// Smoothing for the per-workflow service-time EWMA behind the
// queue-with-budget admission predictor.
constexpr double kServiceAlpha = 0.2;

// Flight-ring capacity when ALLOY_FLIGHT_RING is unset.
constexpr size_t kDefaultFlightRing = 1024;

// Burn rates export through int64 gauges; scale to milli-units (burn 1.0 →
// gauge 1000) so fractional burns stay visible. Documented in docs/metrics.md.
int64_t BurnMilli(double burn) {
  return static_cast<int64_t>(std::llround(
      std::min(burn, 1e12) * 1000.0));
}

ashttp::HttpResponse ErrorResponse(int status, const std::string& reason,
                                   std::string body) {
  ashttp::HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.body = std::move(body);
  return response;
}

ashttp::HttpResponse NotFoundResponse() {
  return ErrorResponse(404, "Not Found", "unknown endpoint");
}

// `x-queue-budget-ms`: a plain decimal token (no sign, no unit), clamped
// to AsVisor::kMaxQueueBudgetMs so the nanosecond comparison in Admit
// cannot overflow. Nullopt when malformed: read leniently, "abc" would be
// a 0 ms budget and reject every queueable request.
std::optional<int64_t> ParseQueueBudgetMs(std::string_view value) {
  if (value.empty()) {
    return std::nullopt;
  }
  int64_t budget = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    budget = std::min(budget * 10 + (c - '0'), AsVisor::kMaxQueueBudgetMs);
  }
  return budget;
}

// The watchdog's answer for a finished invocation.
ashttp::HttpResponse InvokeResponse(
    const std::string& workflow_name,
    const asbase::Result<InvokeResult>& invoked) {
  if (!invoked.ok()) {
    switch (invoked.status().code()) {
      case asbase::ErrorCode::kNotFound:
        return ErrorResponse(404, "Not Found", invoked.status().ToString());
      case asbase::ErrorCode::kDeadlineExceeded:
        return ErrorResponse(504, "Gateway Timeout",
                             invoked.status().ToString());
      default:
        return ErrorResponse(500, "Error", invoked.status().ToString());
    }
  }
  asbase::Json body;
  body.Set("workflow", workflow_name);
  body.Set("cold_start_nanos", invoked->cold_start_nanos);
  body.Set("end_to_end_nanos", invoked->end_to_end_nanos);
  body.Set("start", invoked->warm_start    ? "hit"
                    : invoked->clone_start ? "clone"
                                           : "full");
  body.Set("instances", static_cast<int64_t>(invoked->run.instances_run));
  body.Set("result", invoked->run.result);
  ashttp::HttpResponse response;
  response.headers["content-type"] = "application/json";
  response.body = body.Dump();
  return response;
}

}  // namespace

AsVisor::AsVisor(ShardIdentity shard, std::shared_ptr<SnapshotStore> snapshots)
    : shard_(std::move(shard)),
      snapshots_(snapshots != nullptr ? std::move(snapshots)
                                      : std::make_shared<SnapshotStore>()),
      inflight_gauge_(&asobs::Registry::Global().GetGauge(
          "alloy_visor_inflight", ShardLabels())),
      warmer_(ShardLabels(), shard_.cpus) {
  flight_ = std::make_unique<asobs::FlightRecorder>(static_cast<size_t>(
      asbase::EnvInt64("ALLOY_FLIGHT_RING", kDefaultFlightRing)));
  trace_threshold_ms_ = asbase::EnvInt64("ALLOY_TRACE_THRESHOLD_MS", 0);
  blackbox_dir_ = asbase::EnvString("ALLOY_BLACKBOX_DIR", ".");
  asobs::Registry& registry = asobs::Registry::Global();
  flight_records_ = &registry.GetCounter("alloy_visor_flight_records_total",
                                         ShardLabels());
  flight_dropped_ = &registry.GetCounter("alloy_visor_flight_dropped_total",
                                         ShardLabels());
  traces_retained_ = &registry.GetCounter("alloy_visor_traces_retained_total",
                                          ShardLabels());
  blackbox_counter_ = &registry.GetCounter(
      "alloy_slo_blackbox_snapshots_total", ShardLabels());
}

AsVisor::~AsVisor() {
  StopWatchdog();
  ShutdownPools();
}

asobs::Labels AsVisor::ShardLabels() const {
  if (shard_.index < 0) {
    return {};
  }
  return {{"alloy_visor_shard", std::to_string(shard_.index)}};
}

asobs::Labels AsVisor::WorkflowLabels(
    const std::string& workflow_name) const {
  asobs::Labels labels = {{"workflow", workflow_name}};
  if (shard_.index >= 0) {
    labels.push_back({"alloy_visor_shard", std::to_string(shard_.index)});
  }
  return labels;
}

void AsVisor::RegisterWorkflow(const WorkflowSpec& spec) {
  RegisterWorkflow(spec, WorkflowOptions{});
}

struct AsVisor::BootRecipe {
  // The workflow's WFD options; each boot sets its own trace.
  WfdOptions wfd;
  // Orchestrator::StageWorkersNeeded of the workflow.
  size_t stage_workers = 0;
  // The clone template of this workflow's WFD geometry (DESIGN.md §14),
  // shared with every workflow of that geometry: offered each successful
  // run, dropped on reset failure. Null when the WFD cannot clone-boot
  // (ramfs, external disk).
  std::shared_ptr<SnapshotStore::Slot> snapshot;
  // Registry-owned (immortal) series, safe to use from a factory that
  // outlives the registration.
  asobs::Counter* clones = nullptr;
  asobs::Counter* fallbacks = nullptr;
  asobs::LatencyHistogram* clone_hist = nullptr;
};

struct AsVisor::Registration {
  WorkflowSpec spec;
  WorkflowOptions options;
  std::shared_ptr<WfdPool> pool;
  std::shared_ptr<const BootRecipe> boot;
  // Cached registry series (registry-owned, immortal) so the invoke and
  // admission hot paths never take the global registry mutex — with N
  // shards that mutex would be the one lock every shard still shares.
  asobs::Counter* invocations = nullptr;
  asobs::Counter* failures = nullptr;
  asobs::Counter* timeouts = nullptr;
  asobs::Counter* rejections = nullptr;
  asobs::Gauge* queued_gauge = nullptr;
  asobs::LatencyHistogram* invoke_hist = nullptr;
  asobs::LatencyHistogram* queue_wait_hist = nullptr;
  asobs::Counter* snapshot_creates = nullptr;
  asobs::Counter* snapshot_invalidations = nullptr;
  // Flight-recorder workflow id, interned at registration so the emit
  // path never touches the intern mutex.
  uint32_t flight_id = 0;
  // SLO tracker + milli-scaled burn gauges (alloy_slo_burn_rate{window}),
  // used under mutex_. Null when the registration declared no SLO.
  std::shared_ptr<asobs::SloTracker> slo;
  asobs::Gauge* burn_fast = nullptr;
  asobs::Gauge* burn_slow = nullptr;
};

void AsVisor::RegisterWorkflow(const WorkflowSpec& spec,
                               WorkflowOptions options) {
  if (!(options.weight >= 1e-6)) {  // also catches NaN
    options.weight = 1.0;
  }
  // Sharded visor: this shard's WFDs (and their stage workers) stay on the
  // shard's core set unless the caller pinned them elsewhere explicitly.
  if (options.wfd.cpu_affinity.empty() && !shard_.cpus.empty()) {
    options.wfd.cpu_affinity = shard_.cpus;
  }
  asobs::Registry& registry = asobs::Registry::Global();
  const asobs::Labels labels = WorkflowLabels(spec.name);
  auto boot = std::make_shared<BootRecipe>();
  boot->wfd = options.wfd;
  boot->wfd.trace = nullptr;
  boot->wfd.trace_parent = 0;
  boot->stage_workers = Orchestrator::StageWorkersNeeded(spec);
  boot->snapshot = snapshots_->SlotFor(options.wfd);
  boot->clones =
      &registry.GetCounter("alloy_visor_snapshot_clones_total", labels);
  boot->fallbacks =
      &registry.GetCounter("alloy_visor_snapshot_fallback_boots_total", labels);
  boot->clone_hist =
      &registry.GetHistogram("alloy_visor_snapshot_clone_nanos", labels);

  auto registration = std::make_shared<Registration>();
  registration->spec = spec;
  registration->invocations =
      &registry.GetCounter("alloy_visor_invocations_total", labels);
  registration->failures =
      &registry.GetCounter("alloy_visor_invocation_failures_total", labels);
  registration->timeouts =
      &registry.GetCounter("alloy_visor_timeouts_total", labels);
  registration->rejections =
      &registry.GetCounter("alloy_visor_rejections_total", labels);
  registration->queued_gauge = &registry.GetGauge("alloy_visor_queued", labels);
  registration->invoke_hist =
      &registry.GetHistogram("alloy_visor_invoke_nanos", labels);
  registration->queue_wait_hist =
      &registry.GetHistogram("alloy_visor_queue_wait_nanos", labels);
  registration->snapshot_creates =
      &registry.GetCounter("alloy_visor_snapshot_creates_total", labels);
  registration->snapshot_invalidations = &registry.GetCounter(
      "alloy_visor_snapshot_invalidations_total", labels);
  registration->flight_id = flight_->InternWorkflow(spec.name);
  if (options.slo_objective > 0) {
    asobs::SloOptions slo_options;
    slo_options.objective = std::min(options.slo_objective, 1.0);
    slo_options.latency_objective_ms = options.slo_latency_ms;
    registration->slo = std::make_shared<asobs::SloTracker>(slo_options);
    asobs::Labels fast_labels = labels;
    fast_labels.push_back({"window", "fast"});
    asobs::Labels slow_labels = labels;
    slow_labels.push_back({"window", "slow"});
    registration->burn_fast =
        &registry.GetGauge("alloy_slo_burn_rate", fast_labels);
    registration->burn_slow =
        &registry.GetGauge("alloy_slo_burn_rate", slow_labels);
  }
  WfdPoolOptions pool_options;
  pool_options.capacity = options.pool_size;
  pool_options.min_warm = std::min(options.min_warm, options.pool_size);
  pool_options.idle_ttl_ms = options.idle_ttl_ms;
  pool_options.extra_labels = ShardLabels();
  pool_options.log_shard = shard_.index;
  pool_options.warmer = &warmer_;
  if (pool_options.capacity > 0 &&
      (pool_options.min_warm > 0 || pool_options.idle_ttl_ms > 0)) {
    // The warmer boots WFDs itself; those boots carry no invocation trace
    // (there is none yet) and count as prewarms, not misses. Captures the
    // recipe, not `this`: a warmer tick in flight may outlive the
    // registration.
    pool_options.factory = [boot] { return Boot(*boot, nullptr, 0, nullptr); };
  }
  registration->pool =
      std::make_shared<WfdPool>(spec.name, std::move(pool_options));
  registration->boot = std::move(boot);
  registration->options = std::move(options);
  Entry entry;
  entry.registration = std::move(registration);
  std::shared_ptr<WfdPool> old_pool;
  std::vector<Ticket> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Overwrite drops the previous entry — including its pool, whose warm
    // WFDs were built from the old WfdOptions and must not serve the new
    // registration. In-flight invocations keep the old registration (and
    // its pool) alive until they finish.
    auto it = workflows_.find(spec.name);
    if (it != workflows_.end()) {
      old_pool = it->second.registration->pool;
      orphans = TakeWaitersLocked(it->second);
    }
    workflows_[spec.name] = std::move(entry);
    // A fresh registration supersedes any migration tombstone: requests for
    // this name belong here again, not wherever it moved to last time.
    migrated_out_.erase(spec.name);
  }
  // Requests queued against the old registration give up: their tickets
  // went with the old Entry.
  for (const Ticket& ticket : orphans) {
    Refuse(spec.name, ticket,
           asbase::NotFound("workflow '" + spec.name +
                            "' re-registered while queued"));
  }
  if (old_pool != nullptr) {
    // Take the orphan off the warmer now (Shutdown waits out a tick in
    // flight — never under mutex_) so it does not keep booting WFDs nobody
    // will lease.
    old_pool->Shutdown();
  }
}

bool AsVisor::UnregisterWorkflow(const std::string& workflow_name) {
  std::shared_ptr<WfdPool> old_pool;
  std::vector<Ticket> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      return false;
    }
    old_pool = it->second.registration->pool;
    orphans = TakeWaitersLocked(it->second);
    workflows_.erase(it);
  }
  for (const Ticket& ticket : orphans) {
    Refuse(workflow_name, ticket,
           asbase::NotFound("workflow '" + workflow_name +
                            "' unregistered while queued"));
  }
  old_pool->Shutdown();
  return true;
}

// ---------------------------------------------- live migration (DESIGN §12)

asbase::Result<std::shared_ptr<const AsVisor::Registration>>
AsVisor::FindRegistration(const std::string& workflow_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = workflows_.find(workflow_name);
  if (it == workflows_.end()) {
    return asbase::NotFound("no workflow named '" + workflow_name + "'");
  }
  return it->second.registration;
}

asbase::Result<AsVisor::WorkflowRegistration> AsVisor::GetRegistration(
    const std::string& workflow_name) const {
  AS_ASSIGN_OR_RETURN(auto registration, FindRegistration(workflow_name));
  return WorkflowRegistration{registration->spec, registration->options};
}

std::shared_ptr<WfdPool> AsVisor::MigrateOut(const std::string& workflow_name) {
  std::shared_ptr<WfdPool> old_pool;
  std::vector<Ticket> movers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      return nullptr;
    }
    old_pool = it->second.registration->pool;
    movers = TakeWaitersLocked(it->second);
    workflows_.erase(it);
    const int64_t now = asbase::MonoNanos();
    migrated_out_[workflow_name] = now;
    // Lazy prune: the map only grows by one entry per migration, so sweeping
    // it here keeps it bounded without a timer.
    for (auto tomb = migrated_out_.begin(); tomb != migrated_out_.end();) {
      if (now - tomb->second > kMigrationTombstoneNanos) {
        tomb = migrated_out_.erase(tomb);
      } else {
        ++tomb;
      }
    }
  }
  // Queued tickets unwind as *migrated*, carrying the wait paid here: the
  // router re-dispatches them to the new owner (queue handoff).
  for (const Ticket& ticket : movers) {
    Refuse(workflow_name, ticket,
           asbase::Unavailable("workflow '" + workflow_name +
                               "' migrated while queued"),
           /*migrated=*/true);
  }
  return old_pool;
}

void AsVisor::AdoptWarmWfds(const std::string& workflow_name,
                            std::vector<std::unique_ptr<Wfd>> wfds) {
  auto registration = FindRegistration(workflow_name);
  if (!registration.ok()) {
    // Raced with an unregister: the WFDs die here (vector destructor).
    return;
  }
  for (std::unique_ptr<Wfd>& wfd : wfds) {
    (*registration)->pool->AdoptWarm(std::move(wfd));
  }
}

AsVisor::ShardLoad AsVisor::LoadSnapshot() const {
  ShardLoad load;
  std::lock_guard<std::mutex> lock(mutex_);
  load.inflight = inflight_global_;
  load.max_inflight = serving_.max_inflight;
  load.workflows.reserve(workflows_.size());
  for (const auto& [name, entry] : workflows_) {
    WorkflowLoad row;
    row.name = name;
    row.inflight = entry.inflight;
    row.queued = entry.waiters.size();
    row.service_ewma_nanos = entry.service_ewma_nanos;
    row.pinned = entry.registration->options.pin_shard >= 0;
    load.queued += row.queued;
    load.workflows.push_back(std::move(row));
  }
  return load;
}

asbase::Status AsVisor::RegisterWorkflowFromJson(const asbase::Json& config) {
  AS_ASSIGN_OR_RETURN(WorkflowSpec spec, WorkflowSpec::FromJson(config));
  WorkflowOptions options;
  const asbase::Json& opts = config["options"];
  if (opts.is_object()) {
    options.wfd.use_ramfs = opts["ramfs"].as_bool(false);
    options.wfd.on_demand = !opts["load_all"].as_bool(false);
    options.wfd.reference_passing = opts["reference_passing"].as_bool(true);
    options.wfd.inter_function_isolation =
        opts["inter_function_isolation"].as_bool(false);
    if (opts["heap_mb"].is_number()) {
      options.wfd.heap_bytes =
          static_cast<size_t>(opts["heap_mb"].as_int()) << 20;
    }
    if (opts["disk_mb"].is_number()) {
      options.wfd.disk_blocks =
          static_cast<uint64_t>(opts["disk_mb"].as_int()) * 2048;
    }
    if (opts["pool_size"].is_number()) {
      options.pool_size = static_cast<size_t>(opts["pool_size"].as_int());
    }
    if (opts["min_warm"].is_number()) {
      const int64_t value = opts["min_warm"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("min_warm must be >= 0");
      }
      options.min_warm = static_cast<size_t>(value);
    }
    if (opts["idle_ttl_ms"].is_number()) {
      const int64_t value = opts["idle_ttl_ms"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("idle_ttl_ms must be >= 0");
      }
      options.idle_ttl_ms = value;
    }
    if (opts["queue_capacity"].is_number()) {
      const int64_t value = opts["queue_capacity"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("queue_capacity must be >= 0");
      }
      options.queue_capacity = static_cast<size_t>(value);
    }
    if (opts["queueing_budget_ms"].is_number()) {
      const int64_t value = opts["queueing_budget_ms"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("queueing_budget_ms must be >= 0");
      }
      options.queueing_budget_ms = value;
    }
    if (opts["max_concurrency"].is_number()) {
      const int64_t value = opts["max_concurrency"].as_int();
      if (value < 1) {
        return asbase::InvalidArgument("max_concurrency must be >= 1");
      }
      options.max_concurrency = static_cast<int>(value);
    }
    if (opts["timeout_ms"].is_number()) {
      const int64_t value = opts["timeout_ms"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("timeout_ms must be >= 0");
      }
      options.timeout_ms = value;
    }
    if (opts["weight"].is_number()) {
      const double value = opts["weight"].as_double();
      if (!(value > 0)) {
        return asbase::InvalidArgument("weight must be > 0");
      }
      options.weight = value;
    }
    if (opts["pin_shard"].is_number()) {
      const int64_t value = opts["pin_shard"].as_int();
      if (value < -1) {
        return asbase::InvalidArgument("pin_shard must be >= -1");
      }
      options.pin_shard = static_cast<int>(value);
    }
    if (opts["slo_objective"].is_number()) {
      const double value = opts["slo_objective"].as_double();
      if (value < 0 || value > 1) {
        return asbase::InvalidArgument("slo_objective must be in [0, 1]");
      }
      options.slo_objective = value;
    }
    if (opts["slo_latency_ms"].is_number()) {
      const int64_t value = opts["slo_latency_ms"].as_int();
      if (value < 0) {
        return asbase::InvalidArgument("slo_latency_ms must be >= 0");
      }
      options.slo_latency_ms = value;
    }
  }
  options.wfd.name = spec.name;
  RegisterWorkflow(spec, std::move(options));
  return asbase::OkStatus();
}

asbase::Result<InvokeResult> AsVisor::Invoke(const std::string& workflow_name,
                                             const asbase::Json& params) {
  return Invoke(workflow_name, params, InvokeOptions{});
}

struct AsVisor::Invocation {
  Invocation(const std::string& workflow_in,
             std::shared_ptr<const Registration> registration_in, int shard,
             int64_t queue_wait_nanos)
      : workflow(workflow_in),
        registration(std::move(registration_in)),
        received_at(asbase::MonoNanos()),
        trace(std::make_shared<asobs::Trace>(workflow)),
        root(trace->StartSpan("invoke", "visor")) {
    registration->invocations->Add(1);
    root.SetArg("workflow", workflow);
    if (queue_wait_nanos > 0) {
      // The admission wait happened before this trace existed; backfill it
      // as a completed span ending where the invoke span starts.
      trace->RecordSpan("queue_wait", "visor", root.id(),
                        received_at - queue_wait_nanos, queue_wait_nanos);
    }
    flight.shard = shard;
    flight.start_nanos = received_at;
    flight.queue_wait_nanos = queue_wait_nanos;
  }

  Invocation(const Invocation&) = delete;
  Invocation& operator=(const Invocation&) = delete;

  // A WFD still held here was never parked (failed run or reset, pooling
  // off): it dies first, then its lease ends.
  ~Invocation() {
    wfd.reset();
    if (lease_open) {
      registration->pool->AbandonLease();
    }
  }

  const std::string& workflow;
  const std::shared_ptr<const Registration> registration;
  const int64_t received_at;
  // Outlives the WFD (which holds a raw pointer to it) and may then be
  // retained on the flight record (tail-based, see Finish) for /trace.
  const std::shared_ptr<asobs::Trace> trace;
  asobs::Span root;
  // Stamped as phases complete and deposited on every exit path, failures
  // included: that is where a black box matters most.
  asobs::FlightRecord flight;
  InvokeResult result;
  // The WFD's module load time before this run (a warm WFD's earlier loads
  // are not this run's cold start).
  int64_t loads_before = 0;
  // Lease took a pool lease that no Park has ended yet.
  bool lease_open = false;
  std::unique_ptr<Wfd> wfd;
};

asbase::Result<std::unique_ptr<Wfd>> AsVisor::Boot(const BootRecipe& recipe,
                                                   asobs::Trace* trace,
                                                   uint32_t trace_parent,
                                                   bool* cloned) {
  WfdOptions options = recipe.wfd;
  options.trace = trace;
  options.trace_parent = trace_parent;
  auto span = [&](const char* name) {
    return trace != nullptr ? trace->StartSpan(name, "visor", trace_parent)
                            : asobs::Span();
  };
  std::unique_ptr<Wfd> wfd;
  if (std::shared_ptr<const WfdSnapshot> snap =
          recipe.snapshot != nullptr ? recipe.snapshot->Get() : nullptr) {
    asobs::Span clone_span = span("wfd_clone");
    auto clone_or = Wfd::CloneFromSnapshot(options, std::move(snap));
    clone_span.End();
    if (clone_or.ok()) {
      wfd = std::move(*clone_or);
      recipe.clones->Add(1);
      recipe.clone_hist->Record(wfd->creation_nanos());
    } else {
      AS_LOG(kWarn) << "snapshot clone-boot failed ("
                    << clone_or.status().ToString()
                    << "); falling back to full boot";
    }
  }
  if (cloned != nullptr) {
    *cloned = wfd != nullptr;
  }
  if (wfd == nullptr) {
    asobs::Span create_span = span("wfd_create");
    AS_ASSIGN_OR_RETURN(wfd, Wfd::Create(std::move(options)));
    create_span.End();
    recipe.fallbacks->Add(1);
  }
  // Sized here, not by the first run, so a pre-warmed WFD's first
  // invocation spawns nothing. Same counter as the orchestrator's growth.
  static asobs::Counter& spawns =
      asobs::Registry::Global().GetCounter("alloy_orch_thread_spawns_total");
  spawns.Add(wfd->EnsureStageWorkers(recipe.stage_workers));
  return wfd;
}

asbase::Result<InvokeResult> AsVisor::Invoke(
    const std::string& workflow_name, const asbase::Json& params,
    const InvokeOptions& invoke_options) {
  AS_ASSIGN_OR_RETURN(auto registration, FindRegistration(workflow_name));
  // Everything logged while this invocation runs on this thread carries its
  // shard + workflow.
  asbase::ScopedLogContext log_context(shard_.index, workflow_name);
  Invocation call(workflow_name, std::move(registration), shard_.index,
                  invoke_options.queue_wait_nanos);
  asbase::Status status = Lease(call);
  if (status.ok()) {
    status = Run(call, params);
  }
  if (!status.ok()) {
    return Fail(call, std::move(status));
  }
  Reclaim(call);
  // A fast success is usually NOT retained (threshold > 0); the trace still
  // rides along in the result for the caller.
  InvokeResult& result = call.result;
  result.trace = call.trace;
  result.end_to_end_nanos = Finish(call, asobs::FlightOutcome::kOk);
  call.registration->invoke_hist->Record(result.end_to_end_nanos);
  return std::move(result);
}

asbase::Status AsVisor::Lease(Invocation& call) {
  // Fig 4 step 1: a warm WFD from the pool, else one booted for this
  // invocation. A warm hit skips cold start entirely; module loads are
  // accounted as a delta so only *new* loads count against this run.
  const int64_t lease_start = asbase::MonoNanos();
  WfdPool& pool = *call.registration->pool;
  call.wfd = pool.TryAcquireWarm();
  // The lease counts toward the pool's warm target until Park (Reclaim) or
  // AbandonLease (~Invocation) ends it.
  call.lease_open = true;
  asbase::Status status;
  if (call.wfd != nullptr) {
    call.wfd->SetTrace(call.trace.get(), call.root.id());
    call.loads_before = call.wfd->libos().TotalLoadNanos();
    call.result.warm_start = true;
    call.flight.start = asobs::FlightStart::kHit;
  } else {
    bool cloned = false;
    auto wfd_or = Boot(*call.registration->boot, call.trace.get(),
                       call.root.id(), &cloned);
    if (wfd_or.ok()) {
      call.wfd = std::move(*wfd_or);
      call.result.wfd_create_nanos = call.wfd->creation_nanos();
      call.result.clone_start = cloned;
      call.flight.start =
          cloned ? asobs::FlightStart::kClone : asobs::FlightStart::kFull;
    } else {
      status = wfd_or.status();
    }
  }
  call.flight.lease_nanos = asbase::MonoNanos() - lease_start;
  if (status.ok()) {
    pool.RecordLease(call.flight.lease_nanos);
  }
  return status;
}

asbase::Status AsVisor::Run(Invocation& call, const asbase::Json& params) {
  // Fig 4 steps 2-6: run the workflow; modules load on demand inside. The
  // deadline is enforced cooperatively at stage barriers.
  const Registration& registration = *call.registration;
  Orchestrator::RunOptions run_options;
  if (registration.options.timeout_ms > 0) {
    run_options.deadline_nanos =
        call.received_at + registration.options.timeout_ms * 1'000'000;
  }
  Orchestrator orchestrator(call.wfd.get());
  const int64_t exec_start = asbase::MonoNanos();
  auto run_or = orchestrator.Run(registration.spec, params, run_options);
  call.flight.exec_nanos = asbase::MonoNanos() - exec_start;
  Libos& libos = call.wfd->libos();
  const int64_t module_load_nanos = libos.TotalLoadNanos() - call.loads_before;
  call.flight.module_load_nanos = module_load_nanos;
  if (!run_or.ok()) {
    // A failed (or timed-out) run leaves the WFD in an unknown state: it is
    // destroyed with the Invocation, never re-pooled, so the next
    // invocation starts clean.
    return run_or.status();
  }
  InvokeResult& result = call.result;
  result.run = std::move(*run_or);
  call.flight.net_nanos = result.run.phases.transfer_nanos;
  call.flight.stages = static_cast<uint32_t>(std::min(
      result.run.stage_nanos.size(), asobs::FlightRecord::kMaxStages));
  for (uint32_t i = 0; i < call.flight.stages; ++i) {
    call.flight.stage_nanos[i] = result.run.stage_nanos[i];
  }
  result.module_load_nanos = module_load_nanos;
  result.cold_start_nanos = result.wfd_create_nanos + module_load_nanos;
  result.modules_loaded = libos.LoadedModules();
  result.resident_bytes = call.wfd->ResidentBytes();

  // A run that paid for a module its geometry's template lacks (the first
  // full boot, or a clone that loaded more on demand) grows the template.
  // One atomic load otherwise.
  const std::shared_ptr<SnapshotStore::Slot>& slot =
      registration.boot->snapshot;
  if (slot != nullptr && slot->Offer(*call.wfd)) {
    registration.snapshot_creates->Add(1);
  }
  return asbase::OkStatus();
}

void AsVisor::Reclaim(Invocation& call) {
  // Fig 4 step 7: return the WFD to the pool (reset + park) or destroy it.
  // Runs before the root span closes, so end_to_end_nanos covers it and no
  // code touches the trace through the WFD's pointer afterwards.
  const int64_t reset_start = asbase::MonoNanos();
  WfdPool& pool = *call.registration->pool;
  if (pool.capacity() > 0) {
    asobs::Span reset_span =
        call.trace->StartSpan("pool_reset", "visor", call.root.id());
    asbase::Status reset = call.wfd->Reset();
    reset_span.End();
    if (reset.ok()) {
      call.wfd->SetTrace(nullptr, 0);
      pool.Park(std::move(call.wfd));
      call.lease_open = false;
    } else {
      AS_LOG(kWarn) << "WFD reset for '" << call.workflow << "' failed ("
                    << reset.ToString() << "); destroying";
      // A WFD that cannot reset throws doubt on the template its modules
      // came from: drop it so the next miss boots from scratch.
      const std::shared_ptr<SnapshotStore::Slot>& slot =
          call.registration->boot->snapshot;
      if (slot != nullptr && slot->Invalidate()) {
        call.registration->snapshot_invalidations->Add(1);
      }
    }
  }
  call.wfd.reset();
  call.flight.reset_nanos = asbase::MonoNanos() - reset_start;
}

asbase::Status AsVisor::Fail(Invocation& call, asbase::Status status) {
  call.registration->failures->Add(1);
  asobs::FlightOutcome outcome = asobs::FlightOutcome::kError;
  if (status.code() == asbase::ErrorCode::kDeadlineExceeded) {
    call.registration->timeouts->Add(1);
    outcome = asobs::FlightOutcome::kTimeout;
  }
  call.root.SetArg("outcome", asobs::FlightOutcomeName(outcome));
  Finish(call, outcome);
  return status;
}

int64_t AsVisor::Finish(Invocation& call, asobs::FlightOutcome outcome) {
  // Closed first, so a retained trace is complete.
  call.root.End();
  call.flight.outcome = outcome;
  call.flight.end_nanos = asbase::MonoNanos();
  call.flight.total_nanos = call.flight.end_nanos - call.received_at;
  // Tail-based trace retention: the span tree rides on the flight record
  // only for failures, timeouts and runs over the threshold (0: all runs),
  // and without its growth slack.
  std::shared_ptr<const asobs::Trace> retained;
  const int64_t threshold_ms = trace_threshold_ms_.load();
  if (flight_->enabled() &&
      (outcome != asobs::FlightOutcome::kOk || threshold_ms == 0 ||
       call.flight.total_nanos > threshold_ms * 1'000'000)) {
    call.trace->ShrinkToFit();
    retained = call.trace;
  }
  EmitFlight(call.registration->flight_id, call.flight, std::move(retained));
  AccountOutcome(call.workflow, outcome, call.flight.total_nanos);
  return call.flight.total_nanos;
}

asbase::Result<InvokeResult> AsVisor::InvokeFromConfig(
    const std::string& config_json, const asbase::Json& params) {
  AS_ASSIGN_OR_RETURN(asbase::Json config, asbase::Json::Parse(config_json));
  AS_RETURN_IF_ERROR(RegisterWorkflowFromJson(config));
  return Invoke(config["name"].as_string(), params);
}

// ------------------------------- flight recorder / tail retention / SLO

void AsVisor::EmitFlight(uint32_t workflow_id,
                         const asobs::FlightRecord& record,
                         std::shared_ptr<const asobs::Trace> trace) {
  if (!flight_->enabled()) {
    return;
  }
  const bool retaining = trace != nullptr;
  if (flight_->Record(workflow_id, record, std::move(trace)) == 0) {
    flight_dropped_->Add(1);
  } else {
    flight_records_->Add(1);
    traces_retained_->Add(retaining ? 1 : 0);
  }
}

void AsVisor::AccountOutcome(const std::string& workflow_name,
                             asobs::FlightOutcome outcome,
                             int64_t total_nanos) {
  const int64_t now = asbase::MonoNanos();
  std::optional<BlackBoxRequest> blackbox;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(workflow_name);
    if (it == workflows_.end()) {
      return;  // unregistered while the invocation ran
    }
    Entry& entry = it->second;
    const Registration& registration = *entry.registration;

    if (outcome == asobs::FlightOutcome::kOk) {
      // Service time feeding the admission predictor: Invoke wall time only
      // (the queue wait is the quantity being predicted, not service).
      const double sample = static_cast<double>(total_nanos);
      entry.service_ewma_nanos =
          entry.service_ewma_nanos == 0
              ? sample
              : kServiceAlpha * sample +
                    (1.0 - kServiceAlpha) * entry.service_ewma_nanos;
    }

    // SLO accounting + burn gauges; on a trigger, collect the queue/pool
    // snapshot under the lock and write the black box after it drops.
    if (registration.slo != nullptr) {
      const int64_t latency_ms =
          registration.slo->options().latency_objective_ms;
      const bool good =
          outcome == asobs::FlightOutcome::kOk &&
          (latency_ms == 0 || total_nanos <= latency_ms * 1'000'000);
      const bool timeout = outcome == asobs::FlightOutcome::kTimeout;
      const asobs::SloTracker::Verdict verdict =
          registration.slo->Record(good, timeout, now);
      registration.burn_fast->Set(BurnMilli(verdict.fast_burn));
      registration.burn_slow->Set(BurnMilli(verdict.slow_burn));
      if (verdict.trigger) {
        BlackBoxRequest request;
        request.reason = verdict.reason;
        request.workflow = workflow_name;
        request.fast_burn = verdict.fast_burn;
        request.slow_burn = verdict.slow_burn;
        asbase::Json queues{asbase::JsonArray{}};
        for (const auto& [name, other] : workflows_) {
          asbase::Json row;
          row.Set("workflow", name);
          row.Set("inflight", static_cast<int64_t>(other.inflight));
          row.Set("queued", static_cast<int64_t>(other.waiters.size()));
          row.Set("service_ewma_nanos",
                  static_cast<int64_t>(other.service_ewma_nanos));
          // Lock order: mutex_ then the pool mutex — the pool never calls
          // back into the visor.
          const WfdPool& pool = *other.registration->pool;
          row.Set("warm_wfds", static_cast<int64_t>(pool.warm_count()));
          row.Set("pool_target_warm",
                  static_cast<int64_t>(pool.target_warm()));
          queues.Append(std::move(row));
        }
        request.queues = std::move(queues);
        blackbox = std::move(request);
      }
    }
  }
  if (blackbox.has_value()) {
    WriteBlackBox(*blackbox);
  }
}

void AsVisor::WriteBlackBox(const BlackBoxRequest& request) {
  const uint64_t seq = blackbox_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      blackbox_dir_ + "/blackbox_shard" +
      std::to_string(std::max(shard_.index, 0)) + "_" +
      std::to_string(asbase::WallMicros()) + "_" + std::to_string(seq) +
      ".json";
  asbase::Json doc;
  doc.Set("reason", request.reason);
  doc.Set("workflow", request.workflow);
  doc.Set("shard", static_cast<int64_t>(shard_.index));
  doc.Set("wall_micros", asbase::WallMicros());
  doc.Set("fast_burn_milli", BurnMilli(request.fast_burn));
  doc.Set("slow_burn_milli", BurnMilli(request.slow_burn));
  doc.Set("queues", request.queues);
  doc.Set("flight", asobs::FlightReportJson(flight_->Snapshot()));
  // Recent control-plane actions: a reslice or migration just before the
  // trigger is usually the first thing the investigation needs to see.
  doc.Set("rebalance_events", asobs::RebalanceLog::Global().ToJson());
  std::ofstream out(path);
  if (!out) {
    AS_LOG(kWarn) << "black box write failed: cannot open " << path;
    return;
  }
  out << doc.Dump(2) << "\n";
  out.close();
  blackbox_counter_->Add(1);
  AS_LOG(kWarn) << "SLO trigger (" << request.reason << ") for '"
                << request.workflow << "': black box written to " << path;
}

// ------------------------------------------------------ admission control

void AsVisor::ReleaseAdmission(const std::string& workflow_name) {
  std::vector<Grant> grants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_global_ > 0) {
      --inflight_global_;
    }
    auto it = workflows_.find(workflow_name);
    if (it != workflows_.end() && it->second.inflight > 0) {
      --it->second.inflight;
    }
    // The freed slot goes to the next ticket in line — this workflow's
    // queue head or a co-tenant's, by deficit round robin.
    GrantQueuedLocked(&grants);
  }
  inflight_gauge_->Add(-1);
  DispatchGrants(std::move(grants));
}

int64_t AsVisor::PredictedWaitNanosLocked(const Entry& entry) const {
  if (entry.service_ewma_nanos <= 0) {
    return 0;  // no sample yet — optimistically admit
  }
  // A new arrival runs after everyone already queued; with max_concurrency
  // servers draining the queue, expected wait ≈ position × service / c.
  const double position = static_cast<double>(entry.waiters.size()) + 1.0;
  const double concurrency = static_cast<double>(
      std::max(entry.registration->options.max_concurrency, 1));
  return static_cast<int64_t>(position * entry.service_ewma_nanos /
                              concurrency);
}

bool AsVisor::HasRunnableHead(const Entry& entry) {
  return !entry.waiters.empty() &&
         entry.inflight < entry.registration->options.max_concurrency;
}

double AsVisor::MinDrrRoundsLocked() const {
  double min_rounds = -1;
  for (const auto& [name, entry] : workflows_) {
    if (!HasRunnableHead(entry)) {
      continue;
    }
    const double rounds =
        entry.deficit >= 1.0
            ? 0.0
            : std::ceil((1.0 - entry.deficit) /
                        entry.registration->options.weight);
    if (min_rounds < 0 || rounds < min_rounds) {
      min_rounds = rounds;
    }
  }
  return min_rounds;
}

std::string AsVisor::NextWeightedWorkflowLocked() const {
  const double min_rounds = MinDrrRoundsLocked();
  if (min_rounds < 0) {
    return "";  // nobody eligible is queued
  }
  // After advancing everyone by min_rounds, the highest deficit wins; ties
  // go to the smallest name (map order + strict >).
  std::string winner;
  double best = 0;
  for (const auto& [name, entry] : workflows_) {
    if (!HasRunnableHead(entry)) {
      continue;
    }
    const double credited =
        entry.deficit + min_rounds * entry.registration->options.weight;
    if (credited >= 1.0 - 1e-9 && (winner.empty() || credited > best)) {
      winner = name;
      best = credited;
    }
  }
  return winner;
}

void AsVisor::ChargeGrantLocked(const std::string& winner) {
  const double min_rounds = MinDrrRoundsLocked();
  if (min_rounds < 0) {
    return;
  }
  for (auto& [name, entry] : workflows_) {
    if (!HasRunnableHead(entry)) {
      continue;
    }
    const double weight = entry.registration->options.weight;
    // Cap banked credit so a long-uncontested workflow cannot starve
    // everyone for many grants once contention returns.
    entry.deficit = std::min(entry.deficit + min_rounds * weight,
                             std::max(1.0, weight) + weight);
  }
  auto it = workflows_.find(winner);
  if (it != workflows_.end()) {
    it->second.deficit -= 1.0;
  }
}

bool AsVisor::MigratedAwayLocked(const std::string& workflow_name) const {
  auto tomb = migrated_out_.find(workflow_name);
  return tomb != migrated_out_.end() &&
         asbase::MonoNanos() - tomb->second <= kMigrationTombstoneNanos;
}

AsVisor::Admission AsVisor::Admit(const std::string& workflow_name,
                                  int64_t budget_ms_override, Ticket& ticket) {
  Admission admission;
  auto reject = [&](asbase::Status status) {
    admission.outcome = AdmitOutcome::kRejected;
    admission.status = std::move(status);
    return admission;
  };
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = workflows_.find(workflow_name);
  if (it == workflows_.end()) {
    if (MigratedAwayLocked(workflow_name)) {
      // Raced the route flip: the workflow lives on another shard now.
      admission.migrated = true;
      return reject(asbase::Unavailable("workflow '" + workflow_name +
                                        "' migrated to another shard"));
    }
    return reject(
        asbase::NotFound("no workflow named '" + workflow_name + "'"));
  }
  Entry& entry = it->second;
  const WorkflowOptions& options = entry.registration->options;
  const bool slot_free = entry.inflight < options.max_concurrency &&
                         inflight_global_ < serving_.max_inflight;
  // Fast path: admit only when no other workflow has a runnable waiter —
  // a fresh arrival must not leapfrog a co-tenant already queued for a
  // global slot.
  if (slot_free && entry.waiters.empty() &&
      NextWeightedWorkflowLocked().empty()) {
    ++inflight_global_;
    ++entry.inflight;
    inflight_gauge_->Add(1);
    return admission;
  }
  // Saturated. Queue only if allowed, not full, and the predicted wait
  // fits the budget; otherwise reject and report the prediction so the
  // caller can compute Retry-After.
  admission.predicted_wait_nanos = PredictedWaitNanosLocked(entry);
  if (options.queue_capacity == 0) {
    return reject(asbase::ResourceExhausted(
        "workflow '" + workflow_name + "' at max_concurrency (" +
        std::to_string(options.max_concurrency) + ")"));
  }
  if (entry.waiters.size() >= options.queue_capacity) {
    return reject(asbase::ResourceExhausted(
        "workflow '" + workflow_name + "' admission queue full (" +
        std::to_string(options.queue_capacity) + ")"));
  }
  // Clamped, so the nanosecond product cannot overflow.
  const int64_t budget_ms = std::min(
      budget_ms_override >= 0 ? budget_ms_override : options.queueing_budget_ms,
      kMaxQueueBudgetMs);
  if (admission.predicted_wait_nanos > budget_ms * 1'000'000) {
    return reject(asbase::ResourceExhausted(
        "predicted queue wait " +
        std::to_string(admission.predicted_wait_nanos / 1'000'000) +
        "ms exceeds budget " + std::to_string(budget_ms) + "ms for '" +
        workflow_name + "'"));
  }
  if (draining_) {
    return reject(asbase::Unavailable("watchdog draining"));
  }
  // A free slot would have admitted above (after every release the queues
  // hold no runnable head while a global slot is free), so the ticket
  // waits for ReleaseAdmission or SetMaxInflight to grant it.
  ticket.enqueued_at = asbase::MonoNanos();
  entry.waiters.push_back(std::move(ticket));
  entry.registration->queued_gauge->Add(1);
  admission.outcome = AdmitOutcome::kQueued;
  return admission;
}

void AsVisor::GrantQueuedLocked(std::vector<Grant>* grants) {
  const int64_t now = asbase::MonoNanos();
  while (inflight_global_ < serving_.max_inflight) {
    const std::string winner = NextWeightedWorkflowLocked();
    if (winner.empty()) {
      return;
    }
    // DRR bookkeeping happens while the winner's ticket is still queued so
    // the eligible set matches what the selector saw.
    ChargeGrantLocked(winner);
    Entry& entry = workflows_.find(winner)->second;
    Grant grant{winner, std::move(entry.waiters.front()), 0};
    entry.waiters.pop_front();
    if (entry.waiters.empty()) {
      // Credit is only meaningful under contention; a drained queue starts
      // from scratch next time.
      entry.deficit = 0;
    }
    entry.registration->queued_gauge->Add(-1);
    grant.queue_wait_nanos = now - grant.ticket.enqueued_at;
    entry.registration->queue_wait_hist->Record(grant.queue_wait_nanos);
    ++inflight_global_;
    ++entry.inflight;
    inflight_gauge_->Add(1);
    grants->push_back(std::move(grant));
  }
}

void AsVisor::DispatchGrants(std::vector<Grant> grants) {
  for (Grant& grant : grants) {
    RunGranted(std::move(grant.workflow), std::move(grant.ticket),
               grant.queue_wait_nanos);
  }
}

std::vector<AsVisor::Ticket> AsVisor::TakeWaitersLocked(Entry& entry) {
  std::vector<Ticket> taken(std::make_move_iterator(entry.waiters.begin()),
                            std::make_move_iterator(entry.waiters.end()));
  entry.waiters.clear();
  entry.deficit = 0;
  entry.registration->queued_gauge->Add(-static_cast<int64_t>(taken.size()));
  return taken;
}

// --------------------------------------------------------------- watchdog

asbase::Status AsVisor::StartServing(const ServingOptions& serving) {
  if (serving.worker_threads == 0 || serving.max_inflight == 0) {
    return asbase::InvalidArgument(
        "worker_threads and max_inflight must be >= 1");
  }
  if (serving_pool_ != nullptr) {
    return asbase::FailedPrecondition("serving already started");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serving_ = serving;
    draining_ = false;
  }
  // -1 keeps the current setting (env override or the default).
  if (serving.trace_threshold_ms >= 0) {
    trace_threshold_ms_ = serving.trace_threshold_ms;
  }
  serving_pool_ = std::make_unique<asbase::ThreadPool>(serving.worker_threads);
  return asbase::OkStatus();
}

void AsVisor::BeginDrain() {
  std::vector<std::pair<std::string, Ticket>> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    for (auto& [name, entry] : workflows_) {
      for (Ticket& ticket : TakeWaitersLocked(entry)) {
        drained.emplace_back(name, std::move(ticket));
      }
    }
  }
  for (const auto& [name, ticket] : drained) {
    Refuse(name, ticket, asbase::Unavailable("watchdog draining"));
  }
}

void AsVisor::StopServing() {
  BeginDrain();
  if (serving_pool_ != nullptr) {
    serving_pool_->Drain();
    serving_pool_.reset();
  }
}

void AsVisor::ShutdownPools() {
  // Collect under the lock, shut down outside it (Shutdown waits out a
  // warmer tick in flight). Map order makes the teardown sequence
  // deterministic.
  std::vector<std::shared_ptr<WfdPool>> pools;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, entry] : workflows_) {
      pools.push_back(entry.registration->pool);
    }
  }
  for (const auto& pool : pools) {
    pool->Shutdown();
  }
}

void AsVisor::SetMaxInflight(size_t max_inflight) {
  std::vector<Grant> grants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serving_.max_inflight = std::max<size_t>(1, max_inflight);
    // A raised cap may make queued tickets runnable immediately.
    GrantQueuedLocked(&grants);
  }
  DispatchGrants(std::move(grants));
}

size_t AsVisor::max_inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serving_.max_inflight;
}

bool AsVisor::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::vector<std::string> AsVisor::WorkflowNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(workflows_.size());
  for (const auto& [name, entry] : workflows_) {
    names.push_back(name);
  }
  return names;
}

asbase::Status AsVisor::StartWatchdog(uint16_t port) {
  return StartWatchdog(port, ServingOptions{});
}

asbase::Status AsVisor::StartWatchdog(uint16_t port, ServingOptions serving) {
  if (watchdog_ != nullptr) {
    return asbase::FailedPrecondition("watchdog already running");
  }
  AS_RETURN_IF_ERROR(StartServing(serving));
  watchdog_ = std::make_unique<ashttp::HttpServer>(
      [this](ashttp::HttpRequest request, ashttp::HttpResponder respond) {
        if (request.method == "POST" &&
            request.target.rfind("/invoke/", 0) == 0) {
          HandleInvoke(
              std::make_shared<const ashttp::HttpRequest>(std::move(request)),
              std::move(respond));
          return;
        }
        if (request.method == "GET" &&
            (request.target == "/health" || request.target == "/healthz")) {
          respond(ServeHealthz());
          return;
        }
        if (request.method == "GET" && request.target == "/readyz") {
          respond(ServeReadyz());
          return;
        }
        if (request.method == "GET") {
          // Rendering endpoints run on a serving worker, not the reactor.
          Offload([this, target = std::move(request.target), respond] {
            if (target == "/metrics") {
              respond(ServeMetrics());
            } else if (target.rfind("/trace", 0) == 0) {
              respond(ServeTrace(target));
            } else if (target.rfind("/debug/flight", 0) == 0) {
              respond(ServeFlight(target));
            } else if (target.rfind("/debug/latency", 0) == 0) {
              respond(ServeLatency(target));
            } else {
              respond(NotFoundResponse());
            }
          });
          return;
        }
        respond(NotFoundResponse());
      });
  asbase::Status started = watchdog_->Start(port);
  if (!started.ok()) {
    watchdog_.reset();
    StopServing();
  }
  return started;
}

void AsVisor::Offload(std::function<void()> task) {
  if (serving_pool_ == nullptr) {
    task();
    return;
  }
  serving_pool_->Submit(std::move(task));
}

void AsVisor::HandleInvoke(RequestPtr request, ashttp::HttpResponder respond,
                           int64_t carried_queue_wait_nanos) {
  if (serving_pool_ == nullptr) {
    respond(ErrorResponse(503, "Service Unavailable", "serving not started"));
    return;
  }
  const std::string name =
      request->target.substr(std::string("/invoke/").size());
  // Admission decisions (429 lines, drain warnings) carry the shard +
  // workflow; the invocation itself re-establishes the context on its
  // serving-pool worker thread.
  asbase::ScopedLogContext log_context(shard_.index, name);
  int64_t budget_ms_override = -1;
  auto budget_header = request->headers.find("x-queue-budget-ms");
  if (budget_header != request->headers.end()) {
    const std::optional<int64_t> budget =
        ParseQueueBudgetMs(budget_header->second);
    if (!budget.has_value()) {
      respond(ErrorResponse(
          400, "Bad Request",
          "x-queue-budget-ms must be a decimal number of milliseconds"));
      return;
    }
    budget_ms_override = *budget;
  }

  // Admission control: grant, queue (when the workflow allows it and the
  // predicted wait fits this request's budget), or refuse — at once.
  Ticket ticket{std::move(request), std::move(respond), 0,
                carried_queue_wait_nanos};
  const Admission admission = Admit(name, budget_ms_override, ticket);
  switch (admission.outcome) {
    case AdmitOutcome::kGranted:
      RunGranted(name, std::move(ticket), 0);
      return;
    case AdmitOutcome::kQueued:
      return;  // the ticket owns the request now; a release grants it
    case AdmitOutcome::kRejected:
      Refuse(name, ticket, admission.status, admission.migrated,
             admission.predicted_wait_nanos);
      return;
  }
}

void AsVisor::RunGranted(std::string workflow_name, Ticket ticket,
                         int64_t queue_wait_nanos) {
  const int64_t total_queue_wait_nanos =
      ticket.carried_wait_nanos + queue_wait_nanos;
  serving_pool_->Submit([this, name = std::move(workflow_name),
                         ticket = std::move(ticket),
                         total_queue_wait_nanos] {
    // Parsed here, not on the reactor: a 128 KiB body costs the reactor
    // nothing, and a bad one still frees its slot.
    asbase::Json params;
    if (!ticket.request->body.empty()) {
      auto parsed = asbase::Json::Parse(ticket.request->body);
      if (!parsed.ok()) {
        ReleaseAdmission(name);
        ticket.respond(
            ErrorResponse(400, "Bad Request", parsed.status().ToString()));
        return;
      }
      params = std::move(*parsed);
    }
    InvokeOptions invoke_options;
    invoke_options.queue_wait_nanos = total_queue_wait_nanos;
    const asbase::Result<InvokeResult> invoked =
        Invoke(name, params, invoke_options);
    ReleaseAdmission(name);
    ticket.respond(InvokeResponse(name, invoked));
  });
}

void AsVisor::Refuse(const std::string& workflow_name, const Ticket& ticket,
                     const asbase::Status& status, bool migrated,
                     int64_t predicted_wait_nanos) {
  if (migrated) {
    // The workflow moved shards (possibly while this request sat in the
    // admission queue). 307 + marker headers: the router re-dispatches to
    // the new owner, carrying the wait already paid; a direct client
    // retries the same URL and the route lands it correctly.
    const int64_t waited =
        ticket.enqueued_at > 0 ? asbase::MonoNanos() - ticket.enqueued_at : 0;
    ashttp::HttpResponse response =
        ErrorResponse(307, "Temporary Redirect", status.ToString());
    response.headers["location"] = ticket.request->target;
    response.headers["x-alloy-migrated"] = "1";
    response.headers["x-alloy-queue-wait-ns"] =
        std::to_string(ticket.carried_wait_nanos + waited);
    ticket.respond(std::move(response));
    return;
  }
  if (status.code() == asbase::ErrorCode::kNotFound) {
    ticket.respond(ErrorResponse(404, "Not Found", status.ToString()));
    return;
  }
  if (status.code() == asbase::ErrorCode::kUnavailable) {
    ticket.respond(
        ErrorResponse(503, "Service Unavailable", status.ToString()));
    return;
  }
  int retry_after_fallback = 1;
  uint32_t flight_id = 0;
  asobs::Counter* rejections = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retry_after_fallback = serving_.retry_after_seconds;
    auto it = workflows_.find(workflow_name);
    if (it != workflows_.end()) {
      flight_id = it->second.registration->flight_id;
      rejections = it->second.registration->rejections;
    }
  }
  if (rejections != nullptr) {
    rejections->Add(1);
  } else {
    asobs::Registry::Global()
        .GetCounter("alloy_visor_rejections_total",
                    WorkflowLabels(workflow_name))
        .Add(1);
  }
  // Rejections leave a flight record too — a 429 storm is exactly the
  // kind of incident the black box must explain. queue_wait carries the
  // predicted wait that drove the rejection.
  asobs::FlightRecord rejected;
  rejected.shard = shard_.index;
  rejected.outcome = asobs::FlightOutcome::kRejected;
  rejected.start_nanos = asbase::MonoNanos();
  rejected.end_nanos = rejected.start_nanos;
  rejected.queue_wait_nanos = predicted_wait_nanos;
  EmitFlight(flight_id, rejected);
  AccountOutcome(workflow_name, asobs::FlightOutcome::kRejected, 0);
  // Tell the client when a retry is predicted to succeed; fall back to
  // the static knob before any service-time sample exists.
  const int retry_after =
      predicted_wait_nanos > 0
          ? std::max<int>(
                1, static_cast<int>(std::ceil(
                       static_cast<double>(predicted_wait_nanos) / 1e9)))
          : retry_after_fallback;
  ashttp::HttpResponse response =
      ErrorResponse(429, "Too Many Requests", status.ToString());
  response.headers["retry-after"] = std::to_string(retry_after);
  ticket.respond(std::move(response));
}

ashttp::HttpResponse AsVisor::ServeMetrics() const {
  ashttp::HttpResponse response;
  response.headers["content-type"] = "text/plain; version=0.0.4";
  response.body = asobs::Registry::Global().RenderPrometheus();
  return response;
}

ashttp::HttpResponse AsVisor::ServeTrace(const std::string& target) const {
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  if (workflow.empty()) {
    std::string names;
    for (const std::string& name : WorkflowNames()) {
      names += names.empty() ? name : ", " + name;
    }
    return ErrorResponse(400, "Bad Request",
                         "usage: /trace?workflow=<name>; registered: " + names);
  }
  if (!FindRegistration(workflow).ok()) {
    return ErrorResponse(404, "Not Found",
                         "no workflow named '" + workflow + "'");
  }
  // One Chrome "process" per retained invocation, oldest first; its pid is
  // the invocation's flight record id, as /debug/flight shows it.
  asbase::Json events{asbase::JsonArray{}};
  for (const auto& [id, trace] : flight_->Traces(workflow)) {
    trace->AppendChromeEvents(events.array(), static_cast<int64_t>(id));
  }
  asbase::Json doc;
  doc.Set("displayTimeUnit", "ms");
  doc.Set("traceEvents", std::move(events));
  ashttp::HttpResponse response;
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

ashttp::HttpResponse AsVisor::ServeFlight(const std::string& target) const {
  ashttp::HttpResponse response;
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  const std::string since = ashttp::QueryParam(target, "since");
  const int64_t since_nanos = since.empty() ? 0 : std::atoll(since.c_str());
  asbase::Json doc =
      asobs::FlightReportJson(flight_->Snapshot(workflow, since_nanos));
  if (!workflow.empty()) {
    doc.Set("workflow", workflow);
  }
  doc.Set("recorded", static_cast<int64_t>(flight_->recorded()));
  doc.Set("dropped", static_cast<int64_t>(flight_->dropped()));
  doc.Set("capacity", static_cast<int64_t>(flight_->capacity()));
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

ashttp::HttpResponse AsVisor::ServeLatency(const std::string& target) const {
  ashttp::HttpResponse response;
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  asbase::Json doc =
      asobs::LatencyAttributionJson(flight_->Snapshot(workflow));
  if (!workflow.empty()) {
    doc.Set("workflow", workflow);
  }
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

ashttp::HttpResponse AsVisor::ServeHealthz() const {
  ashttp::HttpResponse response;
  response.body = "ok";
  return response;
}

ashttp::HttpResponse AsVisor::ServeReadyz() const {
  ashttp::HttpResponse response;
  if (draining()) {
    response.status = 503;
    response.reason = "Service Unavailable";
    response.body = "draining";
    return response;
  }
  response.body = "ready";
  return response;
}

uint16_t AsVisor::watchdog_port() const {
  return watchdog_ == nullptr ? 0 : watchdog_->port();
}

void AsVisor::StopWatchdog() {
  // Answer queued tickets 503 first, so the server's settle sees them out.
  BeginDrain();
  if (watchdog_ != nullptr) {
    // Stop the server before the pool: in-flight invocations still owe
    // their responses, and need the serving pool alive to finish.
    watchdog_->Stop();
    watchdog_.reset();
  }
  StopServing();
}

asbase::Result<asbase::Histogram> AsVisor::LatencyHistogram(
    const std::string& workflow_name) const {
  AS_ASSIGN_OR_RETURN(auto registration, FindRegistration(workflow_name));
  return registration->invoke_hist->Snapshot();
}

asbase::Result<size_t> AsVisor::WarmWfdCount(
    const std::string& workflow_name) const {
  AS_ASSIGN_OR_RETURN(auto registration, FindRegistration(workflow_name));
  return registration->pool->warm_count();
}

}  // namespace alloy
