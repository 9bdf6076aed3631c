#include "src/core/visor/visor_router.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/rebalance.h"

namespace alloy {
namespace {

constexpr size_t kVnodesPerShard = 64;
constexpr size_t kMaxShards = 64;

// A request follows at most this many internal migration redirects before
// the 307 goes back to the client. Two covers the normal case (one
// migration while queued, maybe one more racing the retry); anything past
// that means the rebalancer is thrashing and the client's retry is the
// better backstop.
constexpr int kMaxMigrationHops = 4;

// FNV-1a 64-bit with a murmur-style finalizer. Deterministic across builds
// and platforms, unlike std::hash — shard placement must be stable so a
// workflow's warm pool is found again after a process restart with the same
// shard count. The finalizer matters: raw FNV-1a barely diffuses trailing
// bytes into the high bits, so short keys differing only in their suffix
// ("shard-3#17", "wf-42") cluster on the ring and one vnode ends up owning
// nearly every key.
uint64_t Fnv1a(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

size_t ResolveShardCount(size_t requested) {
  size_t shards = requested;
  if (shards == 0) {
    shards = static_cast<size_t>(asbase::EnvInt64("ALLOY_VISOR_SHARDS", 0));
  }
  if (shards == 0) {
    shards = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(shards, kMaxShards);
}

// Shard i's core slice: cores {j : j mod N == i}. Empty (no affinity) when
// the machine has fewer cores than shards — a 2-core box running 8 shards
// should time-share, not fight over a bogus pin.
std::vector<int> ShardCpus(size_t shard, size_t shard_count) {
  const size_t cores = std::thread::hardware_concurrency();
  if (cores < shard_count) {
    return {};
  }
  std::vector<int> cpus;
  for (size_t j = shard; j < cores; j += shard_count) {
    cpus.push_back(static_cast<int>(j));
  }
  return cpus;
}

// total budget -> shard `i`'s slice: even division, remainder to the lowest
// shards, never below 1.
size_t ShardSlice(size_t total, size_t shard, size_t shard_count) {
  const size_t base = total / shard_count;
  const size_t extra = shard < total % shard_count ? 1 : 0;
  return std::max<size_t>(1, base + extra);
}

}  // namespace

AsVisorRouter::AsVisorRouter(RouterOptions options) {
  const size_t shard_count = ResolveShardCount(options.shards);
  min_shards_ = std::min(std::max<size_t>(1, options.min_shards), shard_count);
  max_shards_ = options.max_shards == 0
                    ? shard_count
                    : std::min(options.max_shards, kMaxShards);
  max_shards_ = std::max(max_shards_, shard_count);
  rebalancer_options_ = RebalancerOptions::FromEnv(options.rebalancer);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(MakeShard(i, shard_count));
  }
  RebuildRingLocked(shard_count);
  asobs::Registry& registry = asobs::Registry::Global();
  migrations_ = &registry.GetCounter("alloy_rebalance_migrations_total", {});
  scale_ups_ = &registry.GetCounter("alloy_rebalance_scale_ups_total", {});
  scale_downs_ = &registry.GetCounter("alloy_rebalance_scale_downs_total", {});
  queue_handoffs_ =
      &registry.GetCounter("alloy_rebalance_queue_handoffs_total", {});
  shards_gauge_ = &registry.GetGauge("alloy_rebalance_shards", {});
  shards_gauge_->Set(static_cast<int64_t>(shard_count));
}

AsVisorRouter::~AsVisorRouter() {
  StopWatchdog();
  // Shut down every shard's pools in index order (each shard in
  // workflow-name order) so teardown is deterministic.
  for (const auto& shard : SnapshotShards()) {
    shard->ShutdownPools();
  }
}

std::shared_ptr<AsVisor> AsVisorRouter::MakeShard(size_t index,
                                                  size_t shard_count) const {
  AsVisor::ShardIdentity identity;
  identity.index = static_cast<int>(index);
  identity.cpus = ShardCpus(index, shard_count);
  return std::make_shared<AsVisor>(std::move(identity), snapshots_);
}

void AsVisorRouter::RebuildRingLocked(size_t shard_count) {
  // Vnode hashes depend only on (shard, vnode), so the ring for N shards is
  // a strict subset of the ring for N+1: changing the count moves only the
  // keys the added/removed vnodes own — ~1/(N+1) of them.
  ring_.clear();
  ring_.reserve(shard_count * kVnodesPerShard);
  for (size_t i = 0; i < shard_count; ++i) {
    for (size_t v = 0; v < kVnodesPerShard; ++v) {
      ring_.push_back({Fnv1a("shard-" + std::to_string(i) + "#" +
                             std::to_string(v)),
                       i});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.hash < b.hash || (a.hash == b.hash && a.shard < b.shard);
            });
}

size_t AsVisorRouter::shard_count() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return shards_.size();
}

std::shared_ptr<AsVisor> AsVisorRouter::ShardPtr(size_t index) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return shards_[std::min(index, shards_.size() - 1)];
}

std::vector<std::shared_ptr<AsVisor>> AsVisorRouter::SnapshotShards() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return shards_;
}

size_t AsVisorRouter::HashShardLocked(const std::string& workflow_name) const {
  const uint64_t hash = Fnv1a(workflow_name);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const RingPoint& point, uint64_t value) { return point.hash < value; });
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around the ring
  }
  return it->shard;
}

size_t AsVisorRouter::HashShard(const std::string& workflow_name) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return HashShardLocked(workflow_name);
}

size_t AsVisorRouter::ShardOf(const std::string& workflow_name) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  auto it = routes_.find(workflow_name);
  if (it != routes_.end()) {
    return std::min(it->second, shards_.size() - 1);
  }
  return HashShardLocked(workflow_name);
}

std::shared_ptr<AsVisor> AsVisorRouter::ResolveShard(
    const std::string& workflow_name) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  size_t index;
  auto it = routes_.find(workflow_name);
  if (it != routes_.end()) {
    index = std::min(it->second, shards_.size() - 1);
  } else {
    index = HashShardLocked(workflow_name);
  }
  return shards_[index];
}

void AsVisorRouter::RegisterWorkflow(const WorkflowSpec& spec) {
  RegisterWorkflow(spec, AsVisor::WorkflowOptions{});
}

void AsVisorRouter::RegisterWorkflow(const WorkflowSpec& spec,
                                     AsVisor::WorkflowOptions options) {
  std::shared_ptr<AsVisor> target_shard;
  std::shared_ptr<AsVisor> previous_shard;
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    const size_t target =
        options.pin_shard >= 0
            ? static_cast<size_t>(options.pin_shard) % shards_.size()
            : HashShardLocked(spec.name);
    size_t previous = target;
    auto it = routes_.find(spec.name);
    if (it != routes_.end()) {
      previous = it->second;
      it->second = target;
    } else {
      routes_.emplace(spec.name, target);
    }
    if (previous != target && previous < shards_.size()) {
      previous_shard = shards_[previous];
    }
    target_shard = shards_[target];
  }
  if (previous_shard != nullptr) {
    // Placement changed (new pin, or pin dropped): migrate — the old
    // shard's entry (queued tickets, warm pool) goes away before the new
    // one exists, so the workflow is never registered twice.
    previous_shard->UnregisterWorkflow(spec.name);
  }
  target_shard->RegisterWorkflow(spec, std::move(options));
}

asbase::Status AsVisorRouter::RegisterWorkflowFromJson(
    const asbase::Json& config) {
  AS_ASSIGN_OR_RETURN(WorkflowSpec spec, WorkflowSpec::FromJson(config));
  int pin_shard = -1;
  const asbase::Json& opts = config["options"];
  if (opts.is_object() && opts["pin_shard"].is_number()) {
    pin_shard = static_cast<int>(opts["pin_shard"].as_int());
  }
  std::shared_ptr<AsVisor> target_shard;
  std::shared_ptr<AsVisor> previous_shard;
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    const size_t target =
        pin_shard >= 0 ? static_cast<size_t>(pin_shard) % shards_.size()
                       : HashShardLocked(spec.name);
    size_t previous = target;
    auto it = routes_.find(spec.name);
    if (it != routes_.end()) {
      previous = it->second;
      it->second = target;
    } else {
      routes_.emplace(spec.name, target);
    }
    if (previous != target && previous < shards_.size()) {
      previous_shard = shards_[previous];
    }
    target_shard = shards_[target];
  }
  if (previous_shard != nullptr) {
    previous_shard->UnregisterWorkflow(spec.name);
  }
  return target_shard->RegisterWorkflowFromJson(config);
}

bool AsVisorRouter::UnregisterWorkflow(const std::string& workflow_name) {
  std::shared_ptr<AsVisor> owner;
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    auto it = routes_.find(workflow_name);
    if (it == routes_.end()) {
      return false;
    }
    owner = shards_[std::min(it->second, shards_.size() - 1)];
    routes_.erase(it);
  }
  return owner->UnregisterWorkflow(workflow_name);
}

asbase::Result<InvokeResult> AsVisorRouter::Invoke(
    const std::string& workflow_name, const asbase::Json& params) {
  return Invoke(workflow_name, params, AsVisor::InvokeOptions{});
}

asbase::Result<InvokeResult> AsVisorRouter::Invoke(
    const std::string& workflow_name, const asbase::Json& params,
    const AsVisor::InvokeOptions& options) {
  std::shared_ptr<AsVisor> shard = ResolveShard(workflow_name);
  auto result = shard->Invoke(workflow_name, params, options);
  if (!result.ok() &&
      result.status().code() == asbase::ErrorCode::kNotFound) {
    // A migration may have raced the resolve: the route flipped after we
    // copied the shard pointer. One re-resolve covers it; a second NotFound
    // is a genuinely unknown workflow.
    std::shared_ptr<AsVisor> again = ResolveShard(workflow_name);
    if (again != shard) {
      return again->Invoke(workflow_name, params, options);
    }
  }
  return result;
}

// --------------------------------------------------------------- watchdog

asbase::Status AsVisorRouter::StartWatchdog(uint16_t port) {
  return StartWatchdog(port, AsVisor::ServingOptions{});
}

asbase::Status AsVisorRouter::StartWatchdog(uint16_t port,
                                            AsVisor::ServingOptions serving) {
  if (server_ != nullptr) {
    return asbase::FailedPrecondition("watchdog already running");
  }
  if (serving.worker_threads == 0 || serving.max_inflight == 0) {
    return asbase::InvalidArgument(
        "worker_threads and max_inflight must be >= 1");
  }
  std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    serving_total_ = serving;
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    AsVisor::ServingOptions slice = serving;
    slice.max_inflight = ShardSlice(serving.max_inflight, i, shards.size());
    slice.worker_threads =
        ShardSlice(serving.worker_threads, i, shards.size());
    asbase::Status started = shards[i]->StartServing(slice);
    if (!started.ok()) {
      for (size_t j = 0; j < i; ++j) {
        shards[j]->StopServing();
      }
      return started;
    }
  }
  server_ = std::make_unique<ashttp::HttpServer>(
      [this](ashttp::HttpRequest request, ashttp::HttpResponder respond) {
        if (request.method == "POST" &&
            request.target.rfind("/invoke/", 0) == 0) {
          Dispatch(
              std::make_shared<const ashttp::HttpRequest>(std::move(request)),
              std::move(respond));
          return;
        }
        if (request.method == "GET" &&
            (request.target == "/health" || request.target == "/healthz")) {
          // Liveness is a process property, not a shard one.
          ashttp::HttpResponse response;
          response.body = "ok";
          respond(std::move(response));
          return;
        }
        if (request.method == "GET" && request.target == "/readyz") {
          respond(ServeReadyz());
          return;
        }
        if (request.method == "GET") {
          // Rendering endpoints run on a serving worker (shard 0's — it
          // survives every ScaleTo), not the reactor.
          ShardPtr(0)->Offload(
              [this, target = std::move(request.target), respond] {
                respond(ServeData(target));
              });
          return;
        }
        ashttp::HttpResponse response;
        response.status = 404;
        response.reason = "Not Found";
        response.body = "unknown endpoint";
        respond(std::move(response));
      });
  asbase::Status started = server_->Start(port);
  if (!started.ok()) {
    server_.reset();
    StopWatchdog();
    return started;
  }
  serving_active_.store(true, std::memory_order_release);
  if (rebalancer_options_.enabled) {
    rebalancer_ = std::make_unique<ShardRebalancer>(this, rebalancer_options_);
    rebalancer_->Start();
  }
  return started;
}

void AsVisorRouter::Dispatch(AsVisor::RequestPtr request,
                             ashttp::HttpResponder respond) {
  DispatchHop(std::move(request), std::move(respond), 0, 0);
}

void AsVisorRouter::DispatchHop(AsVisor::RequestPtr request,
                                ashttp::HttpResponder respond, int hop,
                                int64_t carried_wait_nanos) {
  const std::string name =
      request->target.substr(std::string("/invoke/").size());
  // Routing is the only shared step on the hot path, and it takes a read
  // lock at most — an unregistered name falls through to the hash shard,
  // which answers 404 itself.
  std::shared_ptr<AsVisor> shard = ResolveShard(name);
  ashttp::HttpResponder follow(
      [this, request, respond, hop](ashttp::HttpResponse response) {
        if (response.status != 307 ||
            response.headers.find("x-alloy-migrated") ==
                response.headers.end()) {
          respond(std::move(response));
          return;
        }
        // Queue handoff: the workflow migrated while this request was
        // queued (or racing the route flip). Re-dispatch to the new owner,
        // carrying the queue wait already paid so the invocation's trace
        // and flight record stay honest about the total.
        queue_handoffs_->Add(1);
        if (hop + 1 >= kMaxMigrationHops) {
          // Hop budget exhausted (the mesh is thrashing): surface the
          // redirect to the client, whose retry re-enters with a fresh
          // budget.
          respond(std::move(response));
          return;
        }
        int64_t carried = 0;
        auto wait = response.headers.find("x-alloy-queue-wait-ns");
        if (wait != response.headers.end()) {
          carried = std::atoll(wait->second.c_str());
        }
        DispatchHop(request, respond, hop + 1, carried);
      });
  shard->HandleInvoke(std::move(request), std::move(follow),
                      carried_wait_nanos);
}

ashttp::HttpResponse AsVisorRouter::Dispatch(
    const ashttp::HttpRequest& request) {
  struct Reply {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<ashttp::HttpResponse> response;
  };
  auto reply = std::make_shared<Reply>();
  Dispatch(std::make_shared<const ashttp::HttpRequest>(request),
           ashttp::HttpResponder([reply](ashttp::HttpResponse response) {
             std::lock_guard<std::mutex> lock(reply->mutex);
             reply->response = std::move(response);
             reply->cv.notify_one();
           }));
  std::unique_lock<std::mutex> lock(reply->mutex);
  reply->cv.wait(lock, [&] { return reply->response.has_value(); });
  return std::move(*reply->response);
}

ashttp::HttpResponse AsVisorRouter::ServeData(const std::string& target) const {
  if (target == "/metrics") {
    // One registry serves all shards; their series are kept apart by the
    // alloy_visor_shard label.
    ashttp::HttpResponse response;
    response.headers["content-type"] = "text/plain; version=0.0.4";
    response.body = asobs::Registry::Global().RenderPrometheus();
    return response;
  }
  if (target.rfind("/trace", 0) == 0) {
    return ServeTrace(target);
  }
  if (target.rfind("/debug/flight", 0) == 0) {
    return ServeFlight(target);
  }
  if (target.rfind("/debug/latency", 0) == 0) {
    return ServeLatency(target);
  }
  ashttp::HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.body = "unknown endpoint";
  return response;
}

ashttp::HttpResponse AsVisorRouter::ServeTrace(
    const std::string& target) const {
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  if (workflow.empty()) {
    ashttp::HttpResponse response;
    response.status = 400;
    response.reason = "Bad Request";
    std::string names;
    for (const auto& shard : SnapshotShards()) {
      for (const std::string& name : shard->WorkflowNames()) {
        names += names.empty() ? name : ", " + name;
      }
    }
    response.body = "usage: /trace?workflow=<name>; registered: " + names;
    return response;
  }
  return ResolveShard(workflow)->ServeTrace(target);
}

ashttp::HttpResponse AsVisorRouter::ServeReadyz() const {
  ashttp::HttpResponse response;
  asbase::Json doc;
  asbase::Json per_shard{asbase::JsonArray{}};
  bool any_draining = false;
  const std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  for (size_t i = 0; i < shards.size(); ++i) {
    const bool draining = shards[i]->draining();
    any_draining = any_draining || draining;
    asbase::Json row;
    row.Set("shard", static_cast<int64_t>(i));
    row.Set("draining", draining);
    per_shard.Append(std::move(row));
  }
  doc.Set("ready", !any_draining);
  doc.Set("shards", std::move(per_shard));
  if (any_draining) {
    response.status = 503;
    response.reason = "Service Unavailable";
  }
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

std::vector<asobs::FlightRecord> AsVisorRouter::MergedFlight(
    int64_t since_nanos) const {
  std::vector<asobs::FlightRecord> merged;
  for (const auto& shard : SnapshotShards()) {
    std::vector<asobs::FlightRecord> records =
        shard->flight().Snapshot("", since_nanos);
    merged.insert(merged.end(), std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const asobs::FlightRecord& a, const asobs::FlightRecord& b) {
              return a.end_nanos < b.end_nanos;
            });
  return merged;
}

ashttp::HttpResponse AsVisorRouter::ServeFlight(
    const std::string& target) const {
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  if (!workflow.empty()) {
    // The workflow lives on exactly one shard; its ring has every record.
    return ResolveShard(workflow)->ServeFlight(target);
  }
  const std::string since = ashttp::QueryParam(target, "since");
  const int64_t since_nanos = since.empty() ? 0 : std::atoll(since.c_str());
  asbase::Json doc = asobs::FlightReportJson(MergedFlight(since_nanos));
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  const std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  for (const auto& shard : shards) {
    recorded += shard->flight().recorded();
    dropped += shard->flight().dropped();
  }
  doc.Set("recorded", static_cast<int64_t>(recorded));
  doc.Set("dropped", static_cast<int64_t>(dropped));
  doc.Set("shards", static_cast<int64_t>(shards.size()));
  // Control-plane context: the reslice/migration/scale that explains a
  // latency step rides along with the records it affected.
  doc.Set("rebalance_events",
          asobs::RebalanceLog::Global().ToJson(since_nanos));
  ashttp::HttpResponse response;
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

ashttp::HttpResponse AsVisorRouter::ServeLatency(
    const std::string& target) const {
  const std::string workflow = ashttp::QueryParam(target, "workflow");
  if (!workflow.empty()) {
    return ResolveShard(workflow)->ServeLatency(target);
  }
  asbase::Json doc = asobs::LatencyAttributionJson(MergedFlight(0));
  ashttp::HttpResponse response;
  response.headers["content-type"] = "application/json";
  response.body = doc.Dump();
  return response;
}

uint16_t AsVisorRouter::watchdog_port() const {
  return server_ == nullptr ? 0 : server_->port();
}

void AsVisorRouter::StopWatchdog() {
  // Phase 0: stop the control loop first — a rebalance action mid-teardown
  // would race the drains below.
  if (rebalancer_ != nullptr) {
    rebalancer_->Stop();
    rebalancer_.reset();
  }
  serving_active_.store(false, std::memory_order_release);
  const std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  // Phase 1: flip every shard to draining (index order, non-blocking) so
  // queued tickets across ALL shards are answered 503 before the server's
  // settle below waits for owed responses.
  for (const auto& shard : shards) {
    shard->BeginDrain();
  }
  // Phase 2: stop the shared server once the responses it owes (in-flight
  // invocations still finishing on the pools) are out.
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  // Phase 3: drain + destroy each shard's worker pool, index order.
  for (const auto& shard : shards) {
    shard->StopServing();
  }
}

void AsVisorRouter::SetMaxInflightTotal(size_t max_inflight) {
  std::vector<std::shared_ptr<AsVisor>> shards;
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    serving_total_.max_inflight = std::max<size_t>(1, max_inflight);
    max_inflight = serving_total_.max_inflight;
    shards = shards_;
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i]->SetMaxInflight(ShardSlice(max_inflight, i, shards.size()));
  }
}

size_t AsVisorRouter::max_inflight_total() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return serving_total_.max_inflight;
}

// --------------------------------------------- elastic mesh (DESIGN.md §12)

std::vector<AsVisor::ShardLoad> AsVisorRouter::ShardLoads() const {
  const std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  std::vector<AsVisor::ShardLoad> loads;
  loads.reserve(shards.size());
  for (const auto& shard : shards) {
    loads.push_back(shard->LoadSnapshot());
  }
  return loads;
}

bool AsVisorRouter::SetShardSlices(const std::vector<size_t>& slices) {
  const std::vector<std::shared_ptr<AsVisor>> shards = SnapshotShards();
  if (slices.size() != shards.size()) {
    return false;  // a scale raced the caller's snapshot; skip this pass
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i]->SetMaxInflight(slices[i]);
  }
  return true;
}

asbase::Status AsVisorRouter::MigrateWorkflow(const std::string& workflow_name,
                                              size_t to_shard) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  return MigrateWorkflowInternal(workflow_name, to_shard);
}

asbase::Status AsVisorRouter::MigrateWorkflowInternal(
    const std::string& workflow_name, size_t to_shard) {
  std::shared_ptr<AsVisor> from;
  std::shared_ptr<AsVisor> to;
  size_t from_index = 0;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    if (to_shard >= shards_.size()) {
      return asbase::InvalidArgument("no shard " + std::to_string(to_shard));
    }
    auto it = routes_.find(workflow_name);
    if (it == routes_.end()) {
      return asbase::NotFound("no workflow named '" + workflow_name + "'");
    }
    from_index = std::min(it->second, shards_.size() - 1);
    if (from_index == to_shard) {
      return asbase::OkStatus();  // already there
    }
    from = shards_[from_index];
    to = shards_[to_shard];
  }
  AS_ASSIGN_OR_RETURN(AsVisor::WorkflowRegistration registration,
                      from->GetRegistration(workflow_name));
  // The old shard stamped its core slice into the WFD options at
  // registration; clear it so the new shard applies its own. An explicit
  // caller-chosen affinity (different from the shard slice) survives.
  if (registration.options.wfd.cpu_affinity == from->shard_cpus()) {
    registration.options.wfd.cpu_affinity.clear();
  }
  // A pin follows the migration — otherwise the next re-register would
  // bounce the workflow straight back.
  if (registration.options.pin_shard >= 0) {
    registration.options.pin_shard = static_cast<int>(to_shard);
  }
  // Order is the whole trick (no stranded requests, no 404 window):
  //  1. register on the NEW shard — the workflow is now servable there;
  //  2. flip the route — fresh arrivals go to the new owner;
  //  3. MigrateOut on the OLD shard — queued waiters wake against the
  //     tombstone, unwind as migrated, and the router re-dispatches them to
  //     the new owner (Dispatch's 307 loop), queue wait carried.
  to->RegisterWorkflow(registration.spec, registration.options);
  {
    std::unique_lock<std::shared_mutex> lock(routes_mutex_);
    auto it = routes_.find(workflow_name);
    if (it != routes_.end() && it->second == from_index) {
      it->second = to_shard;
    }
  }
  size_t warm_moved = 0;
  std::shared_ptr<WfdPool> old_pool = from->MigrateOut(workflow_name);
  if (old_pool != nullptr) {
    // 4. hand the warm pool over: the WFDs survive the move, so the first
    // invocations on the new shard are warm starts, not a cold-start storm.
    std::vector<std::unique_ptr<Wfd>> wfds = old_pool->TakeWarmForHandoff();
    warm_moved = wfds.size();
    to->AdoptWarmWfds(workflow_name, std::move(wfds));
    old_pool->Shutdown();
  }
  migrations_->Add(1);
  asobs::RebalanceEvent event;
  event.kind = asobs::RebalanceKind::kMigrate;
  event.from_shard = static_cast<int32_t>(from_index);
  event.to_shard = static_cast<int32_t>(to_shard);
  event.workflow = workflow_name;
  event.detail = "warm_wfds=" + std::to_string(warm_moved);
  asobs::RebalanceLog::Global().Record(std::move(event));
  AS_LOG(kInfo) << "migrated '" << workflow_name << "' shard " << from_index
                << " -> " << to_shard << " (" << warm_moved << " warm WFDs)";
  return asbase::OkStatus();
}

asbase::Status AsVisorRouter::ScaleTo(size_t target) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  target = std::min(std::max(target, min_shards_), max_shards_);
  size_t old_count;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    old_count = shards_.size();
  }
  if (target == old_count) {
    return asbase::OkStatus();
  }

  // name -> destination shard for every workflow whose placement moves.
  std::vector<std::pair<std::string, size_t>> moves;

  if (target > old_count) {
    // Scale UP. Build + start the new shards before they become routable.
    // New shards take core slices modulo the NEW count; existing shards
    // keep their slices (re-pinning live stage workers isn't worth it) —
    // overlap resolves as WFDs age out.
    std::vector<std::shared_ptr<AsVisor>> fresh;
    const size_t total_workers = [&] {
      std::shared_lock<std::shared_mutex> lock(routes_mutex_);
      return serving_total_.worker_threads;
    }();
    for (size_t i = old_count; i < target; ++i) {
      std::shared_ptr<AsVisor> shard = MakeShard(i, target);
      if (serving_active_.load(std::memory_order_acquire)) {
        AsVisor::ServingOptions slice;
        {
          std::shared_lock<std::shared_mutex> lock(routes_mutex_);
          slice = serving_total_;
        }
        slice.worker_threads = ShardSlice(total_workers, i, target);
        slice.max_inflight = ShardSlice(slice.max_inflight, i, target);
        AS_RETURN_IF_ERROR(shard->StartServing(slice));
      }
      fresh.push_back(std::move(shard));
    }
    {
      std::unique_lock<std::shared_mutex> lock(routes_mutex_);
      for (auto& shard : fresh) {
        shards_.push_back(std::move(shard));
      }
      RebuildRingLocked(target);
      // The new vnodes claim ~1/(N+1) of the keyspace; migrate exactly the
      // registered workflows whose hash home moved (pins stay put).
      for (const auto& [name, owner] : routes_) {
        const size_t home = HashShardLocked(name);
        if (home == owner) {
          continue;
        }
        auto registration = shards_[owner]->GetRegistration(name);
        if (registration.ok() && registration->options.pin_shard < 0) {
          moves.emplace_back(name, home);
        }
      }
    }
  } else {
    // Scale DOWN. Shrink the ring first so hash lookups for unrouted names
    // already land on survivors, then evacuate the doomed shards while they
    // still serve (queued waiters hand off via migration tombstones).
    {
      std::unique_lock<std::shared_mutex> lock(routes_mutex_);
      RebuildRingLocked(target);
      for (const auto& [name, owner] : routes_) {
        if (owner < target) {
          continue;  // survivor-owned keys never move (subset ring)
        }
        auto registration = shards_[owner]->GetRegistration(name);
        size_t home;
        if (registration.ok() && registration->options.pin_shard >= 0) {
          home = static_cast<size_t>(registration->options.pin_shard) % target;
        } else {
          home = HashShardLocked(name);
        }
        moves.emplace_back(name, home);
      }
    }
  }

  for (const auto& [name, destination] : moves) {
    asbase::Status migrated = MigrateWorkflowInternal(name, destination);
    if (!migrated.ok()) {
      AS_LOG(kWarn) << "scale migration of '" << name << "' failed ("
                    << migrated.ToString() << ")";
    }
  }

  if (target < old_count) {
    // Evacuated: detach the doomed shards, then drain them. In-flight
    // requests still hold shard shared_ptrs from Dispatch and finish
    // normally inside StopServing's join.
    std::vector<std::shared_ptr<AsVisor>> doomed;
    {
      std::unique_lock<std::shared_mutex> lock(routes_mutex_);
      for (size_t i = target; i < shards_.size(); ++i) {
        doomed.push_back(shards_[i]);
      }
      shards_.resize(target);
    }
    for (const auto& shard : doomed) {
      shard->BeginDrain();
    }
    for (const auto& shard : doomed) {
      shard->StopServing();
      shard->ShutdownPools();
    }
  }

  // Back to even slices across the new mesh; the rebalancer re-skews them
  // next tick if demand still warrants it.
  SetMaxInflightTotal(max_inflight_total());
  shards_gauge_->Set(static_cast<int64_t>(target));
  asobs::RebalanceEvent event;
  event.kind = target > old_count ? asobs::RebalanceKind::kScaleUp
                                  : asobs::RebalanceKind::kScaleDown;
  event.detail = "shards " + std::to_string(old_count) + " -> " +
                 std::to_string(target) + ", " + std::to_string(moves.size()) +
                 " workflows moved";
  asobs::RebalanceLog::Global().Record(std::move(event));
  (target > old_count ? scale_ups_ : scale_downs_)->Add(1);
  AS_LOG(kInfo) << "scaled shard mesh " << old_count << " -> " << target
                << " (" << moves.size() << " workflows moved)";
  return asbase::OkStatus();
}

asbase::Result<asbase::Histogram> AsVisorRouter::LatencyHistogram(
    const std::string& workflow_name) const {
  return ResolveShard(workflow_name)->LatencyHistogram(workflow_name);
}

asbase::Result<size_t> AsVisorRouter::WarmWfdCount(
    const std::string& workflow_name) const {
  return ResolveShard(workflow_name)->WarmWfdCount(workflow_name);
}

}  // namespace alloy
