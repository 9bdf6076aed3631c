// Multi-visor sharding (DESIGN.md §10) + elastic shard mesh (§12): N
// per-core AsVisor shards behind a consistent-hash router, rebalanced at
// runtime.
//
// A single AsVisor serializes every admission decision, ticket grant and
// pool lease on one mutex. The router splits the world into N independent
// shards: each workflow lives on exactly one shard (consistent hash on its
// name, or an explicit `pin_shard` override), so admission state, the
// WfdPools and the one PoolWarmer thread that drives them, and the
// service-time EWMAs are all shard-local and that mutex's contention
// divides by N.
//
// Placement is a 64-vnode/shard FNV-1a hash ring, so changing the shard
// count moves only ~1/(N+1) of the workflows (tested both directions).
// The global `max_inflight` budget is divided into per-shard slices at
// StartWatchdog; a shard's serving workers start on demand within its
// slice. One shared HttpServer fronts all shards: `/invoke/<wf>` routes to
// the owning shard with no cross-shard lock on the hot path, `/metrics`
// serves the shared registry (shards label their series
// `alloy_visor_shard="<i>"`), `/trace` routes by the workflow query param.
//
// The mesh is *elastic*: MigrateWorkflow moves a workflow (warm pool and
// queued admissions included) between shards, ScaleTo grows or shrinks the
// shard count within [min_shards, max_shards], and an optional
// ShardRebalancer (RouterOptions::rebalancer.enabled) drives both plus
// demand-weighted budget re-slicing from a control loop. Requests caught
// mid-migration carry their paid queue wait through an internal 307 hop
// (`x-alloy-migrated`), so a migration costs a re-dispatch, not a 503.
//
// The router exposes the same surface as AsVisor (RegisterWorkflow /
// Invoke / StartWatchdog), so the watchdog, benches, and tests swap over
// by constructing an AsVisorRouter instead of an AsVisor.

#ifndef SRC_CORE_VISOR_VISOR_ROUTER_H_
#define SRC_CORE_VISOR_VISOR_ROUTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/core/visor/visor.h"
#include "src/core/visor/visor_rebalancer.h"

namespace alloy {

struct RouterOptions {
  // Initial shard count. 0 = the ALLOY_VISOR_SHARDS environment variable if
  // set, else hardware_concurrency (min 1).
  size_t shards = 0;
  // Elastic bounds for ScaleTo / the rebalancer. min_shards clamps to
  // [1, initial count]; max_shards 0 means "the initial count" (scaling
  // disabled unless explicitly widened), and is capped at the router's
  // hard shard limit.
  size_t min_shards = 1;
  size_t max_shards = 0;
  // Load-aware rebalancing (off by default; ALLOY_REBALANCE=1 and friends
  // override, see RebalancerOptions::FromEnv). The control loop runs only
  // while the watchdog is up.
  RebalancerOptions rebalancer;
};

class AsVisorRouter {
 public:
  explicit AsVisorRouter(RouterOptions options = {});
  ~AsVisorRouter();

  AsVisorRouter(const AsVisorRouter&) = delete;
  AsVisorRouter& operator=(const AsVisorRouter&) = delete;

  size_t shard_count() const;
  // Direct shard access (tests, ops introspection). The reference stays
  // valid until a ScaleTo removes the shard; callers that might race a
  // scale-down should hold the shared_ptr from ShardPtr instead.
  AsVisor& shard(size_t index) { return *ShardPtr(index); }
  std::shared_ptr<AsVisor> ShardPtr(size_t index) const;

  // ---- AsVisor-compatible surface ----
  // Registers on the owning shard (consistent hash, or options.pin_shard
  // modulo shard count when >= 0). A workflow whose placement changed —
  // pinned somewhere new, or re-registered after its pin was dropped — is
  // unregistered from the old shard first, so it is never registered twice.
  void RegisterWorkflow(const WorkflowSpec& spec);
  void RegisterWorkflow(const WorkflowSpec& spec,
                        AsVisor::WorkflowOptions options);
  asbase::Status RegisterWorkflowFromJson(const asbase::Json& config);
  bool UnregisterWorkflow(const std::string& workflow_name);

  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params);
  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params,
                                      const AsVisor::InvokeOptions& options);

  // One shared HTTP server for all shards. `serving` carries the GLOBAL
  // budget; the router divides max_inflight into per-shard slices (each at
  // least 1, remainder to the lowest shards), and each slice also caps its
  // shard's on-demand serving workers.
  // Starts the rebalancer when RouterOptions enabled it.
  asbase::Status StartWatchdog(uint16_t port = 0);
  asbase::Status StartWatchdog(uint16_t port, AsVisor::ServingOptions serving);
  uint16_t watchdog_port() const;
  // Stops the rebalancer, then three deterministic phases: (1) BeginDrain
  // on every shard in index order — queued tickets are answered 503;
  // (2) stop the shared server once owed responses are out; (3)
  // StopServing each shard in index order (drains + destroys its pool).
  void StopWatchdog();

  // The serving pipeline without the HTTP socket: routes the request to the
  // owning shard's HandleInvoke (admission + dispatch + response mapping),
  // following internal migration redirects (bounded hops) so a workflow
  // moving shards costs the client nothing but the re-queue. Returns at
  // once; `respond` gets the final answer. What the shared server's
  // handler calls.
  void Dispatch(AsVisor::RequestPtr request, ashttp::HttpResponder respond);
  // Blocking shim over the above for callers without a responder of their
  // own (benches, tests): waits for the answer on the calling thread.
  ashttp::HttpResponse Dispatch(const ashttp::HttpRequest& request);

  // Rebalance hook: re-divides a new global in-flight budget EVENLY across
  // shards and wakes their queued admissions.
  void SetMaxInflightTotal(size_t max_inflight);
  size_t max_inflight_total() const;

  // ---- elastic mesh (DESIGN.md §12) ----
  // Moves `workflow_name` (registration, warm WFD pool, queued admissions)
  // to shard `to_shard`: the new owner registers first, the route flips,
  // then the old entry migrates out — queued waiters unwind as migrated and
  // re-dispatch to the new owner carrying their paid queue wait. Records an
  // alloy_rebalance_migrations_total tick + a RebalanceLog event.
  asbase::Status MigrateWorkflow(const std::string& workflow_name,
                                 size_t to_shard);

  // Grows or shrinks the mesh to `target` shards (clamped to the
  // RouterOptions bounds). Scale-up starts the new shards serving and
  // migrates the workflows whose hash placement moved (~1/(N+1)).
  // Scale-down migrates every workflow off the doomed shards (hash owners
  // for free workflows, pin % target for pinned ones), drains them, and
  // removes them. Either direction re-slices the in-flight budget evenly.
  asbase::Status ScaleTo(size_t target);

  size_t min_shards() const { return min_shards_; }
  size_t max_shards_limit() const { return max_shards_; }

  // Per-shard load snapshots, index-aligned — the rebalancer's input.
  std::vector<AsVisor::ShardLoad> ShardLoads() const;

  // Applies per-shard max_inflight slices (index-aligned; ignored when the
  // size does not match the current shard count — a scale raced it).
  // Returns false on that mismatch.
  bool SetShardSlices(const std::vector<size_t>& slices);

  // The rebalancer instance (null when disabled); tests use it to drive
  // TickOnce deterministically.
  ShardRebalancer* rebalancer() { return rebalancer_.get(); }

  // Where `workflow_name` is (registered) or would be (hash) placed.
  size_t ShardOf(const std::string& workflow_name) const;
  // Pure ring placement, ignoring pins and registrations (tests).
  size_t HashShard(const std::string& workflow_name) const;

  // Convenience pass-throughs to the owning shard.
  asbase::Result<asbase::Histogram> LatencyHistogram(
      const std::string& workflow_name) const;
  asbase::Result<size_t> WarmWfdCount(const std::string& workflow_name) const;

 private:
  struct RingPoint {
    uint64_t hash;
    size_t shard;
  };

  // One hop of Dispatch: hands the request to its owning shard with a
  // responder that follows a migration 307 to the next owner (carrying the
  // queue wait already paid) until the hop budget runs out.
  void DispatchHop(AsVisor::RequestPtr request, ashttp::HttpResponder respond,
                   int hop, int64_t carried_wait_nanos);

  // MigrateWorkflow without the admin mutex — ScaleTo (which already holds
  // it) calls this for each evacuated workflow.
  asbase::Status MigrateWorkflowInternal(const std::string& workflow_name,
                                         size_t to_shard);

  // Owning shard for a request: the routes entry if present, else the ring.
  // Returns the shared_ptr so a concurrent scale-down cannot free the shard
  // under an in-flight request.
  std::shared_ptr<AsVisor> ResolveShard(const std::string& workflow_name) const;
  // All shards, under one shared-lock hold (iteration off-lock).
  std::vector<std::shared_ptr<AsVisor>> SnapshotShards() const;
  // Ring placement; caller holds routes_mutex_ (either side).
  size_t HashShardLocked(const std::string& workflow_name) const;
  // Rebuilds ring_ for `shard_count` shards; caller holds the write lock.
  void RebuildRingLocked(size_t shard_count);
  // Creates shard `index` of `shard_count` (identity + cpu slice).
  std::shared_ptr<AsVisor> MakeShard(size_t index, size_t shard_count) const;

  // GET /metrics, /trace, /debug/*: the rendering endpoints the shared
  // server runs on a serving worker.
  ashttp::HttpResponse ServeData(const std::string& target) const;
  ashttp::HttpResponse ServeTrace(const std::string& target) const;
  // /readyz across shards: 503 if ANY shard is draining (a rolling drain
  // must pull the whole process out of the balancer before requests start
  // landing on the drained shard); body lists per-shard state.
  ashttp::HttpResponse ServeReadyz() const;
  // /debug/flight and /debug/latency: with ?workflow= the owning shard
  // answers; without, the router merges every shard's flight ring (and
  // appends recent rebalance events).
  ashttp::HttpResponse ServeFlight(const std::string& target) const;
  ashttp::HttpResponse ServeLatency(const std::string& target) const;
  // Every shard's flight records merged oldest-first (end_nanos order).
  std::vector<asobs::FlightRecord> MergedFlight(int64_t since_nanos) const;

  // Clone templates, one per WFD geometry, shared by every shard (those
  // ScaleTo adds included) so co-located tenants pay one full boot.
  const std::shared_ptr<SnapshotStore> snapshots_ =
      std::make_shared<SnapshotStore>();

  // Elastic bounds, fixed at construction.
  size_t min_shards_ = 1;
  size_t max_shards_ = 1;
  // Rebalancer config (env overrides applied), fixed at construction; the
  // instance itself lives from StartWatchdog to StopWatchdog.
  RebalancerOptions rebalancer_options_;

  // Serializes control-plane mutations (MigrateWorkflow, ScaleTo) against
  // each other; the data plane never takes it.
  std::mutex admin_mutex_;

  // Mesh state: shards_, ring_, and routes_ move together under
  // routes_mutex_ (the /invoke hot path only ever takes the read side, once,
  // to resolve + copy a shard pointer).
  mutable std::shared_mutex routes_mutex_;
  std::vector<std::shared_ptr<AsVisor>> shards_;
  // kVnodesPerShard vnodes per shard, sorted by hash; rebuilt on ScaleTo.
  std::vector<RingPoint> ring_;
  // workflow -> owning shard, set at registration, flipped by migration.
  std::map<std::string, size_t> routes_;

  AsVisor::ServingOptions serving_total_;
  std::atomic<bool> serving_active_{false};
  std::unique_ptr<ashttp::HttpServer> server_;
  std::unique_ptr<ShardRebalancer> rebalancer_;

  // Rebalance observability (registry-owned).
  asobs::Counter* migrations_ = nullptr;
  asobs::Counter* scale_ups_ = nullptr;
  asobs::Counter* scale_downs_ = nullptr;
  asobs::Counter* queue_handoffs_ = nullptr;
  asobs::Gauge* shards_gauge_ = nullptr;
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_VISOR_ROUTER_H_
