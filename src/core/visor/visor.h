// as-visor: the global runtime layer (§3.3).
//
// Owns workflow definitions, instantiates (or leases from the warm pool) a
// WFD per invocation, orchestrates the run, returns the WFD to the pool or
// destroys it (§3.2), and exposes the watchdog — an HTTP endpoint (host
// socket) through which external events trigger workflows. A CLI-style
// entry (`InvokeFromConfig`) executes workflows straight from JSON
// configurations (§7.1).
//
// Serving layer (DESIGN.md §8): invocations arriving through the watchdog
// are dispatched onto a worker thread pool, gated by per-workflow
// `max_concurrency` and a global in-flight cap. Admission never blocks: a
// request is granted (straight onto the pool), rejected, or parked as a
// ticket that holds the request and its responder but no thread. A
// saturated workflow may absorb short bursts through a bounded FIFO ticket
// queue: a request queues only when its *predicted* wait (queue position ×
// an EWMA of recent service time / max_concurrency) fits its queueing
// budget; otherwise it is rejected with HTTP 429 and a Retry-After computed
// from that prediction. A finishing invocation grants the next ticket.
// Each invocation may carry a deadline (`timeout_ms`) enforced cooperatively
// by the orchestrator; an expired run fails with kDeadlineExceeded (HTTP
// 504). Registration also pre-warms the workflow's WFD pool (the shard's
// PoolWarmer) so a traffic spike pays at most the cold starts already in
// flight when it lands.

#ifndef SRC_CORE_VISOR_VISOR_H_
#define SRC_CORE_VISOR_VISOR_H_

#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/thread_pool.h"
#include "src/core/visor/orchestrator.h"
#include "src/core/visor/snapshot_store.h"
#include "src/core/visor/wfd_pool.h"
#include "src/http/http.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace alloy {

struct InvokeResult {
  // Cold start: WFD instantiation + LibOS modules loaded during the run.
  // A warm start pays neither (wfd_create_nanos == 0) unless the run
  // touched a module no earlier invocation had loaded.
  int64_t cold_start_nanos = 0;
  int64_t wfd_create_nanos = 0;
  int64_t module_load_nanos = 0;
  // True when the invocation ran on a pooled warm WFD.
  bool warm_start = false;
  // True when the pool missed but the WFD was clone-booted from a snapshot
  // template (wfd_create_nanos is then the clone time, O(µs)).
  bool clone_start = false;
  RunStats run;
  // End-to-end: invocation receipt to workflow completion.
  int64_t end_to_end_nanos = 0;
  std::vector<ModuleKind> modules_loaded;
  size_t resident_bytes = 0;
  // Spans recorded during this invocation (root "invoke" span + children);
  // asobs::SummarizeTrace flattens them for callers that want JSON.
  std::shared_ptr<const asobs::Trace> trace;
};

class AsVisor {
 public:
  struct WorkflowOptions {
    WfdOptions wfd;
    // Warm WFDs retained for this workflow; 0 = cold-start every invocation.
    size_t pool_size = 2;
    // Pool pre-warm floor (clamped to pool_size): RegisterWorkflow
    // asynchronously boots this many WFDs, and the pool's warmer refills on
    // drain (sized by an arrival-rate EWMA). 0 keeps the pool reactive.
    size_t min_warm = 0;
    // Evict all parked WFDs after this long without traffic (the pool of a
    // quiet workflow shrinks to zero, releasing its heap + disk). 0 = never.
    int64_t idle_ttl_ms = 0;
    // Concurrent watchdog invocations admitted for this workflow; beyond
    // this requests queue (if queue_capacity > 0 and the predicted wait
    // fits the budget) or get 429. (Direct Invoke() calls are not gated —
    // a library caller owns its own concurrency.)
    int max_concurrency = 4;
    // Bounded FIFO admission queue depth for saturated arrivals. 0 =
    // pure reject-at-cap (the pre-queue behavior).
    size_t queue_capacity = 0;
    // Default per-request queueing budget: a request queues only if its
    // predicted wait fits; a client may override per request via the
    // `x-queue-budget-ms` header (a decimal number of milliseconds; anything
    // else answers 400). Budgets are capped at kMaxQueueBudgetMs.
    int64_t queueing_budget_ms = 250;
    // Per-invocation deadline in milliseconds; 0 = none.
    int64_t timeout_ms = 0;
    // Share of admission slots under contention: queued workflows are
    // granted slots deficit-round-robin, so a weight-3 workflow receives
    // ~3 grants for every grant a weight-1 co-tenant gets. Values < 1e-6
    // are treated as 1.
    double weight = 1.0;
    // Shard pin override for AsVisorRouter: >= 0 forces the workflow onto
    // that shard (modulo shard count) instead of the consistent-hash
    // placement. Ignored by a standalone AsVisor.
    int pin_shard = -1;
    // SLO (DESIGN.md §11): fraction of invocations that must be good.
    // <= 0 disables SLO tracking for this workflow (the default — no burn
    // gauges, no black boxes).
    double slo_objective = 0;
    // Latency objective: an invocation slower than this counts against the
    // error budget even when it succeeds. 0 = outcome-only SLO.
    int64_t slo_latency_ms = 0;
  };

  // Watchdog-wide serving knobs (admission control + dispatch).
  struct ServingOptions {
    // Workers executing invocations; admitted requests queue FIFO when all
    // workers are busy (the caps below bound that queue).
    size_t worker_threads = 8;
    // Global in-flight invocation cap across all workflows.
    size_t max_inflight = 32;
    // Retry-After fallback (seconds) on 429 responses when no service-time
    // EWMA exists yet; once it does, Retry-After is computed from the
    // predicted wait instead.
    int retry_after_seconds = 1;
    // Tail-based trace retention (DESIGN.md §11): an invocation's span tree
    // rides on its flight record only when it fails, times out, or runs
    // longer than this; 0 = retain every trace; -1 = keep the current
    // setting (ALLOY_TRACE_THRESHOLD_MS env, else 0).
    int64_t trace_threshold_ms = -1;
  };

  // Serving-path context for one invocation (watchdog admission).
  struct InvokeOptions {
    // Time this request spent in the admission queue before Invoke; recorded
    // as a `queue_wait` span and excluded from the service-time EWMA.
    int64_t queue_wait_nanos = 0;
  };

  // Identity of this visor inside an AsVisorRouter. A standalone visor
  // (index -1) behaves exactly as before sharding: unlabelled metrics, no
  // worker affinity.
  struct ShardIdentity {
    // Shard number, stamped onto every metric series this visor writes as
    // `alloy_visor_shard="<index>"`. -1 = unsharded.
    int index = -1;
    // Core set this shard's WFD stage workers and pool warmer pin to
    // (empty = no affinity; the router leaves it empty when the machine has
    // fewer cores than shards).
    std::vector<int> cpus;
  };

  AsVisor() : AsVisor(ShardIdentity{}) {}
  // `snapshots` is the clone-template store to share (the router passes its
  // own to every shard); null = this visor owns a private one.
  explicit AsVisor(ShardIdentity shard,
                   std::shared_ptr<SnapshotStore> snapshots = nullptr);
  ~AsVisor();

  AsVisor(const AsVisor&) = delete;
  AsVisor& operator=(const AsVisor&) = delete;

  // Registers a workflow under spec.name; overwrites an existing entry
  // (clearing any warm WFDs built with the previous options).
  void RegisterWorkflow(const WorkflowSpec& spec);
  void RegisterWorkflow(const WorkflowSpec& spec, WorkflowOptions options);

  // Removes a workflow: queued admissions for it give up (404), its pool
  // leaves the shard's warmer and its warm WFDs are destroyed. Returns false when no
  // such workflow exists. The router uses this to migrate a pinned workflow
  // between shards without a double registration ever being visible.
  bool UnregisterWorkflow(const std::string& workflow_name);

  // ---- live migration (elastic shard mesh, DESIGN.md §12) ----
  // A workflow's registration as this shard holds it, copyable to another
  // shard.
  struct WorkflowRegistration {
    WorkflowSpec spec;
    WorkflowOptions options;
  };
  asbase::Result<WorkflowRegistration> GetRegistration(
      const std::string& workflow_name) const;

  // Migrate-out: removes the entry like UnregisterWorkflow, but leaves a
  // short-lived tombstone so queued admissions (and requests racing the
  // route flip) unwind as *migrated* rather than failed — the router
  // re-queues them on the new owner instead of answering 404/503. Returns
  // the old pool (already detached; the caller takes its warm WFDs via
  // TakeWarmForHandoff and then Shutdowns it), or nullptr when the
  // workflow was not registered here.
  std::shared_ptr<WfdPool> MigrateOut(const std::string& workflow_name);

  // Receiving side of the warm-pool handoff: parks the WFDs into
  // `workflow_name`'s pool (evicting past capacity). WFDs built for the
  // old shard keep their old core affinity — functional, re-pinned only
  // when they age out; the alternative (rebooting them) is the cold start
  // migration exists to avoid.
  void AdoptWarmWfds(const std::string& workflow_name,
                     std::vector<std::unique_ptr<Wfd>> wfds);

  // Per-shard load snapshot — the rebalancer's input signal (sampled, so
  // cheap: one mutex hold, no per-invocation cost).
  struct WorkflowLoad {
    std::string name;
    int inflight = 0;
    size_t queued = 0;
    double service_ewma_nanos = 0;
    bool pinned = false;  // pin_shard >= 0: the rebalancer must not move it
  };
  struct ShardLoad {
    size_t inflight = 0;      // admitted invocations running now
    size_t queued = 0;        // tickets parked across all admission queues
    size_t max_inflight = 0;  // this shard's current budget slice
    std::vector<WorkflowLoad> workflows;
  };
  ShardLoad LoadSnapshot() const;

  // Full JSON configuration: workflow spec (+"options": {"ramfs", "load_all",
  // "reference_passing", "inter_function_isolation", "heap_mb", "disk_mb",
  // "pool_size", "max_concurrency", "timeout_ms"}).
  asbase::Status RegisterWorkflowFromJson(const asbase::Json& config);

  // One invocation: lease a warm WFD (or cold-start one), run, re-pool on
  // success / destroy on failure. Enforces the workflow's timeout_ms.
  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params);
  asbase::Result<InvokeResult> Invoke(const std::string& workflow_name,
                                      const asbase::Json& params,
                                      const InvokeOptions& invoke_options);

  // One-shot CLI gateway: parse config, register, invoke once.
  asbase::Result<InvokeResult> InvokeFromConfig(const std::string& config_json,
                                                const asbase::Json& params);

  // Watchdog: POST /invoke/<workflow> with a JSON params body; responds with
  // the run result and latency (429 when saturated, 504 on deadline).
  // GET /health answers "ok". GET /metrics serves the process-wide registry
  // in Prometheus text format; GET /trace?workflow=<name> serves the last
  // invocations' retained span trees as Chrome trace JSON (open in
  // about:tracing or ui.perfetto.dev).
  asbase::Status StartWatchdog(uint16_t port = 0);
  asbase::Status StartWatchdog(uint16_t port, ServingOptions serving);
  uint16_t watchdog_port() const;
  void StopWatchdog();

  // ---- serving lifecycle pieces (used standalone by the router, which
  // ---- owns the shared HTTP server itself) ----
  // Brings up the admission state + worker pool without an HTTP server.
  asbase::Status StartServing(const ServingOptions& serving);
  // Non-blocking: flips draining and answers every queued ticket 503.
  // Safe to call on all shards before any join.
  void BeginDrain();
  // BeginDrain + drain and destroy the worker pool. Callers must stop the
  // HTTP server delivering requests first.
  void StopServing();
  // Shuts down every workflow's pool (taking it off this shard's warmer)
  // and destroys parked WFDs, in workflow-name order (deterministic
  // teardown).
  void ShutdownPools();

  // Serving-path entry points, public so the router's shared server can
  // dispatch to the owning shard without a cross-shard lock.
  using RequestPtr = std::shared_ptr<const ashttp::HttpRequest>;
  // POST /invoke/<workflow>. Returns at once, on the caller's thread (the
  // edge reactor): the request is granted onto the serving pool, queued as
  // a ticket, or refused; `respond` is called exactly once, from whichever
  // thread settles it. The body is parsed on the serving pool (400 on bad
  // JSON). `carried_queue_wait_nanos` is queue time already spent on a
  // previous shard when a migration handed this request off mid-queue; it
  // is added to this shard's own queue wait so the invocation's trace and
  // flight record show the true total. A request whose workflow migrated
  // away (mid-queue or racing the route flip) is answered 307 with
  // `x-alloy-migrated: 1` and its accumulated wait in
  // `x-alloy-queue-wait-ns`; the router re-dispatches, a direct client
  // treats it like any redirect.
  void HandleInvoke(RequestPtr request, ashttp::HttpResponder respond,
                    int64_t carried_queue_wait_nanos = 0);
  // Runs `task` on this shard's serving pool (inline when serving is not
  // started): keeps the edge's data-rendering GET endpoints off its
  // reactor.
  void Offload(std::function<void()> task);
  ashttp::HttpResponse ServeTrace(const std::string& target) const;
  // GET /debug/flight?workflow=&since= — recent flight records (all
  // workflows when the param is empty; since = MonoNanos cursor).
  ashttp::HttpResponse ServeFlight(const std::string& target) const;
  // GET /debug/latency?workflow= — p50/p95/p99 phase attribution over the
  // flight ring: which phase owns the tail.
  ashttp::HttpResponse ServeLatency(const std::string& target) const;
  // GET /healthz — liveness: 200 as long as the process answers.
  ashttp::HttpResponse ServeHealthz() const;
  // GET /readyz — readiness: 503 while draining or not serving.
  ashttp::HttpResponse ServeReadyz() const;

  // True from BeginDrain/StopServing until the next StartServing — the
  // /readyz signal, also aggregated per shard by the router.
  bool draining() const;

  // This shard's flight recorder (the router aggregates across shards).
  const asobs::FlightRecorder& flight() const { return *flight_; }

  // Effective trace-retention threshold (tests, ops).
  int64_t trace_threshold_ms() const { return trace_threshold_ms_; }

  // Rebalance hook: replaces this shard's slice of the global in-flight
  // budget (clamped to >= 1) and grants queued tickets a raised cap admits.
  void SetMaxInflight(size_t max_inflight);
  size_t max_inflight() const;

  std::vector<std::string> WorkflowNames() const;
  int shard_index() const { return shard_.index; }
  const std::vector<int>& shard_cpus() const { return shard_.cpus; }

  // Per-workflow end-to-end latency, read from the workflow's bounded
  // alloy_visor_invoke_nanos series (LatencyHistogram::Snapshot: one
  // bucket representative per sample over the last 64-128 Ki samples).
  asbase::Result<asbase::Histogram> LatencyHistogram(
      const std::string& workflow_name) const;

  // Warm WFDs currently parked for a workflow (tests, ops introspection).
  asbase::Result<size_t> WarmWfdCount(const std::string& workflow_name) const;

  // Upper bound on a queueing budget (workflow default or the
  // `x-queue-budget-ms` header): one hour. Larger values clamp to it.
  static constexpr int64_t kMaxQueueBudgetMs = 3'600'000;

 private:
  // A request parked in an admission queue: it holds the request and its
  // responder, never a thread.
  struct Ticket {
    RequestPtr request;
    ashttp::HttpResponder respond;
    int64_t enqueued_at = 0;
    // Queue time paid on earlier shards before a migration handed it here.
    int64_t carried_wait_nanos = 0;
  };

  // What RegisterWorkflow fixed for good (spec, options, pool, boot recipe,
  // cached series): one immutable record, so Invoke copies a single pointer
  // under mutex_, and a re-registration swaps in a fresh record while
  // in-flight invocations finish on the old one.
  struct Registration;
  // Everything Boot reads. The pool factory holds the recipe, never the
  // Registration: that owns the pool, which owns the factory.
  struct BootRecipe;
  // One invocation's state as it passes through Lease, Run and Reclaim.
  struct Invocation;

  // The workflow's record (one mutex_ hold), or kNotFound.
  asbase::Result<std::shared_ptr<const Registration>> FindRegistration(
      const std::string& workflow_name) const;

  struct Entry {
    std::shared_ptr<const Registration> registration;
    // Watchdog invocations currently running this workflow (admission).
    int inflight = 0;
    // FIFO admission queue: tickets of requests waiting for a concurrency
    // slot, front = next to run. Bounded by options.queue_capacity. A list,
    // so an empty one allocates nothing (a std::deque allocates on
    // construction and again on every move).
    std::list<Ticket> waiters;
    // Deficit-round-robin credit toward the next admission grant: each
    // contested grant adds `weight` per round to every workflow with a
    // runnable queue head and costs the winner 1. Reset when the queue
    // empties.
    double deficit = 0;
    // EWMA of recent service time (Invoke wall time, queue wait excluded);
    // drives the predicted-wait admission decision and Retry-After.
    double service_ewma_nanos = 0;
  };

  // The visor's one WFD boot step (DESIGN.md §14), behind both the pool
  // factory and Lease's miss path: a clone from the geometry's template
  // when one exists, else (also when the clone fails) a full Wfd::Create.
  // Sizes the stage workers to the workflow's fan-out and counts the
  // snapshot clone / fallback boots. With a `trace`, the boot is a
  // wfd_clone or wfd_create span under `trace_parent`. `cloned` (optional)
  // reports which path ran.
  static asbase::Result<std::unique_ptr<Wfd>> Boot(const BootRecipe& recipe,
                                                   asobs::Trace* trace,
                                                   uint32_t trace_parent,
                                                   bool* cloned);

  // Invoke's three steps (Fig 4), each stamping one flight phase. Lease
  // pops a warm WFD or boots one (lease_nanos); Run executes the workflow
  // on it (exec_nanos); Reclaim resets and parks it, or destroys it
  // (reset_nanos).
  asbase::Status Lease(Invocation& call);
  asbase::Status Run(Invocation& call, const asbase::Json& params);
  void Reclaim(Invocation& call);
  // Counts a failed invocation and finishes it; returns `status`. The WFD
  // dies with the Invocation, never re-pooled.
  asbase::Status Fail(Invocation& call, asbase::Status status);
  // Every exit's last step: closes the span tree, deposits the flight
  // record (the tree attached if tail retention keeps it) and accounts the
  // outcome (service-time EWMA, SLO). Returns the invocation's total time.
  int64_t Finish(Invocation& call, asobs::FlightOutcome outcome);

  // Frees an invocation's slot and grants whatever queued tickets that
  // lets run.
  void ReleaseAdmission(const std::string& workflow_name);

  enum class AdmitOutcome { kGranted, kQueued, kRejected };
  struct Admission {
    AdmitOutcome outcome = AdmitOutcome::kGranted;
    // Why, when rejected: kResourceExhausted (429), kNotFound (404),
    // kUnavailable (503, or 307 when `migrated`).
    asbase::Status status;
    // The prediction behind a budget rejection, for Retry-After.
    int64_t predicted_wait_nanos = 0;
    // The workflow moved shards (entry gone, live tombstone).
    bool migrated = false;
  };

  // Queue-with-budget admission (DESIGN.md §8), decided at once: grant
  // when a slot is free (the caller dispatches the ticket), else queue the
  // ticket FIFO if the predicted wait fits the budget (workflow default,
  // or budget_ms_override >= 0 from the request), else reject. Only a
  // queued ticket is moved from.
  Admission Admit(const std::string& workflow_name, int64_t budget_ms_override,
                  Ticket& ticket);

  // A queued ticket granted a slot, with the wait it paid in this queue.
  struct Grant {
    std::string workflow;
    Ticket ticket;
    int64_t queue_wait_nanos = 0;
  };
  // Grants queued tickets while global slots remain, in deficit-round-robin
  // order across workflows and FIFO within one.
  void GrantQueuedLocked(std::vector<Grant>* grants);
  // Outside mutex_: puts granted tickets on the serving pool.
  void DispatchGrants(std::vector<Grant> grants);
  // Runs an admitted request on the serving pool: parse the body, invoke,
  // release the slot, answer.
  void RunGranted(std::string workflow_name, Ticket ticket,
                  int64_t queue_wait_nanos);
  // Answers a request admission turned away, by `status` as Admission
  // documents it: at once, or later when draining, re-registration or
  // migration emptied its queue.
  void Refuse(const std::string& workflow_name, const Ticket& ticket,
              const asbase::Status& status, bool migrated = false,
              int64_t predicted_wait_nanos = 0);
  // Takes every ticket out of `entry`'s queue (caller holds mutex_).
  std::vector<Ticket> TakeWaitersLocked(Entry& entry);
  // True iff `workflow_name` has a fresh migration tombstone (caller holds
  // mutex_): the workflow is not gone, it moved shards.
  bool MigratedAwayLocked(const std::string& workflow_name) const;
  // Wait the next arrival would see: (position) × service EWMA scaled by
  // the workflow's concurrency. Zero until a service-time sample exists.
  int64_t PredictedWaitNanosLocked(const Entry& entry) const;

  // Deficit-round-robin fairness across workflows competing for global
  // in-flight slots (ROADMAP "weighted slot shares"): among workflows with
  // a runnable queue head, advance every deficit by the minimum number of
  // whole rounds (deficit += rounds × weight) that makes someone reach 1,
  // and pick the highest resulting deficit (ties: smallest name). A
  // weight-3 workflow therefore banks credit 3× as fast and wins ~3 of
  // every 4 contested grants against a weight-1 co-tenant, while equal
  // weights degenerate to plain round-robin. Pure — ChargeGrantLocked
  // applies the mutation once per actual grant.
  // Empty when nobody eligible is queued.
  std::string NextWeightedWorkflowLocked() const;
  // The pass both DRR steps share: the fewest whole rounds until some
  // eligible workflow's deficit reaches 1 (0 when one already has credit);
  // -1 when nobody eligible is queued.
  double MinDrrRoundsLocked() const;
  // Eligible for a grant: a queued ticket its concurrency cap lets run.
  static bool HasRunnableHead(const Entry& entry);
  // Applies the DRR bookkeeping for granting `winner` a slot. Must run
  // while the winner's ticket is still queued (so the eligible set matches
  // what NextWeightedWorkflowLocked saw).
  void ChargeGrantLocked(const std::string& winner);

  // {workflow=<name>} plus this shard's label (if sharded).
  asobs::Labels WorkflowLabels(const std::string& workflow_name) const;
  asobs::Labels ShardLabels() const;

  ashttp::HttpResponse ServeMetrics() const;

  // Deposits one record (with `trace` attached, if any) into this shard's
  // flight ring and keeps the records/dropped/retained counters in step.
  void EmitFlight(uint32_t workflow_id, const asobs::FlightRecord& record,
                  std::shared_ptr<const asobs::Trace> trace = nullptr);

  // Everything the SLO anomaly trigger snapshots besides the flight ring,
  // collected under mutex_ and written to disk after it drops.
  struct BlackBoxRequest {
    std::string reason;
    std::string workflow;
    double fast_burn = 0;
    double slow_burn = 0;
    asbase::Json queues;
  };

  // Shared completion bookkeeping for every invocation outcome (success,
  // error, timeout, rejection): the service-time EWMA, SLO accounting +
  // burn gauges, and — on an SLO trigger — the black-box snapshot.
  void AccountOutcome(const std::string& workflow_name,
                      asobs::FlightOutcome outcome, int64_t total_nanos);

  // Serializes the flight ring + the request's queue/pool state to a JSON
  // file in ALLOY_BLACKBOX_DIR. Never called under mutex_ (file IO).
  void WriteBlackBox(const BlackBoxRequest& request);

  const ShardIdentity shard_;
  const std::shared_ptr<SnapshotStore> snapshots_;
  // Cached like a Registration's series: the inflight gauge moves on every
  // admission and release.
  asobs::Gauge* inflight_gauge_ = nullptr;
  // Drives every pool of this shard (idle eviction, pre-warm) from one
  // thread pinned to shard_.cpus, started with the first pool that needs
  // it. Declared before workflows_ so it outlives their pools.
  PoolWarmer warmer_;

  mutable std::mutex mutex_;
  bool draining_ = false;  // guarded by mutex_; set by BeginDrain
  std::map<std::string, Entry> workflows_;
  // Migration tombstones (guarded by mutex_): workflow -> MonoNanos of its
  // MigrateOut. Lets queued waiters (and requests racing the route flip)
  // distinguish "moved, retry elsewhere" from "gone, 404". Pruned lazily
  // after kMigrationTombstoneNanos and erased by a re-registration.
  std::map<std::string, int64_t> migrated_out_;
  static constexpr int64_t kMigrationTombstoneNanos = 5'000'000'000;  // 5 s
  size_t inflight_global_ = 0;  // guarded by mutex_
  ServingOptions serving_;  // guarded by mutex_ (max_inflight can rebalance)
  std::unique_ptr<asbase::ThreadPool> serving_pool_;
  std::unique_ptr<ashttp::HttpServer> watchdog_;

  // ---- flight recorder / tail retention / SLO (DESIGN.md §11) ----
  // Per-shard ring of records and their retained span trees; capacity
  // from ALLOY_FLIGHT_RING (default 1024, 0 = disabled, which retains no
  // trees either). HTTP scrapers read it without touching mutex_.
  std::unique_ptr<asobs::FlightRecorder> flight_;
  asobs::Counter* flight_records_ = nullptr;
  asobs::Counter* flight_dropped_ = nullptr;
  asobs::Counter* traces_retained_ = nullptr;
  asobs::Counter* blackbox_counter_ = nullptr;
  // Tail-retention threshold: the env/default value, which StartServing
  // may override. Atomic, so Finish reads it without mutex_.
  std::atomic<int64_t> trace_threshold_ms_{0};
  std::string blackbox_dir_;  // immutable after construction
  std::atomic<uint64_t> blackbox_seq_{0};
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_VISOR_H_
