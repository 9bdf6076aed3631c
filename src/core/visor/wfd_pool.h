// Warm-WFD pool: caches instantiated WFDs between invocations of one
// workflow (serving layer, DESIGN.md §8).
//
// Cold starts are cheap in AlloyStack but not free — WFD instantiation plus
// the on-demand module loads a workflow triggers (Fig 10). Under sustained
// traffic the same modules load again and again; the pool amortizes that by
// keeping up to `capacity` fully-booted WFDs parked per workflow. Lifecycle:
//
//   lease (warm hit)  -> run -> reset ok  -> park warm      (reuse)
//   lease (miss)      -> Wfd::Create by the caller          (cold start)
//   run failed        -> destroy, never re-pool             (poisoned WFD)
//   reset failed      -> destroy                            (unreclaimable)
//   park while full   -> destroy                            (eviction)
//
// On top of the reactive store each pool is driven by a closed loop that
// (a) fills the pool to a `min_warm` floor as soon as the workflow is
// registered, (b) refills on drain, sized by an EWMA of the workflow's
// arrival rate so a traffic spike pays at most the cold starts already in
// flight when it lands, and (c) evicts every parked WFD once the workflow
// has been idle past `idle_ttl_ms`, so a quiet workflow's pool — and the
// heap + disk its WFDs pin — shrinks to zero. The loop's body is
// WfdPool::Tick, one step per call; a PoolWarmer (one per visor shard)
// calls it for every pool of the shard from a single thread that sleeps
// until the earliest pool deadline. The pool wakes its warmer only when a
// lease drains it below target, a lease is abandoned, or it gains a
// deadline it had none of — a warm hit and its park touch no warmer state.
// Pre-warming needs a `factory` callback (provided by the visor);
// caller-side cold starts (and the wfd_create trace span) stay with the
// visor so a cold start looks identical with or without pooling.
//
// Metrics, all labelled {workflow=...}: alloy_visor_pool_{hits,misses,
// evictions}_total, alloy_visor_prewarms_total (WFDs booted by the warmer),
// and alloy_visor_pool_resident_bytes (heap pinned by parked WFDs). The
// warmer counts its own wake-ups in alloy_visor_warmer_wakeups_total.

#ifndef SRC_CORE_VISOR_WFD_POOL_H_
#define SRC_CORE_VISOR_WFD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/wfd.h"
#include "src/obs/metrics.h"

namespace alloy {

class WfdPool;

// Drives WfdPool::Tick for every pool registered with it, from one thread
// started with the first pool. The thread sleeps until the earliest pool
// deadline (no fixed poll), then runs one tick per due pool per turn, so a
// slow factory delays the other pools by at most one boot.
class PoolWarmer {
 public:
  // "No deadline" for Tick and Schedule.
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  // `labels` tag alloy_visor_warmer_wakeups_total (the visor passes its
  // shard label); the thread pins itself to `cpus` (empty = no affinity).
  explicit PoolWarmer(asobs::Labels labels = {}, std::vector<int> cpus = {});
  // Joins the thread. Every pool must have been removed (WfdPool::Shutdown).
  ~PoolWarmer();

  PoolWarmer(const PoolWarmer&) = delete;
  PoolWarmer& operator=(const PoolWarmer&) = delete;

  // Registers `pool` with its first deadline (now when it has a min_warm
  // floor to fill, else kNever) and starts the thread if it is not running
  // yet.
  void Add(WfdPool* pool, int64_t deadline_nanos);
  // Unregisters `pool` and waits out a tick of it that is in flight, so no
  // tick runs on the pool once this returns. Must not be called from a tick.
  void Remove(WfdPool* pool);
  // Moves `pool`'s deadline to `deadline_nanos` if that is earlier, waking
  // the thread when it was sleeping past it. A pool that is not registered
  // (already removed) is ignored.
  void Schedule(WfdPool* pool, int64_t deadline_nanos);

 private:
  void Loop();

  const std::vector<int> cpus_;
  asobs::Counter& wakeups_;

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable tick_done_cv_;
  // Registered pools and their next deadline (kNever = none pending).
  std::map<WfdPool*, int64_t> deadlines_;
  // The deadline the thread sleeps until; Schedule wakes it only for an
  // earlier one. kNever while it sleeps without a deadline, kAwake while it
  // is awake or has been woken.
  static constexpr int64_t kAwake = std::numeric_limits<int64_t>::min();
  int64_t sleeping_until_ = kAwake;
  WfdPool* ticking_ = nullptr;  // pool whose Tick runs off-lock right now
  bool stopping_ = false;
  std::thread thread_;
};

struct WfdPoolOptions {
  // Max parked WFDs. 0 disables pooling (every lease misses, every park
  // evicts) and the warmer never starts.
  size_t capacity = 2;
  // Floor the warmer fills to proactively (clamped to capacity). 0 keeps the
  // pool purely reactive.
  size_t min_warm = 0;
  // Evict all parked WFDs after this long without a lease or a park. 0 =
  // parked WFDs never expire. Idleness overrides min_warm — the floor is
  // re-filled when traffic returns.
  int64_t idle_ttl_ms = 0;
  // Instantiates one fully-booted WFD for this workflow (blocking; called
  // off the pool lock by the warmer). Without it min_warm and the EWMA
  // refill are inert and only the reactive store + idle TTL work.
  std::function<asbase::Result<std::unique_ptr<Wfd>>()> factory;
  // Drives Tick. Required (and must outlive the pool's Shutdown) whenever
  // capacity > 0 and a factory or an idle TTL is set; ignored otherwise.
  PoolWarmer* warmer = nullptr;
  // Appended to {workflow=...} on every pool metric — the sharded visor
  // passes {alloy_visor_shard=i} so two shards (or an old and a new pool
  // during re-registration) never write the same series.
  asobs::Labels extra_labels;
  // Shard index for Tick's log context (`shard=N wf=name` prefixes); < 0 =
  // unsharded, no shard field.
  int log_shard = -1;
};

class WfdPool {
 public:
  // Reactive-only pool (no warmer); `workflow` labels the metrics.
  WfdPool(const std::string& workflow, size_t capacity);
  WfdPool(const std::string& workflow, WfdPoolOptions options);
  ~WfdPool();

  WfdPool(const WfdPool&) = delete;
  WfdPool& operator=(const WfdPool&) = delete;

  // Pops a warm WFD (counted as a hit) or returns nullptr (a miss — the
  // caller cold-starts via Wfd::Create and pays the instantiation). Every
  // call counts as an arrival for the warmer's rate EWMA.
  std::unique_ptr<Wfd> TryAcquireWarm();

  // Parks a successfully-reset WFD for reuse, ending the lease started by
  // the matching TryAcquireWarm. The caller must have called Wfd::Reset()
  // (ok) and Wfd::SetTrace(nullptr, 0) first. If the pool is at capacity
  // the WFD is destroyed and counted as an eviction.
  void Park(std::unique_ptr<Wfd> wfd);

  // Ends a lease whose WFD will NOT come back (failed run, failed reset,
  // pooling disabled). Every TryAcquireWarm must be balanced by exactly one
  // Park or AbandonLease, or the warmer under-provisions forever.
  void AbandonLease();

  // Lease phase stamp: wall time one lease took to produce a runnable WFD —
  // a warm pop, or the caller-side cold start on a miss. Feeds the
  // alloy_visor_pool_lease_nanos summary (and the flight recorder's lease
  // phase, which the visor stamps itself).
  void RecordLease(int64_t lease_nanos) { lease_hist_.Record(lease_nanos); }

  // Live-migration handoff (DESIGN.md §12): extracts every parked WFD,
  // un-charging the resident gauge, WITHOUT counting evictions — the WFDs
  // survive, they just change pools. The caller (router migration) hands
  // them to the new shard's pool via AdoptWarm and then Shutdowns this one.
  std::vector<std::unique_ptr<Wfd>> TakeWarmForHandoff();

  // Parks a WFD that was never leased from this pool — the receiving side
  // of a migration handoff. No lease accounting moves (there was no
  // TryAcquireWarm); a full pool destroys the WFD and counts an eviction,
  // exactly as Park would.
  void AdoptWarm(std::unique_ptr<Wfd> wfd);

  // Destroys every parked WFD (workflow re-registration, shutdown).
  // Counted as evictions.
  void Clear();

  // Removes the pool from its warmer (waiting out a tick in flight) and
  // clears it. Called by the destructor; the visor also calls it when a
  // re-registration replaces this pool, so an orphaned pool does not keep
  // pre-warming WFDs nobody will lease.
  void Shutdown();

  size_t warm_count() const;
  size_t capacity() const { return options_.capacity; }
  size_t min_warm() const { return options_.min_warm; }

  // Bytes of WFD heap currently pinned by parked WFDs (mirrors the
  // alloy_visor_pool_resident_bytes gauge).
  size_t resident_bytes() const;

  // Warm WFDs the warmer currently aims to keep parked (tests, ops).
  size_t target_warm() const;

 private:
  friend class PoolWarmer;

  // One step of the warmer's loop: evicts every parked WFD of an idle pool,
  // or boots one WFD toward the warm target. Returns the pool's next
  // deadline: now while still below target, the idle-TTL expiry while
  // something is parked, the back-off expiry after a failed factory, else
  // PoolWarmer::kNever.
  int64_t Tick();

  // How far ahead the warmer provisions: enough warm WFDs to absorb the
  // arrivals the EWMA predicts for the next horizon.
  static constexpr int64_t kWarmHorizonNanos = 100'000'000;  // 100 ms
  static constexpr double kArrivalAlpha = 0.2;
  // Pause after a failed factory before the next pre-warm attempt.
  static constexpr int64_t kFactoryBackoffNanos = 50'000'000;  // 50 ms

  // A parked WFD plus the byte count it was charged to the resident gauge
  // with. The gauge moves by deltas (Add), never absolute Set: during
  // re-registration an old and a new pool briefly share the series, and a
  // Set from either side would erase the other's contribution (observed as
  // the gauge stuck at 0 after a re-register under load). Recording the
  // charge makes the un-charge exact even if ResidentBytes() drifts while
  // the WFD is parked.
  struct Parked {
    std::unique_ptr<Wfd> wfd;
    size_t bytes = 0;
  };

  size_t TargetWarmLocked(int64_t now) const;
  bool IdleLocked(int64_t now) const;
  bool BelowTargetLocked(int64_t now) const;
  int64_t NextDeadlineLocked(int64_t now) const;
  // Asks the warmer for a tick at NextDeadlineLocked(now) unless one at or
  // before it is already pending. Locked: Shutdown sets stopping_ under the
  // same lock, so no Schedule can follow the pool's removal from the warmer.
  void ScheduleNextLocked(int64_t now);
  void AddWarmLocked(std::unique_ptr<Wfd> wfd);
  std::unique_ptr<Wfd> PopWarmLocked();
  // Drops every parked WFD from the store and un-charges the gauge; returns
  // the doomed WFDs for off-lock destruction.
  std::vector<Parked> TakeAllLocked();

  const WfdPoolOptions options_;
  const std::string workflow_;  // for Tick's log context
  asobs::Counter& hits_;
  asobs::Counter& misses_;
  asobs::Counter& evictions_;
  asobs::Counter& prewarms_;
  asobs::Gauge& resident_gauge_;
  asobs::LatencyHistogram& lease_hist_;

  // Set when the pool is registered with options_.warmer.
  PoolWarmer* warmer_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<Parked> warm_;
  size_t resident_bytes_ = 0;   // sum of parked WFDs' ResidentBytes()
  size_t prewarming_ = 0;       // warmer creations in flight (off-lock)
  // Leases in flight (TryAcquireWarm without a matching Park/AbandonLease).
  // They count toward the warm target: each will be parked back shortly, so
  // booting a replacement would only evict the experienced WFD on return.
  size_t outstanding_ = 0;
  bool stopping_ = false;

  // Arrival-rate EWMA (leases = arrivals) + idle tracking.
  double ewma_interarrival_nanos_ = 0;
  int64_t last_arrival_nanos_ = 0;
  int64_t last_activity_nanos_ = 0;
  // No pre-warm before this (set after a failed factory).
  int64_t backoff_until_nanos_ = 0;
  // The earliest tick this pool has asked its warmer for, as last set by
  // Tick or ScheduleNextLocked (kNever = none). While it is set, the warmer
  // holds a deadline no later for this pool or is about to tick it, so the
  // pool need not wake the warmer for a later one.
  int64_t warmer_deadline_ = PoolWarmer::kNever;
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_WFD_POOL_H_
