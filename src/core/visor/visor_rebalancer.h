// Elastic shard mesh rebalancer (DESIGN.md §12): a control loop that keeps
// the shard mesh matched to the offered load.
//
// The consistent-hash router fixes each workflow's placement at registration
// and slices the global in-flight budget evenly. Both are wrong the moment
// traffic skews: a Zipf-shaped workload parks most demand on one shard,
// whose admission queue rejects while its neighbours idle with unused
// budget. The rebalancer samples each shard's load (inflight + queued
// tickets, straight from the gauges the admission path already maintains)
// and applies, at most one per tick, the cheapest action that helps:
//
//   1. scale   — grow/shrink the shard count within RouterOptions bounds
//                when mesh-wide utilization crosses the thresholds
//                (consistent hashing keeps key movement ~1/(N+1));
//   2. migrate — move a whole workflow off the hottest shard onto the
//                coldest (warm pool + queued tickets hand off, see
//                AsVisorRouter::MigrateWorkflow) when the demand ratio
//                clears `migrate_ratio` and the move strictly lowers the
//                peak;
//   3. reslice — re-divide the global `max_inflight` budget across shards
//                proportionally to demand, with a dead band so balanced
//                load keeps the even split and a near-miss does not churn.
//
// Hysteresis = dead band + cooldown: an action arms a cooldown during which
// the loop only observes, so one burst cannot trigger a reslice, a
// migration, and a scale-up in three consecutive ticks. Every action is
// counted (alloy_rebalance_*_total) and logged to asobs::RebalanceLog,
// which rides along in /debug/flight and black-box snapshots.
//
// Only the admission *budget* moves, and capacity moves with it: a shard's
// serving workers start on demand, one per granted invocation, capped by
// its max_inflight slice (AsVisor::SetMaxInflight raises the cap), so a
// slice shifted to a hot shard runs there in parallel.

#ifndef SRC_CORE_VISOR_VISOR_REBALANCER_H_
#define SRC_CORE_VISOR_VISOR_REBALANCER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/visor/visor.h"

namespace alloy {

class AsVisorRouter;

struct RebalancerOptions {
  // Master switch: off = the router behaves exactly as before this PR
  // (static even slices, no migration, fixed shard count).
  bool enabled = false;
  // Control-loop period. Each tick samples load and applies at most one
  // action.
  int64_t interval_ms = 200;
  // Minimum time between actions; ticks inside the cooldown only observe.
  int64_t cooldown_ms = 1000;
  // Reslice dead band, in in-flight slots: act only when some shard's
  // demand-weighted target differs from its current slice by at least this
  // much. >= 1; 2 (default) means a one-slot wobble never reslices.
  size_t reslice_deadband = 2;
  // Allow live workflow migration off the hottest shard.
  bool migrate = true;
  // Migrate only when hot-shard demand >= migrate_ratio * (cold + 1); the
  // +1 keeps an idle cold shard from attracting every workflow in turn.
  double migrate_ratio = 2.0;
  // Allow shard-count changes (within RouterOptions min/max bounds).
  bool scale = false;
  // Mesh-wide (inflight + queued) / max_inflight thresholds for scaling.
  double scale_up_utilization = 0.9;
  double scale_down_utilization = 0.25;

  // Environment overrides, applied on top of `base` (the programmatic
  // config): ALLOY_REBALANCE (0/1 -> enabled), ALLOY_REBALANCE_INTERVAL_MS,
  // ALLOY_REBALANCE_COOLDOWN_MS, ALLOY_REBALANCE_DEADBAND,
  // ALLOY_REBALANCE_MIGRATE (0/1), ALLOY_REBALANCE_MIGRATE_RATIO_PCT,
  // ALLOY_REBALANCE_SCALE (0/1), ALLOY_REBALANCE_SCALE_UP_PCT,
  // ALLOY_REBALANCE_SCALE_DOWN_PCT. Ratios are percent integers (200 =
  // 2.0x) so the env stays integer-only like every other ALLOY_* knob.
  static RebalancerOptions FromEnv(RebalancerOptions base);
};

// Demand-weighted division of `total` slots across `weights` (each >= 0):
// everyone gets a floor of 1, the rest distributes proportionally by
// largest remainder (ties to the lowest shard), and the slice sum is
// exactly max(total, weights.size()). Exposed for tests; the rebalancer
// feeds it weight = demand + 1 so an idle shard keeps a trickle.
std::vector<size_t> DemandWeightedSlices(size_t total,
                                         const std::vector<double>& weights);

class ShardRebalancer {
 public:
  ShardRebalancer(AsVisorRouter* router, RebalancerOptions options);
  ~ShardRebalancer();

  ShardRebalancer(const ShardRebalancer&) = delete;
  ShardRebalancer& operator=(const ShardRebalancer&) = delete;

  // Starts the control thread (no-op when already running).
  void Start();
  // Stops and joins it. Safe to call repeatedly; the destructor calls it.
  void Stop();

  // One deterministic control pass: sample, decide, apply at most one
  // action. Returns true when an action was taken. The loop calls this;
  // tests call it directly (with cooldown_ms = 0) to step the controller
  // without timing races.
  bool TickOnce();

  const RebalancerOptions& options() const { return options_; }
  uint64_t actions_taken() const;

 private:
  void Loop();

  // Decision stages, in priority order; each returns true if it acted.
  bool MaybeScale(const std::vector<AsVisor::ShardLoad>& loads,
                  const std::vector<double>& demand);
  bool MaybeMigrate(const std::vector<AsVisor::ShardLoad>& loads,
                    const std::vector<double>& demand);
  bool MaybeReslice(const std::vector<AsVisor::ShardLoad>& loads,
                    const std::vector<double>& demand);

  AsVisorRouter* const router_;
  const RebalancerOptions options_;

  asobs::Counter* reslices_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  int64_t last_action_nanos_ = 0;  // guarded by mutex_
  uint64_t actions_ = 0;           // guarded by mutex_
  std::thread thread_;
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_VISOR_REBALANCER_H_
