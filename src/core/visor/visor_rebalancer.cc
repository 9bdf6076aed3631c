#include "src/core/visor/visor_rebalancer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/core/visor/visor_router.h"
#include "src/obs/rebalance.h"

namespace alloy {
namespace {

using asbase::EnvFlag;
using asbase::EnvInt64;

// A ratio knob, set in whole percent.
double EnvPercent(const char* name, double fallback) {
  return static_cast<double>(EnvInt64(name, std::llround(fallback * 100))) /
         100.0;
}

std::string SlicesToString(const std::vector<size_t>& slices) {
  std::string out;
  for (size_t slice : slices) {
    if (!out.empty()) {
      out += "/";
    }
    out += std::to_string(slice);
  }
  return out;
}

}  // namespace

RebalancerOptions RebalancerOptions::FromEnv(RebalancerOptions base) {
  base.enabled = EnvFlag("ALLOY_REBALANCE", base.enabled);
  base.interval_ms = EnvInt64("ALLOY_REBALANCE_INTERVAL_MS", base.interval_ms);
  base.cooldown_ms = EnvInt64("ALLOY_REBALANCE_COOLDOWN_MS", base.cooldown_ms);
  base.reslice_deadband = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt64("ALLOY_REBALANCE_DEADBAND",
                  static_cast<int64_t>(base.reslice_deadband))));
  base.migrate = EnvFlag("ALLOY_REBALANCE_MIGRATE", base.migrate);
  base.migrate_ratio =
      EnvPercent("ALLOY_REBALANCE_MIGRATE_RATIO_PCT", base.migrate_ratio);
  base.scale = EnvFlag("ALLOY_REBALANCE_SCALE", base.scale);
  base.scale_up_utilization =
      EnvPercent("ALLOY_REBALANCE_SCALE_UP_PCT", base.scale_up_utilization);
  base.scale_down_utilization = EnvPercent("ALLOY_REBALANCE_SCALE_DOWN_PCT",
                                           base.scale_down_utilization);
  return base;
}

std::vector<size_t> DemandWeightedSlices(size_t total,
                                         const std::vector<double>& weights) {
  const size_t n = weights.size();
  std::vector<size_t> slices(n, 1);
  if (n == 0 || total <= n) {
    return slices;  // floor of 1 each is all the budget there is
  }
  double sum = 0;
  for (double weight : weights) {
    sum += std::max(weight, 0.0);
  }
  size_t remaining = total - n;
  if (sum <= 0) {
    // No demand signal: spread evenly, remainder to the lowest shards
    // (matches the router's static ShardSlice convention).
    for (size_t i = 0; i < n; ++i) {
      slices[i] += remaining / n + (i < remaining % n ? 1 : 0);
    }
    return slices;
  }
  // Largest-remainder apportionment: exact total, deterministic ties.
  std::vector<double> fractional(n, 0);
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double share =
        static_cast<double>(remaining) * std::max(weights[i], 0.0) / sum;
    const size_t whole = static_cast<size_t>(share);
    slices[i] += whole;
    assigned += whole;
    fractional[i] = share - static_cast<double>(whole);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return fractional[a] > fractional[b];
  });
  for (size_t k = 0; k < remaining - assigned; ++k) {
    ++slices[order[k % n]];
  }
  return slices;
}

ShardRebalancer::ShardRebalancer(AsVisorRouter* router,
                                 RebalancerOptions options)
    : router_(router), options_(std::move(options)) {
  reslices_ = &asobs::Registry::Global().GetCounter(
      "alloy_rebalance_reslices_total", {});
}

ShardRebalancer::~ShardRebalancer() { Stop(); }

void ShardRebalancer::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
      return;
    }
    running_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void ShardRebalancer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

uint64_t ShardRebalancer::actions_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return actions_;
}

void ShardRebalancer::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stopping_; });
    if (stopping_) {
      break;
    }
    lock.unlock();
    TickOnce();
    lock.lock();
  }
}

bool ShardRebalancer::TickOnce() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = asbase::MonoNanos();
    if (options_.cooldown_ms > 0 && last_action_nanos_ != 0 &&
        now - last_action_nanos_ < options_.cooldown_ms * 1'000'000) {
      return false;  // inside the cooldown: observe only
    }
  }
  const std::vector<AsVisor::ShardLoad> loads = router_->ShardLoads();
  if (loads.empty()) {
    return false;
  }
  // Demand = what the shard is carrying plus what is waiting on it — both
  // already maintained by the admission path, so sampling is one lock hold
  // per shard.
  std::vector<double> demand(loads.size(), 0);
  for (size_t i = 0; i < loads.size(); ++i) {
    demand[i] =
        static_cast<double>(loads[i].inflight) +
        static_cast<double>(loads[i].queued);
  }
  const bool acted = MaybeScale(loads, demand) ||
                     MaybeMigrate(loads, demand) ||
                     MaybeReslice(loads, demand);
  if (acted) {
    std::lock_guard<std::mutex> lock(mutex_);
    last_action_nanos_ = asbase::MonoNanos();
    ++actions_;
  }
  return acted;
}

bool ShardRebalancer::MaybeScale(const std::vector<AsVisor::ShardLoad>& loads,
                                 const std::vector<double>& demand) {
  if (!options_.scale) {
    return false;
  }
  const size_t n = loads.size();
  double total_demand = 0;
  size_t total_budget = 0;
  size_t total_queued = 0;
  for (size_t i = 0; i < n; ++i) {
    total_demand += demand[i];
    total_budget += loads[i].max_inflight;
    total_queued += loads[i].queued;
  }
  if (total_budget == 0) {
    return false;
  }
  const double utilization = total_demand / static_cast<double>(total_budget);
  if (utilization > options_.scale_up_utilization &&
      n < router_->max_shards_limit()) {
    return router_->ScaleTo(n + 1).ok();
  }
  // Scale down only from genuine quiet (no queue anywhere) — a shard worth
  // of queued work disappearing into a smaller mesh is the opposite of help.
  if (utilization < options_.scale_down_utilization && total_queued == 0 &&
      n > router_->min_shards()) {
    return router_->ScaleTo(n - 1).ok();
  }
  return false;
}

bool ShardRebalancer::MaybeMigrate(
    const std::vector<AsVisor::ShardLoad>& loads,
    const std::vector<double>& demand) {
  if (!options_.migrate || loads.size() < 2) {
    return false;
  }
  const size_t hot = static_cast<size_t>(
      std::max_element(demand.begin(), demand.end()) - demand.begin());
  const size_t cold = static_cast<size_t>(
      std::min_element(demand.begin(), demand.end()) - demand.begin());
  if (hot == cold ||
      demand[hot] < options_.migrate_ratio * (demand[cold] + 1.0)) {
    return false;
  }
  // Moving a shard's ONLY workflow just relocates the hotspot (and pays the
  // handoff); budget re-slicing serves that case better.
  if (loads[hot].workflows.size() < 2) {
    return false;
  }
  // Pick the movable workflow that minimizes the resulting peak across the
  // pair, requiring strict improvement so an oscillation cannot start.
  const AsVisor::WorkflowLoad* best = nullptr;
  double best_peak = demand[hot];
  for (const AsVisor::WorkflowLoad& workflow : loads[hot].workflows) {
    if (workflow.pinned) {
      continue;  // the operator chose this placement; never override it
    }
    const double moved =
        static_cast<double>(workflow.inflight) +
        static_cast<double>(workflow.queued);
    if (moved <= 0) {
      continue;  // moving an idle workflow changes nothing now
    }
    const double peak =
        std::max(demand[hot] - moved, demand[cold] + moved);
    if (peak < best_peak) {
      best_peak = peak;
      best = &workflow;
    }
  }
  if (best == nullptr) {
    return false;
  }
  return router_->MigrateWorkflow(best->name, cold).ok();
}

bool ShardRebalancer::MaybeReslice(
    const std::vector<AsVisor::ShardLoad>& loads,
    const std::vector<double>& demand) {
  const size_t total = router_->max_inflight_total();
  // Weight demand + 1 so an idle shard keeps a trickle of budget (a fresh
  // arrival there must not be rejected outright) and a uniform load
  // resolves to the even split.
  std::vector<double> weights(demand.size(), 0);
  for (size_t i = 0; i < demand.size(); ++i) {
    weights[i] = demand[i] + 1.0;
  }
  const std::vector<size_t> target = DemandWeightedSlices(total, weights);
  std::vector<size_t> current(loads.size(), 0);
  bool outside_deadband = false;
  for (size_t i = 0; i < loads.size(); ++i) {
    current[i] = loads[i].max_inflight;
    const size_t delta = target[i] > current[i] ? target[i] - current[i]
                                                : current[i] - target[i];
    if (delta >= options_.reslice_deadband) {
      outside_deadband = true;
    }
  }
  if (!outside_deadband) {
    return false;
  }
  if (!router_->SetShardSlices(target)) {
    return false;  // shard count changed mid-pass; next tick re-samples
  }
  reslices_->Add(1);
  asobs::RebalanceEvent event;
  event.kind = asobs::RebalanceKind::kReslice;
  event.detail =
      "slices " + SlicesToString(current) + " -> " + SlicesToString(target);
  asobs::RebalanceLog::Global().Record(std::move(event));
  AS_LOG(kInfo) << "resliced in-flight budget: " << SlicesToString(current)
                << " -> " << SlicesToString(target);
  return true;
}

}  // namespace alloy
