#include "src/core/visor/wfd_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace alloy {
namespace {

WfdPoolOptions ReactiveOptions(size_t capacity) {
  WfdPoolOptions options;
  options.capacity = capacity;
  return options;
}

asobs::Labels PoolLabels(const std::string& workflow,
                         const asobs::Labels& extra) {
  asobs::Labels labels = {{"workflow", workflow}};
  labels.insert(labels.end(), extra.begin(), extra.end());
  return labels;
}

}  // namespace

// ------------------------------------------------------------ PoolWarmer

PoolWarmer::PoolWarmer(asobs::Labels labels, std::vector<int> cpus)
    : cpus_(std::move(cpus)),
      wakeups_(asobs::Registry::Global().GetCounter(
          "alloy_visor_warmer_wakeups_total", labels)) {}

PoolWarmer::~PoolWarmer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void PoolWarmer::Add(WfdPool* pool, int64_t deadline_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  deadlines_[pool] = deadline_nanos;
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { Loop(); });
    asbase::PinThreadToCpus(thread_, cpus_);
  } else if (deadline_nanos < sleeping_until_) {
    sleeping_until_ = kAwake;
    wake_cv_.notify_one();
  }
}

void PoolWarmer::Remove(WfdPool* pool) {
  std::unique_lock<std::mutex> lock(mutex_);
  deadlines_.erase(pool);
  tick_done_cv_.wait(lock, [&] { return ticking_ != pool; });
}

void PoolWarmer::Schedule(WfdPool* pool, int64_t deadline_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = deadlines_.find(pool);
  if (it == deadlines_.end()) {
    return;
  }
  it->second = std::min(it->second, deadline_nanos);
  if (deadline_nanos < sleeping_until_) {
    // Wake once: until the thread rescans, later Schedules need not notify.
    sleeping_until_ = kAwake;
    wake_cv_.notify_one();
  }
}

void PoolWarmer::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<WfdPool*> due;
  while (!stopping_) {
    const int64_t now = asbase::MonoNanos();
    int64_t earliest = kNever;
    due.clear();
    for (auto& [pool, deadline] : deadlines_) {
      if (deadline <= now) {
        due.push_back(pool);
        deadline = kNever;  // consumed: the tick returns the next one
      } else {
        earliest = std::min(earliest, deadline);
      }
    }
    if (due.empty()) {
      sleeping_until_ = earliest;
      const auto woken = [this] {
        return stopping_ || sleeping_until_ == kAwake;
      };
      if (earliest == kNever) {
        wake_cv_.wait(lock, woken);
      } else {
        wake_cv_.wait_for(lock, std::chrono::nanoseconds(earliest - now),
                          woken);
      }
      sleeping_until_ = kAwake;
      wakeups_.Add(1);
      continue;
    }
    // One step per due pool, off-lock so Schedule, Add and Remove never
    // wait for a factory. Remove erases the entry first and then waits for
    // ticking_ to move on, so a pool removed mid-turn is skipped.
    for (WfdPool* pool : due) {
      if (stopping_ || deadlines_.count(pool) == 0) {
        continue;
      }
      ticking_ = pool;
      lock.unlock();
      const int64_t next = pool->Tick();
      lock.lock();
      ticking_ = nullptr;
      tick_done_cv_.notify_all();
      auto it = deadlines_.find(pool);
      if (it != deadlines_.end()) {
        it->second = std::min(it->second, next);
      }
    }
  }
}

// --------------------------------------------------------------- WfdPool

WfdPool::WfdPool(const std::string& workflow, size_t capacity)
    : WfdPool(workflow, ReactiveOptions(capacity)) {}

WfdPool::WfdPool(const std::string& workflow, WfdPoolOptions options)
    : options_(std::move(options)),
      workflow_(workflow),
      hits_(asobs::Registry::Global().GetCounter(
          "alloy_visor_pool_hits_total",
          PoolLabels(workflow, options_.extra_labels))),
      misses_(asobs::Registry::Global().GetCounter(
          "alloy_visor_pool_misses_total",
          PoolLabels(workflow, options_.extra_labels))),
      evictions_(asobs::Registry::Global().GetCounter(
          "alloy_visor_pool_evictions_total",
          PoolLabels(workflow, options_.extra_labels))),
      prewarms_(asobs::Registry::Global().GetCounter(
          "alloy_visor_prewarms_total",
          PoolLabels(workflow, options_.extra_labels))),
      resident_gauge_(asobs::Registry::Global().GetGauge(
          "alloy_visor_pool_resident_bytes",
          PoolLabels(workflow, options_.extra_labels))),
      lease_hist_(asobs::Registry::Global().GetHistogram(
          "alloy_visor_pool_lease_nanos",
          PoolLabels(workflow, options_.extra_labels))) {
  last_activity_nanos_ = asbase::MonoNanos();
  // A warmer is needed only when it has something to do: a floor or a
  // predictive refill needs the factory; the idle-TTL evictor does not.
  const bool needs_warmer =
      options_.capacity > 0 &&
      ((options_.factory != nullptr) || options_.idle_ttl_ms > 0);
  if (needs_warmer) {
    AS_CHECK(options_.warmer != nullptr)
        << "pool '" << workflow << "' has a factory or idle TTL but no warmer";
    warmer_ = options_.warmer;
    // Due now when there is a min_warm floor to fill, else nothing yet.
    warmer_deadline_ = NextDeadlineLocked(last_activity_nanos_);
    warmer_->Add(this, warmer_deadline_);
  }
}

WfdPool::~WfdPool() { Shutdown(); }

void WfdPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  if (warmer_ != nullptr) {
    warmer_->Remove(this);
  }
  Clear();
}

std::unique_ptr<Wfd> WfdPool::PopWarmLocked() {
  if (warm_.empty()) {
    return nullptr;
  }
  Parked parked = std::move(warm_.back());
  warm_.pop_back();
  // Un-charge exactly what was charged at park time, not ResidentBytes()
  // now — the two can differ, and the gauge is shared with other pools.
  resident_bytes_ -= std::min(resident_bytes_, parked.bytes);
  resident_gauge_.Add(-static_cast<int64_t>(parked.bytes));
  return std::move(parked.wfd);
}

void WfdPool::AddWarmLocked(std::unique_ptr<Wfd> wfd) {
  Parked parked;
  parked.bytes = wfd->ResidentBytes();
  parked.wfd = std::move(wfd);
  resident_bytes_ += parked.bytes;
  resident_gauge_.Add(static_cast<int64_t>(parked.bytes));
  warm_.push_back(std::move(parked));
}

std::vector<WfdPool::Parked> WfdPool::TakeAllLocked() {
  std::vector<Parked> doomed;
  doomed.swap(warm_);
  int64_t charged = 0;
  for (const Parked& parked : doomed) {
    charged += static_cast<int64_t>(parked.bytes);
  }
  resident_bytes_ = 0;
  resident_gauge_.Add(-charged);
  return doomed;
}

std::unique_ptr<Wfd> WfdPool::TryAcquireWarm() {
  std::unique_ptr<Wfd> wfd;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = asbase::MonoNanos();
    if (last_arrival_nanos_ != 0) {
      const double interval = static_cast<double>(now - last_arrival_nanos_);
      ewma_interarrival_nanos_ =
          ewma_interarrival_nanos_ == 0
              ? interval
              : kArrivalAlpha * interval +
                    (1.0 - kArrivalAlpha) * ewma_interarrival_nanos_;
    }
    last_arrival_nanos_ = now;
    last_activity_nanos_ = now;
    wfd = PopWarmLocked();
    ++outstanding_;
    // Wakes the warmer only when this lease drained the pool below target.
    ScheduleNextLocked(now);
  }
  if (wfd == nullptr) {
    misses_.Add(1);
  } else {
    hits_.Add(1);
  }
  return wfd;
}

void WfdPool::Park(std::unique_ptr<Wfd> wfd) {
  if (wfd == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = asbase::MonoNanos();
    last_activity_nanos_ = now;
    if (outstanding_ > 0) {
      --outstanding_;
    }
    if (!stopping_ && warm_.size() < options_.capacity) {
      AddWarmLocked(std::move(wfd));
      // A no-op after a warm hit: the idle deadline set when the WFD was
      // first parked is still pending with the warmer.
      ScheduleNextLocked(now);
      return;
    }
  }
  // At capacity: destroy outside the lock (WFD teardown is not cheap).
  evictions_.Add(1);
  wfd.reset();
}

void WfdPool::AbandonLease() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (outstanding_ > 0) {
    --outstanding_;
  }
  // The WFD this lease would have returned is gone: the pool may now be
  // below target, so give the warmer a chance to boot a replacement.
  ScheduleNextLocked(asbase::MonoNanos());
}

std::vector<std::unique_ptr<Wfd>> WfdPool::TakeWarmForHandoff() {
  std::vector<Parked> taken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    taken = TakeAllLocked();
  }
  // Not evictions: these WFDs keep living, in another pool.
  std::vector<std::unique_ptr<Wfd>> wfds;
  wfds.reserve(taken.size());
  for (Parked& parked : taken) {
    wfds.push_back(std::move(parked.wfd));
  }
  return wfds;
}

void WfdPool::AdoptWarm(std::unique_ptr<Wfd> wfd) {
  if (wfd == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = asbase::MonoNanos();
    last_activity_nanos_ = now;
    if (!stopping_ && warm_.size() < options_.capacity) {
      AddWarmLocked(std::move(wfd));
      ScheduleNextLocked(now);
      return;
    }
  }
  evictions_.Add(1);
  wfd.reset();
}

void WfdPool::Clear() {
  std::vector<Parked> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doomed = TakeAllLocked();
  }
  evictions_.Add(doomed.size());
  doomed.clear();
}

size_t WfdPool::warm_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_.size();
}

size_t WfdPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

size_t WfdPool::target_warm() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return TargetWarmLocked(asbase::MonoNanos());
}

bool WfdPool::IdleLocked(int64_t now) const {
  return options_.idle_ttl_ms > 0 &&
         now - last_activity_nanos_ > options_.idle_ttl_ms * 1'000'000;
}

size_t WfdPool::TargetWarmLocked(int64_t now) const {
  if (IdleLocked(now)) {
    return 0;  // quiet workflow: let the pool drain entirely
  }
  size_t target = options_.min_warm;
  if (ewma_interarrival_nanos_ > 0 && last_arrival_nanos_ != 0) {
    // Age the EWMA against the gap since the last arrival so a finished
    // burst cannot pin the target high until the idle TTL fires.
    const double interarrival =
        std::max(ewma_interarrival_nanos_,
                 static_cast<double>(now - last_arrival_nanos_));
    const double predicted_arrivals =
        static_cast<double>(kWarmHorizonNanos) / interarrival;
    target = std::max(target,
                      static_cast<size_t>(std::ceil(predicted_arrivals)));
  }
  return std::min(target, options_.capacity);
}

bool WfdPool::BelowTargetLocked(int64_t now) const {
  // Outstanding leases count as provisioned: each comes back via Park, and
  // a replacement booted meanwhile would only evict it on return — churn
  // that costs a module reload on the next lease.
  return options_.factory != nullptr &&
         warm_.size() + prewarming_ + outstanding_ < TargetWarmLocked(now);
}

int64_t WfdPool::NextDeadlineLocked(int64_t now) const {
  if (stopping_) {
    return PoolWarmer::kNever;
  }
  int64_t next = PoolWarmer::kNever;
  if (!warm_.empty() && options_.idle_ttl_ms > 0) {
    // First instant IdleLocked holds (it compares strictly).
    next = last_activity_nanos_ + options_.idle_ttl_ms * 1'000'000 + 1;
  }
  if (BelowTargetLocked(now)) {
    next = std::min(next, std::max(now, backoff_until_nanos_));
  }
  return next;
}

void WfdPool::ScheduleNextLocked(int64_t now) {
  if (warmer_ == nullptr || stopping_) {
    return;
  }
  const int64_t deadline = NextDeadlineLocked(now);
  if (deadline >= warmer_deadline_) {
    return;
  }
  warmer_deadline_ = deadline;
  warmer_->Schedule(this, deadline);
}

int64_t WfdPool::Tick() {
  // Warmer lines (factory failures) interleave with every shard's traffic;
  // tag them with their shard + workflow.
  asbase::ScopedLogContext log_context(options_.log_shard, workflow_);
  std::unique_lock<std::mutex> lock(mutex_);
  const int64_t now = asbase::MonoNanos();
  if (stopping_) {
    return PoolWarmer::kNever;
  }
  if (IdleLocked(now) && !warm_.empty()) {
    // Idle-TTL eviction: a quiet workflow's parked WFDs pin heap + disk for
    // nothing; drop them all (destruction happens off-lock).
    std::vector<Parked> doomed = TakeAllLocked();
    lock.unlock();
    evictions_.Add(doomed.size());
    doomed.clear();
    lock.lock();
  } else if (now >= backoff_until_nanos_ && BelowTargetLocked(now)) {
    // Pre-warm one WFD toward the target; the next deadline is "now" while
    // the pool stays below it, so other pools get their turn in between.
    ++prewarming_;
    lock.unlock();
    auto wfd_or = options_.factory();
    lock.lock();
    --prewarming_;
    if (!wfd_or.ok()) {
      AS_LOG(kWarn) << "pre-warm factory failed ("
                    << wfd_or.status().ToString() << "); backing off";
      backoff_until_nanos_ = asbase::MonoNanos() + kFactoryBackoffNanos;
    } else if (!stopping_ && warm_.size() < options_.capacity) {
      prewarms_.Add(1);
      AddWarmLocked(std::move(*wfd_or));
    } else {
      // Raced with shutdown or a concurrent fill: destroy off-lock.
      std::unique_ptr<Wfd> doomed = std::move(*wfd_or);
      lock.unlock();
      evictions_.Add(1);
      doomed.reset();
      lock.lock();
    }
  }
  warmer_deadline_ = NextDeadlineLocked(asbase::MonoNanos());
  return warmer_deadline_;
}

}  // namespace alloy
