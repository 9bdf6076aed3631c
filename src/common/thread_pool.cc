#include "src/common/thread_pool.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <system_error>

#include "src/common/logging.h"

namespace asbase {

ThreadPool::ThreadPool(size_t num_threads, size_t max_threads)
    : max_threads_(max_threads) {
#ifdef __linux__
  if (sched_getaffinity(0, sizeof(creator_mask_), &creator_mask_) != 0) {
    CPU_ZERO(&creator_mask_);
  }
#endif
  EnsureAtLeast(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    for (auto& worker : workers_) {
      worker->wake.notify_one();
    }
  }
  // Workers run what is still queued, then exit; nothing adds workers
  // once closed_ is set.
  for (auto& worker : workers_) {
    worker->thread.join();
  }
}

bool ThreadPool::Submit(std::function<void()>&& task) {
  Worker* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AS_CHECK(!closed_) << "Submit() after destruction";
    if (!idle_.empty()) {
      wake = idle_.back();
      idle_.pop_back();
      wake->idle = false;
    } else if (workers_.size() < max_threads_) {
      try {
        SpawnLocked(/*on_demand=*/true);
      } catch (const std::system_error& error) {
        AS_LOG(kWarn) << "thread pool cannot spawn a worker (" << error.what()
                      << "); " << workers_.size() << " workers serve its queue";
        if (workers_.empty()) {
          return false;
        }
      }
    }
    tasks_.push_back(std::move(task));
    ++inflight_;
  }
  if (wake != nullptr) {
    wake->wake.notify_one();
  }
  return true;
}

void ThreadPool::SetMaxThreads(size_t max_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_threads_ = max_threads;
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] { return inflight_ == 0; });
}

size_t ThreadPool::EnsureAtLeast(size_t num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t spawned = 0;
  while (workers_.size() < num_threads) {
    SpawnLocked(/*on_demand=*/false);
    ++spawned;
  }
  return spawned;
}

void ThreadPool::SpawnLocked(bool on_demand) {
  workers_.reserve(workers_.size() + 1);  // no throw once the thread runs
  auto worker = std::make_unique<Worker>();
  Worker* self = worker.get();
  // The new thread blocks on mutex_, held here, until the worker is listed.
  worker->thread = std::thread([this, self] { WorkerLoop(self); });
  if (!pinned_cpus_.empty()) {
    PinThreadToCpus(worker->thread, pinned_cpus_);
  } else if (on_demand) {
#ifdef __linux__
    // A worker spawned from a pinned thread (a shard's warmer granting a
    // queued ticket) would otherwise inherit that thread's pin.
    if (CPU_COUNT(&creator_mask_) > 0) {
      pthread_setaffinity_np(worker->thread.native_handle(),
                             sizeof(creator_mask_), &creator_mask_);
    }
#endif
  }
  workers_.push_back(std::move(worker));
}

bool PinThreadToCpus(std::thread& thread, const std::vector<int>& cpus) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &set);
    }
  }
  if (CPU_COUNT(&set) == 0) {
    return false;
  }
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)thread;
  (void)cpus;
  return false;
#endif
}

size_t ThreadPool::PinToCpus(const std::vector<int>& cpus) {
  std::lock_guard<std::mutex> lock(mutex_);
  pinned_cpus_ = cpus;
  size_t pinned = 0;
  for (auto& worker : workers_) {
    if (PinThreadToCpus(worker->thread, pinned_cpus_)) {
      ++pinned;
    }
  }
  if (!cpus.empty() && pinned < workers_.size()) {
    // Invalid cpuset for this machine (e.g. fewer cores than shards):
    // fall back to no affinity rather than half-pinning the pool.
    pinned_cpus_.clear();
  }
  return pinned;
}

std::vector<int> ThreadPool::pinned_cpus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_cpus_;
}

size_t ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::WorkerLoop(Worker* self) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (tasks_.empty()) {
      if (closed_) {
        return;
      }
      self->idle = true;
      idle_.push_back(self);
      self->wake.wait(lock, [&] { return !self->idle || closed_; });
      continue;
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // its captures die before the task counts as done
    lock.lock();
    if (--inflight_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

}  // namespace asbase
