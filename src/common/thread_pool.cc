#include "src/common/thread_pool.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/logging.h"

namespace asbase {

ThreadPool::ThreadPool(size_t num_threads) {
  EnsureAtLeast(num_threads);
}

ThreadPool::~ThreadPool() {
  tasks_.Close();
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++inflight_;
  }
  bool pushed = tasks_.Push(std::move(task));
  AS_CHECK(pushed) << "Submit() after destruction";
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return inflight_ == 0; });
}

size_t ThreadPool::EnsureAtLeast(size_t num_threads) {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  size_t spawned = 0;
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
    if (!pinned_cpus_.empty()) {
      PinThreadToCpus(workers_.back(), pinned_cpus_);
    }
    ++spawned;
  }
  return spawned;
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
  std::lock_guard<std::mutex> lock(workers_mutex_);
  pinned_cpus_ = cpus;
  size_t pinned = 0;
  for (auto& worker : workers_) {
    if (PinThreadToCpus(worker, pinned_cpus_)) {
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
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return pinned_cpus_;
}

size_t ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return workers_.size();
}

void ThreadPool::WorkerLoop() {
  while (auto task = tasks_.Pop()) {
    (*task)();
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (--inflight_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

}  // namespace asbase
