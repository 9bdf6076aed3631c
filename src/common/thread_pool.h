// Worker pool. Used by the orchestrator for stage fan-out (one resizable
// pool per WFD), the watchdog serving pipeline, and benches that drive
// open-loop load.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "src/common/queue.h"

namespace asbase {

// Pins `thread` to `cpus` via pthread_setaffinity_np. Best-effort: an empty
// or invalid set leaves the thread unpinned and returns false.
bool PinThreadToCpus(std::thread& thread, const std::vector<int>& cpus);

class ThreadPool {
 public:
  // `num_threads` may be 0 for a pool grown later via EnsureAtLeast.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Tasks run in FIFO order across the workers.
  void Submit(std::function<void()> task);

  // Block until every task submitted so far has finished executing.
  void Drain();

  // Grows the pool to at least `num_threads` workers (never shrinks).
  // Returns how many workers were actually spawned — 0 when the pool is
  // already big enough, which is what makes reuse observable
  // (alloy_orch_thread_spawns_total stays flat on a warm WFD).
  size_t EnsureAtLeast(size_t num_threads);

  // Pins every current and future worker to `cpus` via
  // pthread_setaffinity_np (multi-visor sharding: a shard's stage workers
  // stay on the shard's core set). Best-effort: an empty or invalid set —
  // the no-affinity fallback when a shard's cpuset is too small for the
  // machine — leaves threads unpinned. Returns how many existing workers
  // were successfully pinned.
  size_t PinToCpus(const std::vector<int>& cpus);

  // The cpuset workers are pinned to (empty = unpinned).
  std::vector<int> pinned_cpus() const;

  size_t num_threads() const;

 private:
  void WorkerLoop();

  BlockingQueue<std::function<void()>> tasks_;
  mutable std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
  std::vector<int> pinned_cpus_;  // guarded by workers_mutex_

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  size_t inflight_ = 0;  // queued + running
};

}  // namespace asbase

#endif  // SRC_COMMON_THREAD_POOL_H_
