// Worker pool. Used by the orchestrator for stage fan-out (one resizable
// pool per WFD, grown up front by EnsureAtLeast), the watchdog serving
// pipeline (one pool per shard, grown on demand by Submit), and benches that
// drive open-loop load.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace asbase {

// Pins `thread` to `cpus` via pthread_setaffinity_np. Best-effort: an empty
// or invalid set leaves the thread unpinned and returns false.
bool PinThreadToCpus(std::thread& thread, const std::vector<int>& cpus);

class ThreadPool {
 public:
  // Starts `num_threads` workers now (0 is fine). `max_threads` caps
  // on-demand growth: Submit spawns a worker when every worker is busy and
  // the pool holds fewer than `max_threads`. 0 = no on-demand growth (the
  // pool grows only through EnsureAtLeast). The creating thread's CPU mask
  // is remembered for workers spawned on demand.
  explicit ThreadPool(size_t num_threads, size_t max_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; tasks run in FIFO order across the workers. Wakes
  // the most recently idle worker (its cache is the warmest, and the
  // others stay asleep); when none is idle and the pool is below its
  // on-demand cap, spawns one. Returns false, leaving `task` with the
  // caller, only when the pool has no worker and spawning one failed; a
  // failed spawn beside a live worker just queues the task.
  bool Submit(std::function<void()>&& task);

  // Block until every task submitted so far has finished executing.
  void Drain();

  // Replaces the on-demand cap. Workers already spawned stay (the pool
  // never shrinks).
  void SetMaxThreads(size_t max_threads);

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
  struct Worker {
    std::thread thread;
    // Signalled when Submit takes this worker off the idle stack.
    std::condition_variable wake;
    bool idle = false;  // on idle_; guarded by mutex_
  };

  void WorkerLoop(Worker* self);
  // Starts one worker, pinned to pinned_cpus_ if set, else (when
  // `on_demand`) given the creator's CPU mask. Throws what std::thread
  // throws when the thread cannot start.
  void SpawnLocked(bool on_demand);

  mutable std::mutex mutex_;
  std::deque<std::function<void()>> tasks_;      // guarded by mutex_
  std::vector<std::unique_ptr<Worker>> workers_;  // guarded by mutex_
  // Idle workers, most recently idle last; guarded by mutex_.
  std::vector<Worker*> idle_;
  size_t max_threads_;            // guarded by mutex_
  size_t inflight_ = 0;           // queued + running; guarded by mutex_
  bool closed_ = false;           // guarded by mutex_
  std::vector<int> pinned_cpus_;  // guarded by mutex_
  std::condition_variable drain_cv_;
#ifdef __linux__
  cpu_set_t creator_mask_{};  // empty when it could not be read
#endif
};

}  // namespace asbase

#endif  // SRC_COMMON_THREAD_POOL_H_
