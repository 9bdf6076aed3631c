// The WorkFlow Domain (WFD) abstraction (§3.1).
//
// A WFD is the unit of workflow deployment: one shared address space holding
// the user functions, the as-libos instance, the heap, and the MPK partition
// layout. Strong isolation exists *between* WFDs (separate LibOS instances,
// separate heaps, separate keys); functions *inside* a WFD share the address
// space so intermediate data moves by reference (§5).
//
// MPK layout (§3.3): the WFD allocates a *system* key (as-libos/as-visor
// state) and a *user* key (heap + user data). User code runs under a PKRU
// that denies the system key; the as-std trampoline raises permissions
// around every LibOS call. With `inter_function_isolation` (AS-IFI), each
// registered function instance additionally gets its own key and pays a PKRU
// switch around intermediate-buffer accesses.
//
// Memory (DESIGN.md §14): a WFD is one mapping, an asalloc::Reservation of
// [system | disk | heap] pages made at boot. The Wfd object, its LibOS and
// modules, the FAT volume, the MemDisk, the MPK runtime and the trampoline
// live in the system pages; the MemDisk's chunks in the disk range; the WFD
// heap in the heap range. Destroying the WFD unmaps the reservation, so
// nothing it allocated is left on the malloc heap. The system pages stay on
// key 0, as the malloc heap did.

#ifndef SRC_CORE_WFD_H_
#define SRC_CORE_WFD_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/alloc/reservation.h"
#include "src/common/thread_pool.h"
#include "src/core/libos/libos.h"
#include "src/core/wfd_snapshot.h"
#include "src/mpk/trampoline.h"

namespace alloy {

struct WfdOptions {
  std::string name = "wfd";

  // On-demand module loading (§4). false == the AS-load-all ablation.
  bool on_demand = true;
  // Reference passing for intermediate data (§5). false == the ablation that
  // moves intermediate data through fatfs files (AWS-recommended pattern).
  bool reference_passing = true;
  // AS-IFI: a protection key per function instance (§3.3, FINRA-style).
  bool inter_function_isolation = false;
  // Back the filesystem with ramfs instead of a FAT disk image (Fig 16).
  bool use_ramfs = false;

  size_t heap_bytes = 64u << 20;
  uint64_t disk_blocks = 128 * 1024;  // 64 MiB virtual disk

  // Virtual network attachment (optional).
  asnet::VirtualSwitch* fabric = nullptr;
  asnet::Ipv4Addr addr = 0;
  // Optional pre-populated disk image (not owned).
  asblk::BlockDevice* disk = nullptr;

  asmpk::MpkBackend mpk_backend = asmpk::PkeyRuntime::DefaultBackend();

  // CPUs this WFD's stage workers pin to (multi-visor sharding: the owning
  // shard's core set, so a WFD's stages stop bouncing across the machine).
  // Empty = no affinity. Best-effort; an invalid set falls back to unpinned.
  std::vector<int> cpu_affinity;

  // Invocation trace to hang wfd/libos spans off (optional, not owned; must
  // outlive the WFD). `trace_parent` is the span id to parent under.
  asobs::Trace* trace = nullptr;
  uint32_t trace_parent = 0;
};

class Wfd {
 public:
  // Instantiates the WFD: MPK keys + trampoline + (empty or full) LibOS.
  // The time this takes *is* the WFD part of cold start (Fig 10).
  static asbase::Result<std::unique_ptr<Wfd>> Create(WfdOptions options);

  // Clone boot (DESIGN.md §14): a fresh WFD — own MPK keys, own trampoline,
  // own heap — whose LibOS modules are constructed from a pristine template
  // instead of loaded: the heap maps fresh under the clone's user key, the
  // disk is a copy-on-write view of the freshly formatted image; fds and
  // the netstack register lazily. O(µs) where Create plus the module loads
  // is ~ms. Fails when the options are incompatible with the template's
  // geometry, or name a ramfs or external disk.
  static asbase::Result<std::unique_ptr<Wfd>> CloneFromSnapshot(
      WfdOptions options, std::shared_ptr<const WfdSnapshot> snapshot);

  // Describes this WFD as a pristine template: its loaded modules plus the
  // disk and FAT as they were right after format and mount — never the
  // files or heap bytes its invocations wrote, so it may be called on a WFD
  // in any state. `max_image_bytes` caps the template's one-time resident
  // cost (disk chunks); 0 = no cap. Fails for ramfs and external-disk WFDs.
  asbase::Result<std::shared_ptr<const WfdSnapshot>> CaptureSnapshot(
      size_t max_image_bytes = 0);

  ~Wfd();

  Wfd(const Wfd&) = delete;
  Wfd& operator=(const Wfd&) = delete;

  // A Wfd lives in the system pages of its own reservation, and deleting it
  // unmaps the reservation (Boot is the only `new`).
  static void* operator new(size_t size, asalloc::Reservation* reservation);
  static void operator delete(void* wfd);
  static void operator delete(void* wfd, asalloc::Reservation* reservation);

  Libos& libos() { return *libos_; }
  asmpk::PkeyRuntime& mpk() { return *mpk_; }
  asmpk::Trampoline& trampoline() { return *trampoline_; }

  // The WfdOptions a WFD keeps after boot.
  bool reference_passing() const { return reference_passing_; }
  bool inter_function_isolation() const { return inter_function_isolation_; }
  asobs::Trace* trace() const { return trace_; }
  uint32_t trace_parent() const { return trace_parent_; }

  // Nanoseconds spent inside Create() — the WFD instantiation part of the
  // cold-start budget. Module load time accrues separately in the LibOS.
  int64_t creation_nanos() const { return creation_nanos_; }

  // Re-points the invocation trace (and the parent span id) this WFD's
  // spans attach to. A pooled WFD outlives the per-invocation trace it was
  // created with; the pool calls SetTrace(trace, id) on lease and
  // SetTrace(nullptr, 0) before parking the WFD warm.
  void SetTrace(asobs::Trace* trace, uint32_t trace_parent);

  // Prepares the WFD for the next invocation of the same workflow (warm
  // start): clears per-invocation LibOS state (slots, fds, mmaps) and
  // reopens the thread's PKRU. Loaded modules and the heap survive. On
  // failure the WFD must be destroyed, not re-pooled.
  asbase::Status Reset();

  // Under AS-IFI, allocates a dedicated key for a function instance.
  // Returns the WFD user key otherwise.
  asbase::Result<asmpk::ProtKey> RegisterFunctionInstance(
      const std::string& function_name);

  asmpk::ProtKey system_key() const { return system_key_; }
  asmpk::ProtKey user_key() const { return user_key_; }

  // PKRU for user code: everything denied except the given function key and
  // the shared user key.
  uint32_t UserPkru(asmpk::ProtKey function_key) const;

  // Resident memory attributable to this WFD (Fig 17b): its heap, the disk
  // chunks it wrote (CoW-aware) and its system pages.
  size_t ResidentBytes() const;
  // The system pages of that: the WFD's own objects and the LibOS state
  // they hold (cached FAT and directory sectors, fd table, bitmaps).
  size_t ResidentSystemBytes() const;

  // The one mapping this WFD's memory lives in.
  const asalloc::Reservation& reservation() const { return *reservation_; }

  // ---- stage worker pool (orchestrator data plane) ----
  // Grows this WFD's worker pool to at least `num_threads`
  // (Orchestrator::StageWorkersNeeded: the invoking thread runs one instance
  // of every stage itself) and returns how many threads were actually
  // spawned.
  // The pool is created on the first non-zero request, so a fan-out-1
  // workflow never gets one; it survives Reset() and pool park, so a reused
  // WFD dispatches stage instances with zero spawns; the pool's threads die
  // with the WFD. The warmer factory calls this too, so pre-warmed WFDs
  // arrive with their workers already up.
  size_t EnsureStageWorkers(size_t num_threads);
  // The pool itself (nullptr until EnsureStageWorkers(n > 0) ran once).
  asbase::ThreadPool* stage_workers() { return stage_workers_.get(); }
  size_t stage_worker_count() const;

 private:
  Wfd(asalloc::Reservation* reservation, const WfdOptions& options);

  // Create and CloneFromSnapshot: the reservation, keys, trampoline, and a
  // LibOS that is either empty (or fully loaded, load-all) or built from
  // `snapshot`.
  static asbase::Result<std::unique_ptr<Wfd>> Boot(
      WfdOptions options, const WfdSnapshot* snapshot);

  asalloc::Reservation* const reservation_;
  const bool reference_passing_;
  const bool inter_function_isolation_;
  asobs::Trace* trace_;
  uint32_t trace_parent_;
  // Stage workers pin here (WfdOptions::cpu_affinity).
  const std::pmr::vector<int> cpu_affinity_;
  std::unique_ptr<asmpk::PkeyRuntime> mpk_;
  asmpk::ProtKey system_key_ = 0;
  asmpk::ProtKey user_key_ = 0;
  std::unique_ptr<asmpk::Trampoline> trampoline_;
  std::unique_ptr<Libos> libos_;
  int64_t creation_nanos_ = 0;

  // Declared last so the workers join before the LibOS (heap, netstack)
  // they may have touched is torn down.
  mutable std::mutex stage_workers_mutex_;
  std::unique_ptr<asbase::ThreadPool> stage_workers_;
};

}  // namespace alloy

#endif  // SRC_CORE_WFD_H_
