// as-libos: the kernel-functionality layer of a WFD (§3.4, Table 2).
//
// One Libos instance per WFD; functions from different workflows go through
// different instances, which is what isolates their kernel state (§3.1).
// Modules are constructed on demand: nothing is instantiated at WFD creation
// until a syscall needs a module (Figure 7's slow path); later calls find the
// module present (fast path). `Options::load_all` disables this for the
// AS-load-all ablation, constructing every module at boot.
//
// Each module's construction does the real work its Rust counterpart does —
// the mm module maps and initializes the heap, the fatfs module formats and
// mounts the FAT volume, the socket module attaches a TUN port and starts
// the stack's poller thread — so cold-start measurements (Fig 10/14) time
// genuine initialization, not sleeps.

#ifndef SRC_CORE_LIBOS_LIBOS_H_
#define SRC_CORE_LIBOS_LIBOS_H_

#include <array>
#include <atomic>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/alloc/arena.h"
#include "src/alloc/linked_list_allocator.h"
#include "src/alloc/slot_registry.h"
#include "src/blockdev/block_device.h"
#include "src/common/resource_object.h"
#include "src/common/status.h"
#include "src/core/libos/module.h"
#include "src/fatfs/fat_volume.h"
#include "src/fatfs/ram_filesystem.h"
#include "src/mpk/pkey_runtime.h"
#include "src/netstack/stack.h"

namespace asobs {
class Trace;
}

namespace alloy {

struct WfdSnapshot;

// A Libos, its modules and their state live in `Options::memory` (DESIGN.md
// §14): a WFD passes the system pages of its reservation, so destroying the
// WFD leaves nothing the LibOS allocated on the malloc heap.
class Libos : public asbase::ResourceObject {
 public:
  struct Options {
    // Disable on-demand loading: construct every module in the constructor
    // (the paper's "AS-load-all" configuration).
    bool load_all = false;
    // Back the filesystem with ramfs instead of fatfs (Fig 16).
    bool use_ramfs = false;
    size_t heap_bytes = 64u << 20;
    uint64_t disk_blocks = 128 * 1024;  // 64 MiB virtual disk
    // Optional virtual network; without it the socket module is unavailable.
    asnet::VirtualSwitch* fabric = nullptr;
    asnet::Ipv4Addr addr = 0;
    // Optional pre-existing disk image (e.g. shared input data); the libos
    // does not take ownership. When null, the fatfs module creates and
    // formats a fresh MemDisk.
    asblk::BlockDevice* disk = nullptr;
    // MPK runtime + key protecting the user heap; may be null in tests.
    asmpk::PkeyRuntime* mpk = nullptr;
    asmpk::ProtKey heap_key = 0;
    // Invocation trace to attach module_load spans to (may be null). The
    // libos does not take ownership; the trace must outlive the WFD.
    asobs::Trace* trace = nullptr;
    uint32_t trace_parent = 0;
    // Where the LibOS keeps what it owns: the system resource and the heap
    // and disk ranges of the WFD's reservation (page-aligned, heap_bytes
    // rounded up to pages and MemDisk::StorageBytes(disk_blocks) long,
    // outliving the LibOS). Wfd::Boot, the only user, sets all three.
    std::pmr::memory_resource* memory = nullptr;
    std::span<uint8_t> heap_pages;
    std::span<uint8_t> disk_pages;
  };

  explicit Libos(Options options);

  // Clone boot (DESIGN.md §14): constructs the snapshot's modules without
  // loading them — a fresh heap arena + allocator bound under this LibOS's
  // MPK key, the disk as a chunk-CoW view of the pristine image, the FAT
  // volume mounted from metadata without device reads. No LoadModuleImage
  // (dlmopen) cost is paid; load_nanos_ stays zero so warm-delta accounting
  // is unaffected. The socket module (if the template had one) is NOT
  // constructed — the netstack registers lazily on first use. Check
  // clone_status() before using the instance.
  Libos(Options options, const WfdSnapshot& snapshot);

  // Describes this LibOS as a pristine template into `out`: the loaded
  // module set plus the disk and FAT as they were right after format and
  // mount. Nothing a function wrote is part of it, so it may be called at
  // any time. Fails for ramfs and external-disk WFDs.
  asbase::Status CaptureSnapshot(WfdSnapshot* out) const;

  // kOk unless the clone-boot constructor failed (e.g. the MPK bind).
  const asbase::Status& clone_status() const { return clone_status_; }

  ~Libos();

  Libos(const Libos&) = delete;
  Libos& operator=(const Libos&) = delete;

  // ---- module lifecycle (the as-visor loader calls this; as-std reaches it
  // through the trampoline) ----
  asbase::Status EnsureLoaded(ModuleKind kind);
  bool IsLoaded(ModuleKind kind) const;

  // Re-points the invocation trace module_load spans attach to. Pooled WFDs
  // call this on every lease (new trace) and release (nullptr) — the
  // previous trace dies with its invocation while the LibOS lives on.
  void SetTrace(asobs::Trace* trace, uint32_t trace_parent);

  // Clears per-invocation state so the LibOS can serve the next invocation
  // of the same workflow (warm start): drops unconsumed slot buffers,
  // closes open fds, unmaps mmap regions, then returns the heap's free
  // pages to the kernel. Loaded modules, the heap mapping and filesystem
  // contents survive — skipping their construction is the warm-start win.
  // Fails if live state cannot be reclaimed; the caller must then destroy
  // the WFD instead of re-pooling it.
  asbase::Status ResetForReuse();
  std::vector<ModuleKind> LoadedModules() const;
  // Bitmask (1 << kind) of the modules this LibOS loaded itself, i.e. paid
  // LoadModuleImage for — loaded modules minus those a clone boot
  // constructed from its template.
  uint32_t PaidModules() const;
  int64_t ModuleLoadNanos(ModuleKind kind) const;
  int64_t TotalLoadNanos() const;

  // ---- mm ----
  // Allocates a buffer on the WFD heap and registers it under `slot`.
  asbase::Result<void*> AllocBuffer(const std::string& slot, size_t size,
                                    size_t align, uint64_t fingerprint);
  // Transfers ownership of the slot's buffer to the caller (removes the
  // slot; single-consumer semantics, §7.1).
  asbase::Result<asalloc::BufferRecord> AcquireBuffer(const std::string& slot,
                                                      uint64_t fingerprint);
  // Re-registers a heap buffer the caller already owns (obtained from
  // AllocBuffer/AcquireBuffer) under a new slot: ownership transfer along a
  // chain without copying.
  asbase::Status RegisterBuffer(const std::string& slot, void* addr,
                                size_t size, uint64_t fingerprint);
  asbase::Result<void*> HeapAllocate(size_t size, size_t align = 16);
  asbase::Status HeapFree(void* ptr);
  // Pins a heap buffer for zero-copy TX: the netstack gather-writes frames
  // straight from this memory and holds the returned handle until the
  // covering ACK (or teardown). Tracked in the slot registry so freeing the
  // buffer while pinned is loudly visible.
  asbase::Result<std::shared_ptr<const void>> PinTxBuffer(void* addr,
                                                          size_t size);
  asbase::Result<asalloc::LinkedListAllocator::Stats> HeapStats();
  size_t PendingSlots() const;

  // ---- fdtab (+ fatfs / ramfs underneath) ----
  asbase::Result<int> Open(const std::string& path, asfat::OpenFlags flags);
  asbase::Status CloseFd(int fd);
  asbase::Result<size_t> Read(int fd, std::span<uint8_t> out);
  asbase::Result<size_t> Write(int fd, std::span<const uint8_t> data);
  asbase::Result<uint64_t> Seek(int fd, int64_t offset, asfat::Whence whence);
  // pread on a path, in one LibOS entry: opens `path`, reads up to
  // out.size() bytes from `offset` and closes it. Returns the bytes read,
  // short only at EOF. Unlike pread(2), an offset past EOF is OutOfRange.
  asbase::Result<size_t> ReadAt(const std::string& path, uint64_t offset,
                                std::span<uint8_t> out);
  asbase::Result<asfat::FileInfo> Stat(const std::string& path);
  asbase::Status Mkdir(const std::string& path);
  asbase::Status Remove(const std::string& path);
  asbase::Result<std::vector<asfat::FileInfo>> ReadDir(const std::string& path);
  // Direct filesystem handle for bulk setup (input generation in benches).
  asbase::Result<asfat::Filesystem*> Filesystem();

  // ---- stdio ----
  asbase::Result<size_t> HostStdout(std::span<const uint8_t> data);

  // ---- time ----
  asbase::Result<int64_t> GettimeofdayMicros();

  // ---- socket ----
  asbase::Result<std::unique_ptr<asnet::TcpListener>> SmolBind(uint16_t port);
  asbase::Result<std::unique_ptr<asnet::TcpConnection>> SmolConnect(
      asnet::Ipv4Addr dst, uint16_t port);
  asbase::Result<asnet::NetStack*> Stack();

  // ---- mmap_file_backend ----
  // Maps a filesystem file into WFD heap memory with user-space paging: the
  // content is faulted in from the filesystem in page-sized chunks on first
  // touch of each page (userfaultfd equivalent).
  asbase::Result<std::span<uint8_t>> MmapFile(const std::string& path);
  // Faults-in [offset, offset+len) of a mapped region; returns pages read.
  asbase::Result<size_t> EnsureResident(void* base, size_t offset, size_t len);
  asbase::Status Munmap(void* base);

  // Heap arena pages (for MPK binding by the WFD). Null until mm is loaded.
  asalloc::Arena* heap_arena();

  // Resident bytes of the heap arena (resource accounting, Fig 17b): a
  // mincore scan up to the allocator's high-water mark, since pages above
  // it were never handed out.
  size_t ResidentHeapBytes() const;

  // Bytes of disk chunks privately materialized by this WFD's owned
  // MemDisk (0 for external disks, ramfs, or an unloaded fs module).
  // CoW-aware like ResidentHeapBytes. The metadata sectors (FAT and
  // directories) the volume holds privately are not disk pages: they live
  // in Options::memory, a WFD's system pages.
  size_t ResidentDiskBytes() const;

 private:
  // ---- module state ----
  // Each module lives in options_.memory (Make).
  struct MmModule : asbase::ResourceObject {
    asalloc::Arena heap;
    asalloc::LinkedListAllocator allocator;
    asalloc::SlotRegistry slots;
    std::mutex mutex;
  };
  struct FsModule : asbase::ResourceObject {
    std::unique_ptr<asblk::BlockDevice> owned_disk;
    std::unique_ptr<asfat::Filesystem> fs;
    // Non-null only when this module owns a MemDisk; `volume` is then the
    // FAT volume `fs` mounts on it.
    asblk::MemDisk* mem_disk = nullptr;
    asfat::FatVolume* volume = nullptr;
    // The owned disk frozen right after format, and the volume's metadata
    // right after mount: what a clone template holds. Null for external
    // disks and ramfs.
    std::shared_ptr<const asblk::MemDiskImage> pristine_disk;
    asfat::FatVolume::MetaImage pristine_fat;
  };
  struct FdEntry {
    enum class Kind { kFree, kFile, kListener, kConnection, kStdio } kind =
        Kind::kFree;
    int fs_handle = -1;
    std::unique_ptr<asnet::TcpListener> listener;
    std::unique_ptr<asnet::TcpConnection> connection;
  };
  struct FdtabModule : asbase::ResourceObject {
    explicit FdtabModule(std::pmr::memory_resource* memory)
        : entries(memory) {}
    std::pmr::vector<FdEntry> entries;
    std::mutex mutex;
  };
  struct SocketModule : asbase::ResourceObject {
    std::shared_ptr<asnet::TunPort> port;
    std::unique_ptr<asnet::NetStack> stack;
  };
  struct TimeModule : asbase::ResourceObject {
    int64_t boot_micros = 0;
  };
  struct MmapRegion {
    std::string path;
    size_t size = 0;
    std::vector<bool> resident;  // per page
    int fs_handle = -1;
  };
  struct MmapModule : asbase::ResourceObject {
    std::map<uintptr_t, MmapRegion> regions;
    std::mutex mutex;
  };

  // Loads `kind` after its dependencies. Each module, a dependency included,
  // is timed, counted and traced on its own: its load_nanos_ excludes the
  // dependencies it pulled in, so TotalLoadNanos() sums what each module cost.
  asbase::Status LoadLocked(ModuleKind kind);
  // Constructs one module's state, without its dependencies or the
  // LoadModuleImage cost: shared by the load path and clone boot.
  asbase::Status BuildLocked(ModuleKind kind);
  // A module (or other object the LibOS owns) in options_.memory.
  template <typename T, typename... Args>
  std::unique_ptr<T> Make(Args&&... args) {
    return std::unique_ptr<T>(new (options_.memory)
                                  T(std::forward<Args>(args)...));
  }
  asbase::Result<FsModule*> RequireFs();
  asbase::Result<MmModule*> RequireMm();
  asbase::Result<FdtabModule*> RequireFdtab();

  Options options_;

  mutable std::mutex load_mutex_;
  std::array<std::atomic<bool>, kNumModuleKinds> loaded_{};
  std::array<int64_t, kNumModuleKinds> load_nanos_{};
  uint32_t cloned_modules_ = 0;  // set by the clone-boot constructor only

  std::unique_ptr<MmModule> mm_;
  std::unique_ptr<FsModule> fs_;
  std::unique_ptr<FdtabModule> fdtab_;
  std::unique_ptr<SocketModule> socket_;
  std::unique_ptr<TimeModule> time_;
  std::unique_ptr<MmapModule> mmap_;
  bool stdio_ready_ = false;
  std::mutex stdio_mutex_;
  asbase::Status clone_status_;  // kOk unless clone-boot construction failed
};

}  // namespace alloy

#endif  // SRC_CORE_LIBOS_LIBOS_H_
