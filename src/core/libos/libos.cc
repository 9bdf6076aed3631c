#include "src/core/libos/libos.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/core/wfd_snapshot.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace alloy {

const char* ModuleKindName(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kMm:
      return "mm";
    case ModuleKind::kFdtab:
      return "fdtab";
    case ModuleKind::kFatfs:
      return "fatfs";
    case ModuleKind::kRamfs:
      return "ramfs";
    case ModuleKind::kSocket:
      return "socket";
    case ModuleKind::kStdio:
      return "stdio";
    case ModuleKind::kTime:
      return "time";
    case ModuleKind::kMmapFileBackend:
      return "mmap_file_backend";
  }
  return "?";
}

Libos::Libos(Options options) : options_(std::move(options)) {
  if (options_.load_all) {
    // AS-load-all: instantiate every module at boot, like a conventional
    // LibOS image that links everything in. Boot loads are not lazy loads:
    // suppress the per-module trace spans (the whole boot is covered by the
    // caller's wfd_create span) so a load-all invocation shows no
    // module_load children.
    asobs::Trace* trace = options_.trace;
    options_.trace = nullptr;
    for (int i = 0; i < kNumModuleKinds; ++i) {
      const auto kind = static_cast<ModuleKind>(i);
      if (kind == (options_.use_ramfs ? ModuleKind::kFatfs
                                      : ModuleKind::kRamfs)) {
        continue;  // only one filesystem flavor is configured
      }
      if (kind == ModuleKind::kSocket && options_.fabric == nullptr) {
        continue;
      }
      asbase::Status status = EnsureLoaded(kind);
      if (!status.ok()) {
        AS_LOG(kWarn) << "load-all: module " << ModuleKindName(kind)
                      << " failed: " << status.ToString();
      }
    }
    options_.trace = trace;
  }
}

Libos::Libos(Options options, const WfdSnapshot& snapshot)
    : options_(std::move(options)) {
  // Geometry comes from the template — a snapshot of a 64 MiB heap can only
  // clone into a 64 MiB heap.
  options_.heap_bytes = snapshot.heap_bytes;
  options_.disk_blocks = snapshot.disk_blocks;
  std::lock_guard<std::mutex> lock(load_mutex_);
  for (ModuleKind kind : snapshot.modules) {
    if (kind == ModuleKind::kSocket) {
      // Deliberately not constructed: the netstack (TUN attach + poller
      // thread) registers lazily on the clone's first socket use. An idle
      // clone should not own a poller thread.
      continue;
    }
    if (kind == ModuleKind::kFatfs) {
      if (snapshot.disk == nullptr) {
        clone_status_ = asbase::Internal("snapshot lists fatfs but no disk");
        return;
      }
      auto module = Make<FsModule>();
      auto mem_disk = Make<asblk::MemDisk>(
          snapshot.disk, options_.disk_pages.data(), options_.memory);
      module->mem_disk = mem_disk.get();
      module->owned_disk = std::move(mem_disk);
      auto volume = asfat::FatVolume::MountFromMeta(
          module->owned_disk.get(), snapshot.fat, options_.memory);
      // The disk dies with the volume: nothing would read a write-back.
      volume->set_flush_on_unmount(false);
      module->volume = volume.get();
      module->fs = std::move(volume);
      module->pristine_disk = snapshot.disk;
      module->pristine_fat = snapshot.fat;
      fs_ = std::move(module);
    } else {
      clone_status_ = BuildLocked(kind);
      if (!clone_status_.ok()) {
        return;
      }
    }
    // Marked loaded with zero load_nanos_: clone boot pays no module load,
    // and the visor's warm-delta accounting must not see one.
    cloned_modules_ |= 1u << static_cast<unsigned>(kind);
    loaded_[static_cast<size_t>(kind)].store(true, std::memory_order_release);
  }
}

asbase::Status Libos::CaptureSnapshot(WfdSnapshot* out) const {
  std::lock_guard<std::mutex> lock(load_mutex_);
  if (options_.use_ramfs) {
    return asbase::FailedPrecondition("ramfs WFDs are not snapshotable");
  }
  if (options_.disk != nullptr) {
    return asbase::FailedPrecondition(
        "external disk images are not snapshotable");
  }
  out->modules = LoadedModules();
  out->heap_bytes = options_.heap_bytes;
  out->disk_blocks = options_.disk_blocks;
  out->use_ramfs = options_.use_ramfs;
  out->load_all = options_.load_all;
  out->image_bytes = 0;
  if (fs_ != nullptr && fs_->pristine_disk != nullptr) {
    out->disk = fs_->pristine_disk;
    out->fat = fs_->pristine_fat;
    out->image_bytes = out->disk->bytes();
  }
  return asbase::OkStatus();
}

Libos::~Libos() = default;

// ------------------------------------------------------------ module mgmt

bool Libos::IsLoaded(ModuleKind kind) const {
  return loaded_[static_cast<size_t>(kind)].load(std::memory_order_acquire);
}

asbase::Status Libos::EnsureLoaded(ModuleKind kind) {
  if (IsLoaded(kind)) {
    // Fast path: entry already bound (Figure 7b's warm hit). Every LibOS
    // call from every shard lands here, so the series is looked up once.
    static asobs::Counter& hits =
        asobs::Registry::Global().GetCounter("alloy_libos_module_hits_total");
    hits.Add(1);
    return asbase::OkStatus();
  }
  // Slow path (Figure 7a): route through the loader under the load lock.
  std::lock_guard<std::mutex> lock(load_mutex_);
  return LoadLocked(kind);
}

namespace {

// Approximate on-disk image sizes of the as-libos modules (the socket
// module links the whole TCP stack; fatfs the filesystem; etc.).
size_t ModuleImageBytes(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kMm:
      return 1u << 20;
    case ModuleKind::kFdtab:
      return 512u << 10;
    case ModuleKind::kFatfs:
      return 3u << 20;
    case ModuleKind::kRamfs:
      return 1u << 20;
    case ModuleKind::kSocket:
      return 4u << 20;
    case ModuleKind::kStdio:
      return 256u << 10;
    case ModuleKind::kTime:
      return 256u << 10;
    case ModuleKind::kMmapFileBackend:
      return 512u << 10;
  }
  return 1u << 20;
}

// Pristine bytes every module image is streamed from: one block of
// xorshift output, generated at compile time into read-only data.
constexpr size_t kImageBlockBytes = 16u << 10;

constexpr std::array<uint8_t, kImageBlockBytes> MakeImageBlock() {
  std::array<uint8_t, kImageBlockBytes> block{};
  uint64_t x = 0x9E3779B97f4A7C15ULL;
  for (auto& byte : block) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x);
  }
  return block;
}

constexpr std::array<uint8_t, kImageBlockBytes> kImageBlock = MakeImageBlock();

// Tells the compiler that `p`'s bytes are read and written by someone it
// cannot see, so the window's copies and patches are really performed.
void EscapeBytes(const void* p) {
  asm volatile("" : : "r"(p) : "memory");
}

// The dlmopen() part of a module load: map the module image into this
// namespace (copy), apply relocations (scan + patch), and pay the modeled
// dynamic-linker cost (symbol resolution, initializers) — the dominant part
// of the paper's 88.1ms load-all figure. The image streams through a
// block-sized window on the stack: every byte is copied and every 16-byte
// slot scanned, but nothing module-sized is ever resident.
void LoadModuleImage(ModuleKind kind) {
  alignas(64) uint8_t window[kImageBlockBytes] = {};
  size_t relocations = 0;
  for (size_t left = ModuleImageBytes(kind); left > 0;) {
    const size_t chunk = std::min(left, kImageBlockBytes);
    left -= chunk;
    std::memcpy(window, kImageBlock.data(), chunk);
    EscapeBytes(window);
    // "Relocate": patch every location whose byte looks like a reloc marker.
    for (size_t i = 0; i + 8 <= chunk; i += 16) {
      if (window[i] < 8) {
        uint64_t v;
        std::memcpy(&v, window + i, 8);
        v += 0x7F0000000000ULL;
        std::memcpy(window + i, &v, 8);
        ++relocations;
      }
    }
    EscapeBytes(window);
  }
  volatile size_t sink = relocations;
  (void)sink;
  asbase::SpinFor(asbase::SimCostModel::Global().Scaled(
      asbase::SimCostModel::Global().dlmopen_per_module_nanos));
}

}  // namespace

asbase::Status Libos::LoadLocked(ModuleKind kind) {
  if (IsLoaded(kind)) {
    // Dependency edges (fdtab -> fs, mmap -> mm/fdtab) land here when the
    // dependency was already loaded; never reconstruct live module state.
    return asbase::OkStatus();
  }
  std::vector<ModuleKind> dependencies;
  if (kind == ModuleKind::kFdtab) {
    // fdtab depends on a filesystem to resolve paths against.
    dependencies = {options_.use_ramfs ? ModuleKind::kRamfs
                                       : ModuleKind::kFatfs};
  } else if (kind == ModuleKind::kMmapFileBackend) {
    dependencies = {ModuleKind::kMm, ModuleKind::kFdtab};
  }
  for (ModuleKind dependency : dependencies) {
    AS_RETURN_IF_ERROR(LoadLocked(dependency));
  }
  asobs::Span span;
  if (options_.trace != nullptr) {
    span = options_.trace->StartSpan(
        std::string("module_load:") + ModuleKindName(kind), "libos",
        options_.trace_parent);
  }
  int64_t nanos = 0;
  asbase::Status status;
  {
    asbase::ScopedTimer timer(&nanos);
    LoadModuleImage(kind);
    status = BuildLocked(kind);
  }
  asobs::Registry::Global()
      .GetCounter("alloy_libos_module_loads_total",
                  {{"module", ModuleKindName(kind)}})
      .Add(1);
  asobs::Registry::Global()
      .GetHistogram("alloy_libos_module_load_nanos")
      .Record(nanos);
  if (status.ok()) {
    load_nanos_[static_cast<size_t>(kind)] = nanos;
    loaded_[static_cast<size_t>(kind)].store(true, std::memory_order_release);
  }
  return status;
}

asbase::Status Libos::BuildLocked(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kMm: {
      auto module = Make<MmModule>();
      module->heap = asalloc::Arena::View(options_.heap_pages.data(),
                                          options_.heap_pages.size());
      if (!module->heap.valid()) {
        return asbase::FailedPrecondition("WFD has no heap range");
      }
      module->allocator.Init(module->heap.data(), module->heap.size());
      if (options_.mpk != nullptr && options_.heap_key != 0) {
        AS_RETURN_IF_ERROR(options_.mpk->BindRegion(
            module->heap.data(), module->heap.size(), options_.heap_key,
            PROT_READ | PROT_WRITE));
      }
      mm_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kFatfs: {
      if (options_.use_ramfs) {
        return asbase::FailedPrecondition(
            "WFD is configured for ramfs; fatfs unavailable");
      }
      auto module = Make<FsModule>();
      asblk::BlockDevice* disk = options_.disk;
      if (disk == nullptr) {
        auto mem_disk = Make<asblk::MemDisk>(
            options_.disk_blocks, options_.disk_pages.data(), options_.memory);
        module->mem_disk = mem_disk.get();
        module->owned_disk = std::move(mem_disk);
        disk = module->owned_disk.get();
      }
      auto mounted = asfat::FatVolume::Mount(disk, options_.memory);
      if (!mounted.ok()) {
        // Fresh disk image: format it, then mount.
        AS_RETURN_IF_ERROR(asfat::FatVolume::Format(disk));
        mounted = asfat::FatVolume::Mount(disk, options_.memory);
        if (!mounted.ok()) {
          return mounted.status();
        }
      }
      if (module->mem_disk != nullptr) {
        // Capture the volume's metadata, then freeze the freshly formatted
        // disk (the image copies its few pages and the disk gives them
        // back) before any function writes: the pristine halves of a clone
        // template. The disk dies with the volume, so its dirty metadata is
        // never written back.
        AS_ASSIGN_OR_RETURN(module->pristine_fat, (*mounted)->SnapshotMeta());
        module->pristine_disk = module->mem_disk->SnapshotImage();
        module->volume = mounted->get();
        module->volume->set_flush_on_unmount(false);
      }
      module->fs = std::move(*mounted);
      fs_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kRamfs: {
      if (!options_.use_ramfs) {
        return asbase::FailedPrecondition(
            "WFD is configured for fatfs; ramfs unavailable");
      }
      auto module = Make<FsModule>();
      module->fs = std::make_unique<asfat::RamFilesystem>();
      fs_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kFdtab: {
      auto module = Make<FdtabModule>(options_.memory);
      module->entries.resize(3);  // 0/1/2 reserved for stdio
      for (auto& entry : module->entries) {
        entry.kind = FdEntry::Kind::kStdio;
      }
      fdtab_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kSocket: {
      if (options_.fabric == nullptr) {
        return asbase::FailedPrecondition(
            "WFD has no virtual network attachment");
      }
      auto module = Make<SocketModule>();
      module->port = options_.fabric->Attach(options_.addr);
      module->stack = std::make_unique<asnet::NetStack>(module->port);
      socket_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kStdio: {
      stdio_ready_ = true;
      return asbase::OkStatus();
    }
    case ModuleKind::kTime: {
      auto module = Make<TimeModule>();
      module->boot_micros = asbase::WallMicros();
      time_ = std::move(module);
      return asbase::OkStatus();
    }
    case ModuleKind::kMmapFileBackend: {
      mmap_ = Make<MmapModule>();
      return asbase::OkStatus();
    }
  }
  return asbase::InvalidArgument("unknown module kind");
}

void Libos::SetTrace(asobs::Trace* trace, uint32_t trace_parent) {
  std::lock_guard<std::mutex> lock(load_mutex_);
  options_.trace = trace;
  options_.trace_parent = trace_parent;
}

asbase::Status Libos::ResetForReuse() {
  // mmap regions first: each holds a heap allocation and an fs handle.
  if (mmap_ != nullptr) {
    std::vector<uintptr_t> bases;
    {
      std::lock_guard<std::mutex> lock(mmap_->mutex);
      for (const auto& [base, region] : mmap_->regions) {
        bases.push_back(base);
      }
    }
    for (uintptr_t base : bases) {
      AS_RETURN_IF_ERROR(Munmap(reinterpret_cast<void*>(base)));
    }
  }
  // Open fds next — and strictly before slot buffers are freed: dropping a
  // connection entry tears the TCP connection down (waiting briefly for a
  // clean close), which releases any zero-copy TX pins still covering slot
  // memory. Freeing the slots first would rip pinned memory out from under
  // in-flight frames. Files close too (stdio entries 0-2 persist).
  if (fdtab_ != nullptr) {
    std::vector<int> handles;
    {
      std::lock_guard<std::mutex> lock(fdtab_->mutex);
      for (size_t fd = 3; fd < fdtab_->entries.size(); ++fd) {
        FdEntry& entry = fdtab_->entries[fd];
        if (entry.kind == FdEntry::Kind::kFile) {
          handles.push_back(entry.fs_handle);
        }
        entry = FdEntry{};
      }
    }
    for (int handle : handles) {
      AS_RETURN_IF_ERROR(fs_->fs->Close(handle));
    }
  }
  // Unconsumed slot buffers (a producer ran but its consumer never
  // acquired): return the memory to the allocator so repeated warm
  // invocations cannot leak the heap dry. CheckReleasable makes a pin that
  // somehow survived connection teardown loud instead of a silent
  // use-after-free on retransmit.
  if (mm_ != nullptr) {
    for (const std::string& slot : mm_->slots.SlotNames()) {
      auto record = mm_->slots.Peek(slot);
      if (!record.ok()) {
        continue;  // raced with a concurrent consumer; nothing to free
      }
      AS_RETURN_IF_ERROR(mm_->slots.Remove(slot));
      if (!mm_->slots.CheckReleasable(record->addr)) {
        return asbase::FailedPrecondition(
            "slot buffer still pinned by the netstack at reset");
      }
      std::lock_guard<std::mutex> lock(mm_->mutex);
      mm_->allocator.Deallocate(reinterpret_cast<void*>(record->addr));
    }
    // Last: a parked WFD holds only the pages of its live allocations. A
    // heap nothing was allocated from or freed to since the last reset
    // makes no syscall.
    std::lock_guard<std::mutex> lock(mm_->mutex);
    mm_->allocator.ReleaseFreePages();
  }
  return asbase::OkStatus();
}

std::vector<ModuleKind> Libos::LoadedModules() const {
  std::vector<ModuleKind> out;
  for (int i = 0; i < kNumModuleKinds; ++i) {
    if (loaded_[static_cast<size_t>(i)].load(std::memory_order_acquire)) {
      out.push_back(static_cast<ModuleKind>(i));
    }
  }
  return out;
}

uint32_t Libos::PaidModules() const {
  uint32_t paid = 0;
  for (int i = 0; i < kNumModuleKinds; ++i) {
    if (loaded_[static_cast<size_t>(i)].load(std::memory_order_acquire)) {
      paid |= 1u << i;
    }
  }
  return paid & ~cloned_modules_;
}

int64_t Libos::ModuleLoadNanos(ModuleKind kind) const {
  return load_nanos_[static_cast<size_t>(kind)];
}

int64_t Libos::TotalLoadNanos() const {
  int64_t total = 0;
  for (int64_t nanos : load_nanos_) {
    total += nanos;
  }
  return total;
}

// ------------------------------------------------------------------- mm

asbase::Result<Libos::MmModule*> Libos::RequireMm() {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kMm));
  return mm_.get();
}

asbase::Result<void*> Libos::AllocBuffer(const std::string& slot, size_t size,
                                         size_t align, uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  std::lock_guard<std::mutex> lock(mm->mutex);
  void* data = mm->allocator.Allocate(size, align);
  if (data == nullptr) {
    return asbase::ResourceExhausted("WFD heap exhausted allocating " +
                                     std::to_string(size) + " bytes");
  }
  asbase::Status status = mm->slots.Register(
      slot, asalloc::BufferRecord{reinterpret_cast<uintptr_t>(data), size,
                                  fingerprint});
  if (!status.ok()) {
    mm->allocator.Deallocate(data);
    return status;
  }
  return data;
}

asbase::Result<asalloc::BufferRecord> Libos::AcquireBuffer(
    const std::string& slot, uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  return mm->slots.Acquire(slot, fingerprint);
}

asbase::Status Libos::RegisterBuffer(const std::string& slot, void* addr,
                                     size_t size, uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  return mm->slots.Register(
      slot, asalloc::BufferRecord{reinterpret_cast<uintptr_t>(addr), size,
                                  fingerprint});
}

asbase::Result<void*> Libos::HeapAllocate(size_t size, size_t align) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  std::lock_guard<std::mutex> lock(mm->mutex);
  void* data = mm->allocator.Allocate(size, align);
  if (data == nullptr) {
    return asbase::ResourceExhausted("WFD heap exhausted");
  }
  return data;
}

asbase::Status Libos::HeapFree(void* ptr) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  // Freeing memory the netstack still sends from is a bug in the caller;
  // surface it (metric + log + debug assert) rather than free silently.
  mm->slots.CheckReleasable(reinterpret_cast<uintptr_t>(ptr));
  std::lock_guard<std::mutex> lock(mm->mutex);
  mm->allocator.Deallocate(ptr);
  return asbase::OkStatus();
}

asbase::Result<std::shared_ptr<const void>> Libos::PinTxBuffer(void* addr,
                                                               size_t size) {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  return mm->slots.PinForTx(reinterpret_cast<uintptr_t>(addr), size);
}

asbase::Result<asalloc::LinkedListAllocator::Stats> Libos::HeapStats() {
  AS_ASSIGN_OR_RETURN(MmModule * mm, RequireMm());
  std::lock_guard<std::mutex> lock(mm->mutex);
  return mm->allocator.stats();
}

size_t Libos::PendingSlots() const {
  return mm_ == nullptr ? 0 : mm_->slots.size();
}

asalloc::Arena* Libos::heap_arena() {
  return mm_ == nullptr ? nullptr : &mm_->heap;
}

size_t Libos::ResidentHeapBytes() const {
  if (mm_ == nullptr) {
    return 0;
  }
  size_t touched = 0;
  {
    std::lock_guard<std::mutex> lock(mm_->mutex);
    touched = mm_->allocator.TouchedBytes();
  }
  return mm_->heap.ResidentBytes(touched);
}

size_t Libos::ResidentDiskBytes() const {
  return fs_ == nullptr || fs_->mem_disk == nullptr
             ? 0
             : fs_->mem_disk->ResidentBytes();
}

// ------------------------------------------------------------------ files

asbase::Result<Libos::FsModule*> Libos::RequireFs() {
  AS_RETURN_IF_ERROR(EnsureLoaded(options_.use_ramfs ? ModuleKind::kRamfs
                                                     : ModuleKind::kFatfs));
  return fs_.get();
}

asbase::Result<Libos::FdtabModule*> Libos::RequireFdtab() {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kFdtab));
  return fdtab_.get();
}

asbase::Result<asfat::Filesystem*> Libos::Filesystem() {
  AS_ASSIGN_OR_RETURN(FsModule * fs, RequireFs());
  return fs->fs.get();
}

asbase::Result<int> Libos::Open(const std::string& path,
                                asfat::OpenFlags flags) {
  AS_ASSIGN_OR_RETURN(FdtabModule * fdtab, RequireFdtab());
  AS_ASSIGN_OR_RETURN(int handle, fs_->fs->Open(path, flags));
  std::lock_guard<std::mutex> lock(fdtab->mutex);
  for (size_t fd = 3; fd < fdtab->entries.size(); ++fd) {
    if (fdtab->entries[fd].kind == FdEntry::Kind::kFree) {
      fdtab->entries[fd].kind = FdEntry::Kind::kFile;
      fdtab->entries[fd].fs_handle = handle;
      return static_cast<int>(fd);
    }
  }
  FdEntry entry;
  entry.kind = FdEntry::Kind::kFile;
  entry.fs_handle = handle;
  fdtab->entries.push_back(std::move(entry));
  return static_cast<int>(fdtab->entries.size() - 1);
}

namespace {
asbase::Status BadFd(int fd) {
  return asbase::InvalidArgument("bad file descriptor " + std::to_string(fd));
}
}  // namespace

asbase::Status Libos::CloseFd(int fd) {
  AS_ASSIGN_OR_RETURN(FdtabModule * fdtab, RequireFdtab());
  int handle;
  {
    std::lock_guard<std::mutex> lock(fdtab->mutex);
    if (fd < 3 || static_cast<size_t>(fd) >= fdtab->entries.size() ||
        fdtab->entries[static_cast<size_t>(fd)].kind != FdEntry::Kind::kFile) {
      return BadFd(fd);
    }
    handle = fdtab->entries[static_cast<size_t>(fd)].fs_handle;
    fdtab->entries[static_cast<size_t>(fd)] = FdEntry{};
  }
  return fs_->fs->Close(handle);
}

asbase::Result<size_t> Libos::Read(int fd, std::span<uint8_t> out) {
  AS_ASSIGN_OR_RETURN(FdtabModule * fdtab, RequireFdtab());
  int handle;
  {
    std::lock_guard<std::mutex> lock(fdtab->mutex);
    if (fd < 3 || static_cast<size_t>(fd) >= fdtab->entries.size() ||
        fdtab->entries[static_cast<size_t>(fd)].kind != FdEntry::Kind::kFile) {
      return BadFd(fd);
    }
    handle = fdtab->entries[static_cast<size_t>(fd)].fs_handle;
  }
  return fs_->fs->Read(handle, out);
}

asbase::Result<size_t> Libos::Write(int fd, std::span<const uint8_t> data) {
  AS_ASSIGN_OR_RETURN(FdtabModule * fdtab, RequireFdtab());
  if (fd == 1 || fd == 2) {
    return HostStdout(data);
  }
  int handle;
  {
    std::lock_guard<std::mutex> lock(fdtab->mutex);
    if (fd < 3 || static_cast<size_t>(fd) >= fdtab->entries.size() ||
        fdtab->entries[static_cast<size_t>(fd)].kind != FdEntry::Kind::kFile) {
      return BadFd(fd);
    }
    handle = fdtab->entries[static_cast<size_t>(fd)].fs_handle;
  }
  return fs_->fs->Write(handle, data);
}

asbase::Result<uint64_t> Libos::Seek(int fd, int64_t offset,
                                     asfat::Whence whence) {
  AS_ASSIGN_OR_RETURN(FdtabModule * fdtab, RequireFdtab());
  int handle;
  {
    std::lock_guard<std::mutex> lock(fdtab->mutex);
    if (fd < 3 || static_cast<size_t>(fd) >= fdtab->entries.size() ||
        fdtab->entries[static_cast<size_t>(fd)].kind != FdEntry::Kind::kFile) {
      return BadFd(fd);
    }
    handle = fdtab->entries[static_cast<size_t>(fd)].fs_handle;
  }
  return fs_->fs->Seek(handle, offset, whence);
}

asbase::Result<size_t> Libos::ReadAt(const std::string& path, uint64_t offset,
                                     std::span<uint8_t> out) {
  // Fault the whole pages of `out` in before the file system takes its
  // volume lock. The instances of a fan-out stage read in parallel, and on
  // fresh WFD-heap scratch they would otherwise take their first-touch
  // faults one reader at a time under that lock. Best effort: a kernel
  // older than 5.14 rejects the advice, and the read then faults as usual.
  const uintptr_t page = asalloc::Arena::PageSize();
  const uintptr_t first = (reinterpret_cast<uintptr_t>(out.data()) + page - 1) &
                          ~(page - 1);
  const uintptr_t last =
      (reinterpret_cast<uintptr_t>(out.data()) + out.size()) & ~(page - 1);
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_POPULATE_WRITE);
  }
  AS_ASSIGN_OR_RETURN(int fd, Open(path, asfat::OpenFlags::ReadOnly()));
  asbase::Result<size_t> read = [&]() -> asbase::Result<size_t> {
    AS_ASSIGN_OR_RETURN(uint64_t size, Seek(fd, 0, asfat::Whence::kEnd));
    if (offset > size) {
      return asbase::OutOfRange("read offset " + std::to_string(offset) +
                                " past end of " + path);
    }
    AS_RETURN_IF_ERROR(
        Seek(fd, static_cast<int64_t>(offset), asfat::Whence::kSet).status());
    return Read(fd, out);
  }();
  AS_RETURN_IF_ERROR(CloseFd(fd));
  return read;
}

asbase::Result<asfat::FileInfo> Libos::Stat(const std::string& path) {
  AS_ASSIGN_OR_RETURN(FsModule * fs, RequireFs());
  return fs->fs->Stat(path);
}

asbase::Status Libos::Mkdir(const std::string& path) {
  AS_ASSIGN_OR_RETURN(FsModule * fs, RequireFs());
  return fs->fs->Mkdir(path);
}

asbase::Status Libos::Remove(const std::string& path) {
  AS_ASSIGN_OR_RETURN(FsModule * fs, RequireFs());
  return fs->fs->Remove(path);
}

asbase::Result<std::vector<asfat::FileInfo>> Libos::ReadDir(
    const std::string& path) {
  AS_ASSIGN_OR_RETURN(FsModule * fs, RequireFs());
  return fs->fs->ReadDir(path);
}

// ------------------------------------------------------------------ stdio

asbase::Result<size_t> Libos::HostStdout(std::span<const uint8_t> data) {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kStdio));
  std::lock_guard<std::mutex> lock(stdio_mutex_);
  std::fwrite(data.data(), 1, data.size(), stdout);
  std::fflush(stdout);
  return data.size();
}

// ------------------------------------------------------------------- time

asbase::Result<int64_t> Libos::GettimeofdayMicros() {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kTime));
  return asbase::WallMicros();
}

// ----------------------------------------------------------------- socket

asbase::Result<std::unique_ptr<asnet::TcpListener>> Libos::SmolBind(
    uint16_t port) {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kSocket));
  return socket_->stack->Listen(port);
}

asbase::Result<std::unique_ptr<asnet::TcpConnection>> Libos::SmolConnect(
    asnet::Ipv4Addr dst, uint16_t port) {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kSocket));
  return socket_->stack->Connect(dst, port);
}

asbase::Result<asnet::NetStack*> Libos::Stack() {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kSocket));
  return socket_->stack.get();
}

// ------------------------------------------------------ mmap_file_backend

asbase::Result<std::span<uint8_t>> Libos::MmapFile(const std::string& path) {
  AS_RETURN_IF_ERROR(EnsureLoaded(ModuleKind::kMmapFileBackend));
  AS_ASSIGN_OR_RETURN(asfat::FileInfo info, Stat(path));
  if (info.is_directory) {
    return asbase::InvalidArgument(path + " is a directory");
  }
  const size_t page = asalloc::Arena::PageSize();
  const size_t size = info.size == 0 ? page : info.size;
  AS_ASSIGN_OR_RETURN(void* base, HeapAllocate(size, page));
  AS_ASSIGN_OR_RETURN(int handle,
                      fs_->fs->Open(path, asfat::OpenFlags::ReadOnly()));
  MmapRegion region;
  region.path = path;
  region.size = size;
  region.resident.assign((size + page - 1) / page, false);
  region.fs_handle = handle;
  std::lock_guard<std::mutex> lock(mmap_->mutex);
  mmap_->regions[reinterpret_cast<uintptr_t>(base)] = std::move(region);
  return std::span<uint8_t>(static_cast<uint8_t*>(base), size);
}

asbase::Result<size_t> Libos::EnsureResident(void* base, size_t offset,
                                             size_t len) {
  if (mmap_ == nullptr) {
    return asbase::FailedPrecondition("mmap_file_backend not loaded");
  }
  std::lock_guard<std::mutex> lock(mmap_->mutex);
  auto it = mmap_->regions.find(reinterpret_cast<uintptr_t>(base));
  if (it == mmap_->regions.end()) {
    return asbase::NotFound("no mapped region at this address");
  }
  MmapRegion& region = it->second;
  if (len == 0) {
    return size_t{0};
  }
  if (offset + len > region.size) {
    return asbase::OutOfRange("fault range outside mapped region");
  }
  const size_t page = asalloc::Arena::PageSize();
  size_t pages_read = 0;
  for (size_t p = offset / page; p <= (offset + len - 1) / page; ++p) {
    if (region.resident[p]) {
      continue;
    }
    // User-space page fault handling: read one page from the filesystem
    // into the mapped memory (the Userfaultfd path in the real system).
    const size_t page_offset = p * page;
    const size_t chunk = std::min(page, region.size - page_offset);
    AS_RETURN_IF_ERROR(
        fs_->fs->Seek(region.fs_handle, static_cast<int64_t>(page_offset),
                      asfat::Whence::kSet)
            .status());
    std::span<uint8_t> dest(static_cast<uint8_t*>(base) + page_offset, chunk);
    size_t done = 0;
    while (done < chunk) {
      AS_ASSIGN_OR_RETURN(size_t n,
                          fs_->fs->Read(region.fs_handle,
                                        dest.subspan(done)));
      if (n == 0) {
        break;  // file shorter than region: rest stays zero
      }
      done += n;
    }
    region.resident[p] = true;
    ++pages_read;
  }
  return pages_read;
}

asbase::Status Libos::Munmap(void* base) {
  if (mmap_ == nullptr) {
    return asbase::FailedPrecondition("mmap_file_backend not loaded");
  }
  int handle;
  {
    std::lock_guard<std::mutex> lock(mmap_->mutex);
    auto it = mmap_->regions.find(reinterpret_cast<uintptr_t>(base));
    if (it == mmap_->regions.end()) {
      return asbase::NotFound("no mapped region at this address");
    }
    handle = it->second.fs_handle;
    mmap_->regions.erase(it);
  }
  AS_RETURN_IF_ERROR(fs_->fs->Close(handle));
  return HeapFree(base);
}

}  // namespace alloy
