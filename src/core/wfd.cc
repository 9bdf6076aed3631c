#include "src/core/wfd.h"

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace alloy {
namespace {

// Address space for a WFD's own objects and the LibOS state they hold. A
// parked fatfs clone touches one page of it; a full boot of a 64 MiB disk
// caches its whole FAT (~70 KiB) until the template captures it. Past it,
// allocations fall back to the malloc heap.
constexpr size_t kSystemBytes = 256u << 10;

// Room in front of a Wfd for the reservation it lives in.
constexpr size_t kWfdHeaderBytes = 16;

}  // namespace

void* Wfd::operator new(size_t size, asalloc::Reservation* reservation) {
  void* block = reservation->system()->allocate(size + kWfdHeaderBytes,
                                                kWfdHeaderBytes);
  *static_cast<asalloc::Reservation**>(block) = reservation;
  return static_cast<char*>(block) + kWfdHeaderBytes;
}

void Wfd::operator delete(void* wfd) {
  if (wfd == nullptr) {
    return;
  }
  // The Wfd's block goes with the rest of the reservation: every object it
  // owned has been destroyed by now, and one munmap returns all the pages.
  asalloc::Reservation::Unmap(*reinterpret_cast<asalloc::Reservation**>(
      static_cast<char*>(wfd) - kWfdHeaderBytes));
}

void Wfd::operator delete(void* wfd, asalloc::Reservation*) {
  operator delete(wfd);
}

Wfd::Wfd(asalloc::Reservation* reservation, const WfdOptions& options)
    : reservation_(reservation),
      reference_passing_(options.reference_passing),
      inter_function_isolation_(options.inter_function_isolation),
      trace_(options.trace),
      trace_parent_(options.trace_parent),
      cpu_affinity_(options.cpu_affinity.begin(), options.cpu_affinity.end(),
                    reservation->system()) {}

asbase::Result<std::unique_ptr<Wfd>> Wfd::Create(WfdOptions options) {
  return Boot(std::move(options), nullptr);
}

asbase::Result<std::unique_ptr<Wfd>> Wfd::CloneFromSnapshot(
    WfdOptions options, std::shared_ptr<const WfdSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return asbase::InvalidArgument("null snapshot");
  }
  // Compatibility stamp: the template's geometry must match what this
  // registration would boot, or the clone would misrepresent the workflow.
  if (options.use_ramfs || snapshot->use_ramfs) {
    return asbase::FailedPrecondition("ramfs WFDs cannot clone-boot");
  }
  if (options.disk != nullptr) {
    return asbase::FailedPrecondition(
        "external-disk WFDs cannot clone-boot");
  }
  if (options.heap_bytes != snapshot->heap_bytes ||
      options.disk_blocks != snapshot->disk_blocks ||
      options.on_demand == snapshot->load_all) {
    return asbase::FailedPrecondition(
        "snapshot geometry does not match WfdOptions");
  }
  return Boot(std::move(options), snapshot.get());
}

asbase::Result<std::unique_ptr<Wfd>> Wfd::Boot(WfdOptions options,
                                               const WfdSnapshot* snapshot) {
  const int64_t start = asbase::MonoNanos();
  // The WFD's one mapping. A ramfs or external-disk WFD owns no MemDisk,
  // so its reservation has no disk range.
  const bool owns_disk = !options.use_ramfs && options.disk == nullptr;
  asalloc::Reservation* reservation = asalloc::Reservation::Map(
      kSystemBytes,
      owns_disk ? asblk::MemDisk::StorageBytes(options.disk_blocks) : 0,
      options.heap_bytes);
  if (reservation == nullptr) {
    return asbase::ResourceExhausted("cannot map the WFD's reservation");
  }
  // From here on, destroying `wfd` unmaps the reservation.
  auto wfd = std::unique_ptr<Wfd>(new (reservation) Wfd(reservation, options));
  std::pmr::memory_resource* memory = reservation->system();
  wfd->mpk_ = std::unique_ptr<asmpk::PkeyRuntime>(
      new (memory) asmpk::PkeyRuntime(options.mpk_backend, memory));

  AS_ASSIGN_OR_RETURN(wfd->system_key_, wfd->mpk_->AllocateKey());
  AS_ASSIGN_OR_RETURN(wfd->user_key_, wfd->mpk_->AllocateKey());

  // System PKRU: everything open (system code may touch user buffers to
  // service syscalls). User PKRU: only the user key (plus default key 0).
  const uint32_t user_pkru = asmpk::PkeyRuntime::AllowKey(
      asmpk::PkeyRuntime::kDenyAll, wfd->user_key_);
  wfd->trampoline_ = std::unique_ptr<asmpk::Trampoline>(new (memory)
      asmpk::Trampoline(wfd->mpk_.get(), user_pkru, /*system_pkru=*/0u));

  Libos::Options libos_options;
  libos_options.load_all = !options.on_demand;
  libos_options.use_ramfs = options.use_ramfs;
  libos_options.heap_bytes = options.heap_bytes;
  libos_options.disk_blocks = options.disk_blocks;
  libos_options.fabric = options.fabric;
  libos_options.addr = options.addr;
  libos_options.disk = options.disk;
  libos_options.mpk = wfd->mpk_.get();
  libos_options.heap_key = wfd->user_key_;
  libos_options.trace = options.trace;
  libos_options.trace_parent = options.trace_parent;
  libos_options.memory = memory;
  libos_options.heap_pages = {reservation->heap(), reservation->heap_bytes()};
  libos_options.disk_pages = {reservation->disk(), reservation->disk_bytes()};
  if (snapshot == nullptr) {
    wfd->libos_ = std::unique_ptr<Libos>(new (memory)
                                             Libos(std::move(libos_options)));
  } else {
    wfd->libos_ = std::unique_ptr<Libos>(
        new (memory) Libos(std::move(libos_options), *snapshot));
    AS_RETURN_IF_ERROR(wfd->libos_->clone_status());
  }
  wfd->creation_nanos_ = asbase::MonoNanos() - start;
  return wfd;
}

asbase::Result<std::shared_ptr<const WfdSnapshot>> Wfd::CaptureSnapshot(
    size_t max_image_bytes) {
  if (libos_ == nullptr) {
    return asbase::FailedPrecondition("WFD has no LibOS");
  }
  auto snapshot = std::make_shared<WfdSnapshot>();
  AS_RETURN_IF_ERROR(libos_->CaptureSnapshot(snapshot.get()));
  if (max_image_bytes > 0 && snapshot->image_bytes > max_image_bytes) {
    return asbase::ResourceExhausted(
        "snapshot image (" + std::to_string(snapshot->image_bytes) +
        " bytes) exceeds ALLOY_SNAPSHOT_MAX_BYTES");
  }
  return std::shared_ptr<const WfdSnapshot>(std::move(snapshot));
}

Wfd::~Wfd() {
  // Destruction order handles reclaim: libos (netstack poller, volume, disk)
  // first, then the trampoline and key runtime, and last operator delete
  // unmaps the reservation (heap, disk and system pages) in one munmap.
  // Matches as-visor "destroys the WFD and reclaims the associated
  // resources" (§3.2 step 7).
  if (libos_ != nullptr && mpk_ != nullptr) {
    asalloc::Arena* heap = libos_->heap_arena();
    if (heap != nullptr && heap->valid()) {
      // Re-open and unbind the heap pages before the arena unmaps them.
      mpk_->WritePkru(0);
      mpk_->UnbindRegion(heap->data(), heap->size());
    }
  }
}

void Wfd::SetTrace(asobs::Trace* trace, uint32_t trace_parent) {
  trace_ = trace;
  trace_parent_ = trace_parent;
  if (libos_ != nullptr) {
    libos_->SetTrace(trace, trace_parent);
  }
}

asbase::Status Wfd::Reset() {
  if (mpk_ != nullptr) {
    mpk_->WritePkru(0);
  }
  if (libos_ != nullptr) {
    AS_RETURN_IF_ERROR(libos_->ResetForReuse());
  }
  // Pages only this invocation's LibOS state needed, such as the FAT a full
  // boot read before its template took it.
  reservation_->ReleaseFreeSystemPages();
  return asbase::OkStatus();
}

asbase::Result<asmpk::ProtKey> Wfd::RegisterFunctionInstance(
    const std::string& function_name) {
  if (!inter_function_isolation_) {
    return user_key_;
  }
  auto key = mpk_->AllocateKey();
  if (!key.ok()) {
    // Keys are a finite hardware resource (15); fall back to the shared
    // user key when a workflow has more instances than keys, like the
    // paper's default (shared MPK permissions) mode.
    AS_LOG(kDebug) << "out of pkeys for " << function_name
                   << "; sharing the WFD user key";
    return user_key_;
  }
  return *key;
}

uint32_t Wfd::UserPkru(asmpk::ProtKey function_key) const {
  uint32_t pkru = asmpk::PkeyRuntime::AllowKey(asmpk::PkeyRuntime::kDenyAll,
                                               user_key_);
  if (function_key != user_key_) {
    pkru = asmpk::PkeyRuntime::AllowKey(pkru, function_key);
  }
  return pkru;
}

size_t Wfd::ResidentBytes() const {
  // CoW-aware for the disk: a clone (or a booted WFD, whose disk froze
  // into its pristine image after format) charges only the chunks it
  // copied, not the template chunks it shares. This is what flows into
  // alloy_visor_pool_resident_bytes.
  const size_t libos = libos_ == nullptr ? 0
                                         : libos_->ResidentHeapBytes() +
                                               libos_->ResidentDiskBytes();
  return libos + ResidentSystemBytes();
}

size_t Wfd::ResidentSystemBytes() const {
  return reservation_->ResidentSystemBytes();
}

size_t Wfd::EnsureStageWorkers(size_t num_threads) {
  std::lock_guard<std::mutex> lock(stage_workers_mutex_);
  if (num_threads == 0) {
    return 0;
  }
  if (stage_workers_ == nullptr) {
    stage_workers_ = std::make_unique<asbase::ThreadPool>(0);
    if (!cpu_affinity_.empty()) {
      stage_workers_->PinToCpus(
          std::vector<int>(cpu_affinity_.begin(), cpu_affinity_.end()));
    }
  }
  return stage_workers_->EnsureAtLeast(num_threads);
}

size_t Wfd::stage_worker_count() const {
  std::lock_guard<std::mutex> lock(stage_workers_mutex_);
  return stage_workers_ == nullptr ? 0 : stage_workers_->num_threads();
}

}  // namespace alloy
