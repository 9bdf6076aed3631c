#include "src/mpk/pkey_runtime.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace asmpk {
namespace {

// Per-thread software PKRU copy. Matches hardware semantics: PKRU is
// thread-context state.
thread_local uint32_t tls_pkru = 0;  // all keys allowed at thread start

#if defined(__x86_64__)
inline void HwWritePkru(uint32_t pkru) {
  // wrpkru requires ecx = edx = 0. Encoded directly so no -mpku is needed.
  asm volatile(".byte 0x0f,0x01,0xef\n" /* wrpkru */
               :
               : "a"(pkru), "c"(0), "d"(0)
               : "memory");
}
#endif

int SysPkeyAlloc() {
#if defined(SYS_pkey_alloc)
  return static_cast<int>(syscall(SYS_pkey_alloc, 0UL, 0UL));
#else
  return -1;
#endif
}

int SysPkeyFree(int pkey) {
#if defined(SYS_pkey_free)
  return static_cast<int>(syscall(SYS_pkey_free, pkey));
#else
  return -1;
#endif
}

int SysPkeyMprotect(void* addr, size_t len, int prot, int pkey) {
#if defined(SYS_pkey_mprotect)
  return static_cast<int>(syscall(SYS_pkey_mprotect, addr, len, prot, pkey));
#else
  return -1;
#endif
}

size_t BackendIndex(MpkBackend backend) {
  return static_cast<size_t>(backend);
}

}  // namespace

// Domain-switch accounting for /metrics. WritePkru is the hottest path in
// the repo (~25ns under kEmulated), so it records nothing extra: the
// collector aggregates, at scrape time, the switch_count_ each runtime
// already keeps — live runtimes are walked through their intrusive links,
// destroyed ones fold their totals into `retired` from the destructor.
struct MpkTelemetry {
  static MpkTelemetry& Get() {
    static auto* telemetry = new MpkTelemetry();
    return *telemetry;
  }

  static void Collect(asobs::MetricEmitter& emitter) {
    MpkTelemetry& telemetry = Get();
    std::array<uint64_t, 3> switches;
    std::array<uint64_t, 3> nanos;
    {
      std::lock_guard<std::mutex> lock(telemetry.mutex);
      switches = telemetry.retired_switches;
      nanos = telemetry.retired_nanos;
      for (const PkeyRuntime* runtime = telemetry.live; runtime != nullptr;
           runtime = runtime->telemetry_next_) {
        switches[BackendIndex(runtime->backend())] += runtime->switch_count();
        nanos[BackendIndex(runtime->backend())] += runtime->switch_nanos();
      }
    }
    for (MpkBackend backend : {MpkBackend::kHardware, MpkBackend::kMprotect,
                               MpkBackend::kEmulated}) {
      const asobs::Labels labels = {{"backend", MpkBackendName(backend)}};
      emitter.Emit("alloy_mpk_domain_switches_total",
                   asobs::MetricType::kCounter, labels,
                   switches[BackendIndex(backend)]);
      emitter.Emit("alloy_mpk_domain_switch_nanos_total",
                   asobs::MetricType::kCounter, labels,
                   nanos[BackendIndex(backend)]);
    }
  }

  static void Link(PkeyRuntime* runtime) {
    static std::once_flag collector_once;
    std::call_once(collector_once, [] {
      asobs::Registry::Global().RegisterCollector(Collect);
    });
    MpkTelemetry& telemetry = Get();
    std::lock_guard<std::mutex> lock(telemetry.mutex);
    runtime->telemetry_next_ = telemetry.live;
    runtime->telemetry_prev_ = &telemetry.live;
    if (telemetry.live != nullptr) {
      telemetry.live->telemetry_prev_ = &runtime->telemetry_next_;
    }
    telemetry.live = runtime;
  }

  static void Unlink(PkeyRuntime* runtime) {
    MpkTelemetry& telemetry = Get();
    std::lock_guard<std::mutex> lock(telemetry.mutex);
    *runtime->telemetry_prev_ = runtime->telemetry_next_;
    if (runtime->telemetry_next_ != nullptr) {
      runtime->telemetry_next_->telemetry_prev_ = runtime->telemetry_prev_;
    }
    telemetry.retired_switches[BackendIndex(runtime->backend())] +=
        runtime->switch_count();
    telemetry.retired_nanos[BackendIndex(runtime->backend())] +=
        runtime->switch_nanos();
  }

  std::mutex mutex;
  PkeyRuntime* live = nullptr;  // head of the live runtimes' list
  std::array<uint64_t, 3> retired_switches{};
  std::array<uint64_t, 3> retired_nanos{};
};

const char* MpkBackendName(MpkBackend backend) {
  switch (backend) {
    case MpkBackend::kHardware:
      return "hardware";
    case MpkBackend::kMprotect:
      return "mprotect";
    case MpkBackend::kEmulated:
      return "emulated";
  }
  return "?";
}

bool PkeyRuntime::HardwareAvailable() {
  static const bool kAvailable = [] {
    int key = SysPkeyAlloc();
    if (key < 0) {
      return false;
    }
    SysPkeyFree(key);
    return true;
  }();
  return kAvailable;
}

MpkBackend PkeyRuntime::DefaultBackend() {
  return HardwareAvailable() ? MpkBackend::kHardware : MpkBackend::kEmulated;
}

PkeyRuntime::PkeyRuntime(MpkBackend backend,
                         std::pmr::memory_resource* memory)
    : backend_(backend), regions_(memory), hw_keys_(memory) {
  if (backend_ == MpkBackend::kHardware) {
    AS_CHECK(HardwareAvailable())
        << "hardware MPK backend requested but pkey_alloc fails";
  }
  MpkTelemetry::Link(this);
}

PkeyRuntime::~PkeyRuntime() {
  MpkTelemetry::Unlink(this);
  for (auto& [key, hw_key] : hw_keys_) {
    SysPkeyFree(hw_key);
  }
}

asbase::Result<ProtKey> PkeyRuntime::AllocateKey() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ProtKey key = 1; key < 16; ++key) {
    if ((keys_in_use_ & (1u << key)) == 0) {
      if (backend_ == MpkBackend::kHardware) {
        int hw_key = SysPkeyAlloc();
        if (hw_key < 0) {
          return asbase::ResourceExhausted("kernel is out of pkeys");
        }
        hw_keys_[key] = hw_key;
      }
      keys_in_use_ |= static_cast<uint16_t>(1u << key);
      return key;
    }
  }
  return asbase::ResourceExhausted("all 15 protection keys are allocated");
}

asbase::Status PkeyRuntime::FreeKey(ProtKey key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (key <= 0 || key >= 16 || !(keys_in_use_ & (1u << key))) {
    return asbase::InvalidArgument("key " + std::to_string(key) +
                                   " is not allocated");
  }
  for (const auto& [addr, region] : regions_) {
    if (region.key == key) {
      return asbase::FailedPrecondition(
          "key " + std::to_string(key) + " still has bound regions");
    }
  }
  if (backend_ == MpkBackend::kHardware) {
    SysPkeyFree(hw_keys_[key]);
    hw_keys_.erase(key);
  }
  keys_in_use_ &= static_cast<uint16_t>(~(1u << key));
  return asbase::OkStatus();
}

asbase::Status PkeyRuntime::BindRegion(void* addr, size_t len, ProtKey key,
                                       int prot) {
  const uintptr_t start = reinterpret_cast<uintptr_t>(addr);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (start % page != 0 || len == 0 || len % page != 0) {
    return asbase::InvalidArgument("region must be page-aligned");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (key < 0 || key >= 16 || !(keys_in_use_ & (1u << key))) {
    return asbase::InvalidArgument("key " + std::to_string(key) +
                                   " is not allocated");
  }
  // Reject overlap with any existing region except an exact match (rebind).
  auto it = regions_.upper_bound(start);
  if (it != regions_.begin()) {
    auto prev = std::prev(it);
    if (prev->first == start) {
      if (prev->second.len != len) {
        return asbase::AlreadyExists("partial overlap with a bound region");
      }
    } else if (prev->first + prev->second.len > start) {
      return asbase::AlreadyExists("overlaps a bound region");
    }
  }
  if (it != regions_.end() && it->first < start + len) {
    return asbase::AlreadyExists("overlaps a bound region");
  }

  if (backend_ == MpkBackend::kHardware) {
    if (SysPkeyMprotect(addr, len, prot, hw_keys_[key]) != 0) {
      return asbase::Internal("pkey_mprotect failed");
    }
  }
  regions_[start] = Region{len, key, prot};
  return asbase::OkStatus();
}

asbase::Status PkeyRuntime::UnbindRegion(void* addr, size_t len) {
  const uintptr_t start = reinterpret_cast<uintptr_t>(addr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = regions_.find(start);
  if (it == regions_.end() || it->second.len != len) {
    return asbase::NotFound("no region bound at this address");
  }
  if (backend_ == MpkBackend::kHardware) {
    SysPkeyMprotect(addr, len, it->second.prot, 0);
  } else if (backend_ == MpkBackend::kMprotect) {
    mprotect(addr, len, it->second.prot);
  }
  regions_.erase(it);
  return asbase::OkStatus();
}

uint32_t PkeyRuntime::ReadPkru() const { return tls_pkru; }

void PkeyRuntime::WritePkru(uint32_t pkru) {
  tls_pkru = pkru;
  switch_count_.fetch_add(1, std::memory_order_relaxed);
  switch (backend_) {
    case MpkBackend::kHardware:
#if defined(__x86_64__)
      HwWritePkru(pkru);
#endif
      break;
    case MpkBackend::kMprotect:
      ApplyMprotect(pkru);
      break;
    case MpkBackend::kEmulated:
      // Charge the calibrated hardware switch cost so trampoline-heavy paths
      // (AS-IFI) measure realistically. ~25ns: cheaper than a clock read
      // pair would be accurate at, so issue serializing no-ops instead.
      asbase::SpinFor(
          asbase::SimCostModel::Global().Scaled(
              asbase::SimCostModel::Global().wrpkru_nanos));
      break;
  }
}

uint64_t PkeyRuntime::switch_nanos() const {
  if (backend_ == MpkBackend::kMprotect) {
    return measured_switch_nanos_.load(std::memory_order_relaxed);
  }
  return switch_count() *
         static_cast<uint64_t>(asbase::SimCostModel::Global().Scaled(
             asbase::SimCostModel::Global().wrpkru_nanos));
}

void PkeyRuntime::ApplyMprotect(uint32_t pkru) {
  const int64_t sweep_start = asbase::MonoNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [start, region] : regions_) {
    int prot;
    if (!KeyAllowed(pkru, region.key, /*write=*/false)) {
      prot = PROT_NONE;
    } else if (!KeyAllowed(pkru, region.key, /*write=*/true)) {
      prot = region.prot & ~PROT_WRITE;
    } else {
      prot = region.prot;
    }
    int rc = mprotect(reinterpret_cast<void*>(start), region.len, prot);
    AS_CHECK(rc == 0) << "mprotect enforcement failed";
  }
  measured_switch_nanos_.fetch_add(
      static_cast<uint64_t>(asbase::MonoNanos() - sweep_start),
      std::memory_order_relaxed);
}

asbase::Status PkeyRuntime::CheckAccess(const void* addr, size_t len,
                                        bool write) const {
  const uintptr_t start = reinterpret_cast<uintptr_t>(addr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = regions_.upper_bound(start);
  if (it == regions_.begin()) {
    return asbase::OkStatus();  // unbound memory carries the default key
  }
  --it;
  if (start >= it->first + it->second.len) {
    return asbase::OkStatus();
  }
  const Region& region = it->second;
  if (!KeyAllowed(tls_pkru, region.key, write)) {
    return asbase::PermissionDenied(
        "pkey " + std::to_string(region.key) + " denies " +
        (write ? "write" : "read") + " access under PKRU=" +
        std::to_string(tls_pkru));
  }
  return asbase::OkStatus();
}

ProtKey PkeyRuntime::KeyOf(const void* addr) const {
  const uintptr_t start = reinterpret_cast<uintptr_t>(addr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = regions_.upper_bound(start);
  if (it == regions_.begin()) {
    return 0;
  }
  --it;
  if (start >= it->first + it->second.len) {
    return 0;
  }
  return it->second.key;
}

}  // namespace asmpk
