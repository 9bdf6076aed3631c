// Protection-key runtime: the isolation substrate for WFDs (§3.3, §7.1).
//
// Real AlloyStack binds Intel MPK keys to the system/user partitions with
// pkey_mprotect and flips the per-thread PKRU register in trampoline code.
// This machine may or may not expose MPK, so the same API is served by three
// backends (DESIGN.md §1):
//
//   kHardware  pkey_alloc/pkey_mprotect + RDPKRU/WRPKRU. Chosen automatically
//              when the CPU and kernel support it.
//   kMprotect  Genuine software enforcement: WritePkru() mprotect()s every
//              region whose key the new PKRU denies. Process-wide (mprotect
//              has no per-thread granularity), so it is used by the
//              single-threaded security tests.
//   kEmulated  Per-thread software PKRU + region bookkeeping. Access guards
//              (CheckAccess) give testable semantics; WritePkru charges the
//              calibrated WRPKRU cost so latency benches see the hardware
//              switch price.
//
// PKRU layout matches the SDM: 2 bits per key, bit 2k = AD (access disable),
// bit 2k+1 = WD (write disable). Key 0 is the default key and stays
// accessible.
//
// Keys are per runtime: every runtime numbers its own keys 1..15, and the
// PKRU values callers build, pass to WritePkru and get from ReadPkru use
// those numbers. Under kHardware each key is backed by a kernel pkey, and
// WritePkru translates: a key's bits move to its kernel key, and kernel keys
// the runtime does not hold (other runtimes') are denied unless the PKRU
// opens everything. So two runtimes' key 1 are different kernel keys, and
// one WFD's user PKRU faults on another WFD's pages.

#ifndef SRC_MPK_PKEY_RUNTIME_H_
#define SRC_MPK_PKEY_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <mutex>

#include "src/common/resource_object.h"
#include "src/common/status.h"

namespace asmpk {

using ProtKey = int;  // 0..15

enum class MpkBackend {
  kHardware,
  kMprotect,
  kEmulated,
};

const char* MpkBackendName(MpkBackend backend);

// Its region and key maps live in the memory resource it is built with (a
// WFD's system pages, or the default resource), as does the runtime itself
// when created with `new (resource)`.
class PkeyRuntime : public asbase::ResourceObject {
 public:
  // True when pkey_alloc succeeds on this kernel/CPU.
  static bool HardwareAvailable();

  // Picks kHardware when available, else kEmulated.
  static MpkBackend DefaultBackend();

  explicit PkeyRuntime(
      MpkBackend backend = DefaultBackend(),
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  ~PkeyRuntime();

  PkeyRuntime(const PkeyRuntime&) = delete;
  PkeyRuntime& operator=(const PkeyRuntime&) = delete;

  MpkBackend backend() const { return backend_; }

  // Allocates a key (1..15); kResourceExhausted when all are taken.
  asbase::Result<ProtKey> AllocateKey();
  asbase::Status FreeKey(ProtKey key);

  // Tags [addr, addr+len) (page-aligned) with `key`. prot is the PROT_*
  // bitmask the region has when its key is enabled.
  asbase::Status BindRegion(void* addr, size_t len, ProtKey key, int prot);
  asbase::Status UnbindRegion(void* addr, size_t len);

  // Per-thread PKRU value in this runtime's key numbers (software copy in
  // all backends; translated to kernel keys and written to the register
  // under kHardware, applied via mprotect under kMprotect). The software
  // copy is one per thread, shared by every runtime: it holds the value the
  // last WritePkru on this thread wrote, in the writer's key numbers. Every
  // path that leaves a domain writes 0 (the same in every runtime's
  // numbering), so a runtime never reads another's value back.
  uint32_t ReadPkru() const;
  void WritePkru(uint32_t pkru);

  // PKRU bit helpers.
  static uint32_t AllowKey(uint32_t pkru, ProtKey key) {
    return pkru & ~(3u << (2 * key));
  }
  static uint32_t DenyKey(uint32_t pkru, ProtKey key) {
    return pkru | (3u << (2 * key));
  }
  static uint32_t DenyWrite(uint32_t pkru, ProtKey key) {
    return (pkru & ~(3u << (2 * key))) | (2u << (2 * key));
  }
  static bool KeyAllowed(uint32_t pkru, ProtKey key, bool write) {
    uint32_t bits = (pkru >> (2 * key)) & 3u;
    if (bits & 1u) {
      return false;  // AD
    }
    if (write && (bits & 2u)) {
      return false;  // WD
    }
    return true;
  }

  // PKRU with every allocated key denied (the value user code runs under
  // before its own key is re-enabled).
  static constexpr uint32_t kDenyAll = 0xFFFFFFFCu;  // key 0 stays open

  // Software access check against the bound regions and the current thread's
  // PKRU. Under kEmulated this is the enforcement mechanism (as-std calls it
  // on the buffer paths); under the other backends it mirrors what the MMU
  // would decide.
  asbase::Status CheckAccess(const void* addr, size_t len, bool write) const;

  // Key a given address is bound to; 0 when unbound.
  ProtKey KeyOf(const void* addr) const;

  // Number of WritePkru() calls (trampoline switch count for benches).
  uint64_t switch_count() const {
    return switch_count_.load(std::memory_order_relaxed);
  }

  // Cumulative nanoseconds spent switching domains. Measured under
  // kMprotect (the mprotect sweep dominates there); modeled as
  // switch_count * the calibrated WRPKRU cost under kHardware/kEmulated —
  // per-switch clock reads would cost more than the switch itself (ERIM's
  // argument, and why the obs layer scrapes this instead of counting
  // per-switch). Exported as alloy_mpk_domain_switch_nanos_total.
  uint64_t switch_nanos() const;

 private:
  struct Region {
    size_t len;
    ProtKey key;
    int prot;
  };

  void ApplyMprotect(uint32_t pkru);
  // Kernel pkey backing `key` under kHardware; 0 when none.
  int HardwareKey(ProtKey key) const {
    return static_cast<int>(
        (hw_keys_.load(std::memory_order_acquire) >> (4 * key)) & 0xFu);
  }
  // `pkru` in kernel key numbers (see the file comment).
  uint32_t HardwarePkru(uint32_t pkru) const;

  // Links in the list of live runtimes the /metrics collector walks
  // (guarded by its mutex), kept in the runtime so joining and leaving it
  // allocate nothing. `telemetry_prev_` points at what points here.
  friend struct MpkTelemetry;
  PkeyRuntime** telemetry_prev_ = nullptr;
  PkeyRuntime* telemetry_next_ = nullptr;

  const MpkBackend backend_;
  mutable std::mutex mutex_;
  std::pmr::map<uintptr_t, Region> regions_;  // keyed by start address
  uint16_t keys_in_use_ = 1;             // bit per key; key 0 reserved
  // Kernel pkey of each of our keys under kHardware, 4 bits per key (key k
  // in bits 4k..4k+3; 0 = none). Written under mutex_, read lock-free by
  // WritePkru.
  std::atomic<uint64_t> hw_keys_{0};
  std::atomic<uint64_t> switch_count_{0};
  std::atomic<uint64_t> measured_switch_nanos_{0};  // kMprotect only
};

}  // namespace asmpk

#endif  // SRC_MPK_PKEY_RUNTIME_H_
