// as-std: the standard-library layer user functions link against (§3.5).
//
// Three jobs, matching the paper:
//  1. Intercept "syscalls": user code never reaches the host kernel — every
//     operation below routes into this WFD's as-libos.
//  2. Hide on-demand loading: a call that needs an unloaded module triggers
//     the slow path transparently (EnsureLoaded inside the LibOS).
//  3. Switch MPK permissions: every LibOS entry goes through the WFD
//     trampoline, which raises PKRU to the system value and restores the
//     user value on return (Fig 9).
//
// `AsBuffer<T>` / raw slot buffers implement reference passing (§5, Fig 6/8).

#ifndef SRC_CORE_ASSTD_ASSTD_H_
#define SRC_CORE_ASSTD_ASSTD_H_

#include <atomic>
#include <string>
#include <string_view>

#include "src/alloc/slot_registry.h"
#include "src/core/wfd.h"

namespace alloy {

class AsStd;

// RAII file handle over a LibOS fd.
class AsFile {
 public:
  AsFile() = default;
  AsFile(AsStd* as, int fd) : as_(as), fd_(fd) {}
  ~AsFile();
  AsFile(AsFile&& other) noexcept;
  AsFile& operator=(AsFile&& other) noexcept;
  AsFile(const AsFile&) = delete;
  AsFile& operator=(const AsFile&) = delete;

  asbase::Result<size_t> Read(std::span<uint8_t> out);
  asbase::Result<size_t> Write(std::span<const uint8_t> data);
  asbase::Result<size_t> Write(std::string_view text);
  asbase::Result<uint64_t> Seek(int64_t offset, asfat::Whence whence);
  asbase::Status Close();

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  AsStd* as_ = nullptr;
  int fd_ = -1;
};

// A raw (untyped) intermediate-data buffer registered under a slot.
struct RawBuffer {
  std::span<uint8_t> bytes;
  // Fingerprint the slot was registered with (type identity).
  uint64_t fingerprint = 0;
};

class AsStd {
 public:
  explicit AsStd(Wfd* wfd) : wfd_(wfd) {}

  Wfd& wfd() { return *wfd_; }

  // ---- files ----
  asbase::Result<AsFile> Open(const std::string& path, asfat::OpenFlags flags);
  asbase::Status WriteWholeFile(const std::string& path,
                                std::span<const uint8_t> data);
  // Stat, then ReadAt from 0 into a host vector: two LibOS entries.
  asbase::Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path);
  // pread on a path: reads up to out.size() bytes of `path` from `offset`
  // into `out`, one LibOS entry per chunk (open, seek, read and close all
  // happen inside it). Returns the bytes read, short only at EOF; an offset
  // past EOF is OutOfRange. A zero-length read still makes one entry, so it
  // checks the path and the offset too.
  asbase::Result<size_t> ReadAt(const std::string& path, uint64_t offset,
                                std::span<uint8_t> out);
  asbase::Status Mkdir(const std::string& path);
  asbase::Status Remove(const std::string& path);
  asbase::Result<asfat::FileInfo> Stat(const std::string& path);

  // ---- stdio / time ----
  asbase::Status Print(std::string_view text);
  asbase::Result<int64_t> NowMicros();

  // ---- deadlines ----
  // Absolute MonoNanos deadline for the surrounding invocation, stamped by
  // the orchestrator. Slow paths below (the WriteWholeFile and ReadAt chunk
  // loops) check it between chunks, and sockets minted by Bind/Connect
  // inherit it, so a function stuck in library code still honors the
  // invocation deadline without the orchestrator preempting its thread.
  // 0 = none.
  void set_deadline_nanos(int64_t deadline) { deadline_nanos_ = deadline; }
  int64_t deadline_nanos() const { return deadline_nanos_; }
  // kDeadlineExceeded once the deadline has passed, OkStatus before.
  asbase::Status CheckDeadline() const;

  // ---- sockets ----
  asbase::Result<std::unique_ptr<asnet::TcpListener>> Bind(uint16_t port);
  asbase::Result<std::unique_ptr<asnet::TcpConnection>> Connect(
      asnet::Ipv4Addr dst, uint16_t port);
  // Zero-copy send of a slot-backed buffer: pins the heap memory in the
  // LibOS (so freeing it while the netstack still references it is loudly
  // visible) and hands the bytes to the stack by reference — the segment
  // builder gather-writes frames straight from the slot, no payload memcpy.
  // The pin is released when the covering ACK arrives or the connection
  // tears down. Blocking semantics match connection.Send.
  asbase::Result<size_t> SendZeroCopy(asnet::TcpConnection& connection,
                                      const RawBuffer& buffer);
  // Zero-copy receive: the front pool-owned extent by reference (no copy);
  // `bytes.empty()` signals EOF. Use connection.Recv for contiguity.
  asbase::Result<asnet::RxChunk> RecvZeroCopy(
      asnet::TcpConnection& connection);

  // ---- intermediate data (reference passing, §5) ----
  // Sender side: allocate `size` bytes on the WFD heap under `slot`.
  asbase::Result<RawBuffer> AllocBuffer(const std::string& slot, size_t size,
                                        uint64_t fingerprint);
  // Function scratch: `size` bytes on the WFD heap under no slot. The
  // caller owns it: FreeBuffer releases it, ForwardBuffer publishes it.
  asbase::Result<RawBuffer> AllocScratch(size_t size, uint64_t fingerprint);
  // Receiver side: take ownership of the slot's buffer (slot is removed).
  asbase::Result<RawBuffer> AcquireBuffer(const std::string& slot,
                                          uint64_t fingerprint);
  // Frees a buffer obtained from AcquireBuffer or AllocScratch.
  asbase::Status FreeBuffer(RawBuffer buffer);
  // Transfers an owned buffer to a downstream function under a new slot
  // (chain forwarding) without copying.
  asbase::Status ForwardBuffer(const std::string& slot, RawBuffer buffer);

  // ---- mmap'd file reads (mmap_file_backend) ----
  asbase::Result<std::span<uint8_t>> MapFile(const std::string& path);
  asbase::Status FaultIn(std::span<uint8_t> mapping, size_t offset,
                         size_t len);
  asbase::Status Unmap(std::span<uint8_t> mapping);

  // Number of LibOS entries made through this as-std (trampoline crossings
  // are wfd().trampoline().enter_count()).
  uint64_t syscall_count() const {
    return syscalls_.load(std::memory_order_relaxed);
  }

  // IFI support: wraps an intermediate-buffer access. Under AS-IFI this
  // costs two PKRU writes (enable the buffer owner's key, then drop it);
  // without IFI it is free. Usage:
  //   { auto guard = as.BufferAccess(); memcpy(buffer, ...); }
  class AccessGuard {
   public:
    AccessGuard(asmpk::PkeyRuntime* mpk, uint32_t widened, bool active)
        : mpk_(mpk), active_(active) {
      if (active_) {
        saved_ = mpk_->ReadPkru();
        mpk_->WritePkru(widened);
      }
    }
    ~AccessGuard() {
      if (active_) {
        mpk_->WritePkru(saved_);
      }
    }
    AccessGuard(const AccessGuard&) = delete;
    AccessGuard& operator=(const AccessGuard&) = delete;

   private:
    asmpk::PkeyRuntime* mpk_;
    bool active_;
    uint32_t saved_ = 0;
  };
  AccessGuard BufferAccess() {
    return AccessGuard(&wfd_->mpk(),
                       asmpk::PkeyRuntime::AllowKey(
                           wfd_->mpk().ReadPkru(), wfd_->user_key()),
                       wfd_->inter_function_isolation());
  }

 private:
  // All LibOS entries funnel through here: counts the call and performs the
  // MPK permission switch via the trampoline.
  template <typename Fn>
  auto Syscall(Fn&& fn) -> decltype(fn()) {
    syscalls_.fetch_add(1, std::memory_order_relaxed);
    return wfd_->trampoline().EnterSystem(std::forward<Fn>(fn));
  }

  friend class AsFile;

  Wfd* wfd_;
  std::atomic<uint64_t> syscalls_{0};
  int64_t deadline_nanos_ = 0;
};

// Typed reference-passing buffer (Fig 6/8). T must be trivially copyable —
// the payload lives on the WFD heap and crosses function boundaries by
// reference.
template <typename T>
class AsBuffer {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "AsBuffer payloads live on the shared WFD heap");

  // Sender: create the buffer under `slot` (Fig 8 func_a).
  static asbase::Result<AsBuffer> WithSlot(AsStd& as, const std::string& slot) {
    AS_ASSIGN_OR_RETURN(RawBuffer raw,
                        as.AllocBuffer(slot, sizeof(T), Fingerprint()));
    return AsBuffer(&as, new (raw.bytes.data()) T());
  }

  // Receiver: reference the buffer through the same slot (Fig 8 func_b).
  static asbase::Result<AsBuffer> FromSlot(AsStd& as, const std::string& slot) {
    AS_ASSIGN_OR_RETURN(RawBuffer raw, as.AcquireBuffer(slot, Fingerprint()));
    return AsBuffer(&as, reinterpret_cast<T*>(raw.bytes.data()));
  }

  T* operator->() { return data_; }
  T& operator*() { return *data_; }
  const T* operator->() const { return data_; }
  const T& operator*() const { return *data_; }
  T* get() { return data_; }

  // Hands the memory back to the WFD heap (receiver side, after use).
  asbase::Status Release() {
    if (data_ == nullptr) {
      return asbase::FailedPrecondition("buffer already released");
    }
    RawBuffer raw{std::span<uint8_t>(reinterpret_cast<uint8_t*>(data_),
                                     sizeof(T)),
                  Fingerprint()};
    data_ = nullptr;
    return as_->FreeBuffer(raw);
  }

  static uint64_t Fingerprint() {
    return asalloc::FingerprintName(typeid(T).name());
  }

 private:
  AsBuffer(AsStd* as, T* data) : as_(as), data_(data) {}
  AsStd* as_;
  T* data_;
};

}  // namespace alloy

#endif  // SRC_CORE_ASSTD_ASSTD_H_
