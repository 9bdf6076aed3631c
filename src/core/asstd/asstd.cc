#include "src/core/asstd/asstd.h"

#include <utility>

#include "src/common/clock.h"

namespace alloy {

AsFile::~AsFile() {
  if (valid()) {
    Close();
  }
}

AsFile::AsFile(AsFile&& other) noexcept
    : as_(std::exchange(other.as_, nullptr)), fd_(std::exchange(other.fd_, -1)) {}

AsFile& AsFile::operator=(AsFile&& other) noexcept {
  if (this != &other) {
    if (valid()) {
      Close();
    }
    as_ = std::exchange(other.as_, nullptr);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

asbase::Result<size_t> AsFile::Read(std::span<uint8_t> out) {
  return as_->Syscall([&] { return as_->wfd().libos().Read(fd_, out); });
}

asbase::Result<size_t> AsFile::Write(std::span<const uint8_t> data) {
  return as_->Syscall([&] { return as_->wfd().libos().Write(fd_, data); });
}

asbase::Result<size_t> AsFile::Write(std::string_view text) {
  return Write(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

asbase::Result<uint64_t> AsFile::Seek(int64_t offset, asfat::Whence whence) {
  return as_->Syscall(
      [&] { return as_->wfd().libos().Seek(fd_, offset, whence); });
}

asbase::Status AsFile::Close() {
  if (!valid()) {
    return asbase::FailedPrecondition("file already closed");
  }
  int fd = std::exchange(fd_, -1);
  return as_->Syscall([&] { return as_->wfd().libos().CloseFd(fd); });
}

asbase::Result<AsFile> AsStd::Open(const std::string& path,
                                   asfat::OpenFlags flags) {
  AS_ASSIGN_OR_RETURN(
      int fd, Syscall([&] { return wfd_->libos().Open(path, flags); }));
  return AsFile(this, fd);
}

asbase::Status AsStd::CheckDeadline() const {
  if (deadline_nanos_ != 0 && asbase::MonoNanos() > deadline_nanos_) {
    return asbase::DeadlineExceeded("invocation deadline exceeded in as-std");
  }
  return asbase::OkStatus();
}

asbase::Status AsStd::WriteWholeFile(const std::string& path,
                                     std::span<const uint8_t> data) {
  AS_ASSIGN_OR_RETURN(AsFile file,
                      Open(path, asfat::OpenFlags::WriteCreate()));
  size_t done = 0;
  while (done < data.size()) {
    AS_RETURN_IF_ERROR(CheckDeadline());
    AS_ASSIGN_OR_RETURN(size_t n, file.Write(data.subspan(done)));
    if (n == 0) {
      return asbase::ResourceExhausted("short write to " + path);
    }
    done += n;
  }
  return file.Close();
}

asbase::Result<std::vector<uint8_t>> AsStd::ReadWholeFile(
    const std::string& path) {
  AS_ASSIGN_OR_RETURN(asfat::FileInfo info, Stat(path));
  std::vector<uint8_t> data(info.size);
  AS_ASSIGN_OR_RETURN(size_t n, ReadAt(path, 0, data));
  data.resize(n);
  return data;
}

asbase::Result<size_t> AsStd::ReadAt(const std::string& path, uint64_t offset,
                                     std::span<uint8_t> out) {
  size_t done = 0;
  do {
    AS_RETURN_IF_ERROR(CheckDeadline());
    AS_ASSIGN_OR_RETURN(size_t n, Syscall([&] {
                          return wfd_->libos().ReadAt(path, offset + done,
                                                      out.subspan(done));
                        }));
    if (n == 0) {
      break;
    }
    done += n;
  } while (done < out.size());
  return done;
}

asbase::Status AsStd::Mkdir(const std::string& path) {
  return Syscall([&] { return wfd_->libos().Mkdir(path); });
}

asbase::Status AsStd::Remove(const std::string& path) {
  return Syscall([&] { return wfd_->libos().Remove(path); });
}

asbase::Result<asfat::FileInfo> AsStd::Stat(const std::string& path) {
  return Syscall([&] { return wfd_->libos().Stat(path); });
}

asbase::Status AsStd::Print(std::string_view text) {
  return Syscall([&]() -> asbase::Status {
    auto n = wfd_->libos().HostStdout(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(text.data()), text.size()));
    return n.status();
  });
}

asbase::Result<int64_t> AsStd::NowMicros() {
  return Syscall([&] { return wfd_->libos().GettimeofdayMicros(); });
}

asbase::Result<std::unique_ptr<asnet::TcpListener>> AsStd::Bind(
    uint16_t port) {
  auto listener = Syscall([&] { return wfd_->libos().SmolBind(port); });
  if (listener.ok()) {
    // Accept (and every accepted connection) honors the invocation deadline.
    (*listener)->set_deadline_nanos(deadline_nanos_);
  }
  return listener;
}

asbase::Result<std::unique_ptr<asnet::TcpConnection>> AsStd::Connect(
    asnet::Ipv4Addr dst, uint16_t port) {
  auto connection =
      Syscall([&] { return wfd_->libos().SmolConnect(dst, port); });
  if (connection.ok()) {
    (*connection)->set_deadline_nanos(deadline_nanos_);
  }
  return connection;
}

asbase::Result<size_t> AsStd::SendZeroCopy(asnet::TcpConnection& connection,
                                           const RawBuffer& buffer) {
  AS_ASSIGN_OR_RETURN(std::shared_ptr<const void> pin, Syscall([&] {
                        return wfd_->libos().PinTxBuffer(buffer.bytes.data(),
                                                         buffer.bytes.size());
                      }));
  return connection.SendZeroCopy(buffer.bytes, std::move(pin));
}

asbase::Result<asnet::RxChunk> AsStd::RecvZeroCopy(
    asnet::TcpConnection& connection) {
  // The connection blocks on stack state, not LibOS state, so no trampoline
  // crossing is needed — but count it as a syscall like Recv-through-fd.
  syscalls_.fetch_add(1, std::memory_order_relaxed);
  return connection.RecvZeroCopy();
}

asbase::Result<RawBuffer> AsStd::AllocBuffer(const std::string& slot,
                                             size_t size,
                                             uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(void* data, Syscall([&] {
                        return wfd_->libos().AllocBuffer(slot, size, 16,
                                                         fingerprint);
                      }));
  return RawBuffer{std::span<uint8_t>(static_cast<uint8_t*>(data), size),
                   fingerprint};
}

asbase::Result<RawBuffer> AsStd::AllocScratch(size_t size,
                                              uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(void* data, Syscall([&] {
                        return wfd_->libos().HeapAllocate(size, 16);
                      }));
  return RawBuffer{std::span<uint8_t>(static_cast<uint8_t*>(data), size),
                   fingerprint};
}

asbase::Result<RawBuffer> AsStd::AcquireBuffer(const std::string& slot,
                                               uint64_t fingerprint) {
  AS_ASSIGN_OR_RETURN(asalloc::BufferRecord record, Syscall([&] {
                        return wfd_->libos().AcquireBuffer(slot, fingerprint);
                      }));
  return RawBuffer{
      std::span<uint8_t>(reinterpret_cast<uint8_t*>(record.addr), record.size),
      record.fingerprint};
}

asbase::Status AsStd::FreeBuffer(RawBuffer buffer) {
  return Syscall(
      [&] { return wfd_->libos().HeapFree(buffer.bytes.data()); });
}

asbase::Status AsStd::ForwardBuffer(const std::string& slot,
                                    RawBuffer buffer) {
  return Syscall([&] {
    return wfd_->libos().RegisterBuffer(slot, buffer.bytes.data(),
                                        buffer.bytes.size(),
                                        buffer.fingerprint);
  });
}

asbase::Result<std::span<uint8_t>> AsStd::MapFile(const std::string& path) {
  return Syscall([&] { return wfd_->libos().MmapFile(path); });
}

asbase::Status AsStd::FaultIn(std::span<uint8_t> mapping, size_t offset,
                              size_t len) {
  return Syscall([&]() -> asbase::Status {
    return wfd_->libos()
        .EnsureResident(mapping.data(), offset, len)
        .status();
  });
}

asbase::Status AsStd::Unmap(std::span<uint8_t> mapping) {
  return Syscall([&] { return wfd_->libos().Munmap(mapping.data()); });
}

}  // namespace alloy
