#include "src/blockdev/block_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/common/clock.h"

namespace asblk {

asbase::Status BlockDevice::ValidateRange(uint64_t lba, size_t bytes) const {
  if (bytes == 0 || bytes % kBlockSize != 0) {
    return asbase::InvalidArgument("I/O size must be a multiple of 512");
  }
  const uint64_t blocks = bytes / kBlockSize;
  if (lba + blocks > block_count()) {
    return asbase::OutOfRange("I/O past end of device");
  }
  return asbase::OkStatus();
}

size_t MemDiskImage::bytes() const {
  size_t total = 0;
  for (const auto& [index, chunk] : chunks) {
    total += chunk->size();
  }
  return total;
}

MemDisk::MemDisk(uint64_t block_count) : blocks_(block_count) {}

MemDisk::MemDisk(std::shared_ptr<const MemDiskImage> base)
    : blocks_(base == nullptr ? 0 : base->blocks), base_(std::move(base)) {}

const std::vector<uint8_t>* MemDisk::ChunkForRead(uint64_t chunk_index) const {
  auto it = chunks_.find(chunk_index);
  if (it != chunks_.end()) {
    return it->second.get();
  }
  if (base_ != nullptr) {
    auto base_it = base_->chunks.find(chunk_index);
    if (base_it != base_->chunks.end()) {
      return base_it->second.get();
    }
  }
  return nullptr;  // hole: zeros
}

std::vector<uint8_t>* MemDisk::ChunkForWrite(uint64_t chunk_index) {
  auto it = chunks_.find(chunk_index);
  if (it != chunks_.end()) {
    return it->second.get();
  }
  // First write into this chunk: copy the template's content (CoW break) or
  // start from zeros.
  std::shared_ptr<std::vector<uint8_t>> chunk;
  const std::vector<uint8_t>* base_chunk = nullptr;
  if (base_ != nullptr) {
    auto base_it = base_->chunks.find(chunk_index);
    if (base_it != base_->chunks.end()) {
      base_chunk = base_it->second.get();
    }
  }
  if (base_chunk != nullptr) {
    chunk = std::make_shared<std::vector<uint8_t>>(*base_chunk);
  } else {
    chunk = std::make_shared<std::vector<uint8_t>>(kChunkBytes, 0);
  }
  std::vector<uint8_t>* raw = chunk.get();
  chunks_.emplace(chunk_index, std::move(chunk));
  return raw;
}

asbase::Status MemDisk::Read(uint64_t lba, std::span<uint8_t> out) {
  AS_RETURN_IF_ERROR(ValidateRange(lba, out.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t offset = lba * kBlockSize;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t chunk_index = offset / kChunkBytes;
    const size_t within = static_cast<size_t>(offset % kChunkBytes);
    const size_t len = std::min(out.size() - done, kChunkBytes - within);
    const std::vector<uint8_t>* chunk = ChunkForRead(chunk_index);
    if (chunk != nullptr) {
      std::memcpy(out.data() + done, chunk->data() + within, len);
    } else {
      std::memset(out.data() + done, 0, len);
    }
    done += len;
    offset += len;
  }
  CountRead(out.size());
  return asbase::OkStatus();
}

asbase::Status MemDisk::Write(uint64_t lba, std::span<const uint8_t> data) {
  AS_RETURN_IF_ERROR(ValidateRange(lba, data.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t offset = lba * kBlockSize;
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t chunk_index = offset / kChunkBytes;
    const size_t within = static_cast<size_t>(offset % kChunkBytes);
    const size_t len = std::min(data.size() - done, kChunkBytes - within);
    std::vector<uint8_t>* chunk = ChunkForWrite(chunk_index);
    std::memcpy(chunk->data() + within, data.data() + done, len);
    done += len;
    offset += len;
  }
  CountWrite(data.size());
  return asbase::OkStatus();
}

std::shared_ptr<const MemDiskImage> MemDisk::SnapshotImage() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto image = std::make_shared<MemDiskImage>();
  image->blocks = blocks_;
  if (base_ != nullptr) {
    image->chunks = base_->chunks;
  }
  for (const auto& [index, chunk] : chunks_) {
    image->chunks[index] = chunk;
  }
  // The template disk becomes a CoW client of its own frozen image: its
  // next write to any of these chunks copies privately, so the image stays
  // immutable while the template keeps serving.
  base_ = image;
  chunks_.clear();
  return image;
}

size_t MemDisk::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Every chunk is kChunkBytes (ChunkForWrite makes or copies one), so this
  // is O(1): the pool charges it on every park, and a long-lived WFD's
  // rewritten files leave it thousands of chunks.
  return chunks_.size() * kChunkBytes;
}

asbase::Result<std::unique_ptr<FileDisk>> FileDisk::Create(
    const std::string& path, uint64_t block_count) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return asbase::Internal("cannot open disk image " + path);
  }
  if (::ftruncate(fd, static_cast<off_t>(block_count * kBlockSize)) != 0) {
    ::close(fd);
    return asbase::Internal("cannot size disk image " + path);
  }
  return std::unique_ptr<FileDisk>(new FileDisk(fd, block_count));
}

FileDisk::~FileDisk() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

asbase::Status FileDisk::Read(uint64_t lba, std::span<uint8_t> out) {
  AS_RETURN_IF_ERROR(ValidateRange(lba, out.size()));
  ssize_t n = ::pread(fd_, out.data(), out.size(),
                      static_cast<off_t>(lba * kBlockSize));
  if (n != static_cast<ssize_t>(out.size())) {
    return asbase::DataLoss("short read from disk image");
  }
  CountRead(out.size());
  return asbase::OkStatus();
}

asbase::Status FileDisk::Write(uint64_t lba, std::span<const uint8_t> data) {
  AS_RETURN_IF_ERROR(ValidateRange(lba, data.size()));
  ssize_t n = ::pwrite(fd_, data.data(), data.size(),
                       static_cast<off_t>(lba * kBlockSize));
  if (n != static_cast<ssize_t>(data.size())) {
    return asbase::DataLoss("short write to disk image");
  }
  CountWrite(data.size());
  return asbase::OkStatus();
}

LatencyDisk::LatencyDisk(std::unique_ptr<BlockDevice> inner,
                         int64_t per_op_nanos, int64_t nanos_per_kib)
    : inner_(std::move(inner)),
      per_op_nanos_(per_op_nanos),
      nanos_per_kib_(nanos_per_kib) {}

void LatencyDisk::Charge(size_t bytes) {
  asbase::SpinFor(per_op_nanos_ +
                  nanos_per_kib_ * static_cast<int64_t>(bytes) / 1024);
}

asbase::Status LatencyDisk::Read(uint64_t lba, std::span<uint8_t> out) {
  Charge(out.size());
  AS_RETURN_IF_ERROR(inner_->Read(lba, out));
  CountRead(out.size());
  return asbase::OkStatus();
}

asbase::Status LatencyDisk::Write(uint64_t lba,
                                  std::span<const uint8_t> data) {
  Charge(data.size());
  AS_RETURN_IF_ERROR(inner_->Write(lba, data));
  CountWrite(data.size());
  return asbase::OkStatus();
}

}  // namespace asblk
