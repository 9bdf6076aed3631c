#include "src/blockdev/block_device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/common/clock.h"
#include "src/common/logging.h"

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

ChunkStore::~ChunkStore() {
  if (owns_pages_ && pages_ != nullptr) {
    ::munmap(pages_, chunk_count_ * kChunkBytes);
  }
}

asbase::Result<uint8_t*> ChunkStore::Take(uint64_t chunk) {
  if (pages_ == nullptr) {
    // The whole disk's worth of address space, committed page by page as
    // chunks are written: a standalone disk that writes pays this one mmap.
    void* mapped = ::mmap(nullptr, chunk_count_ * kChunkBytes,
                          PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mapped == MAP_FAILED) {
      return asbase::ResourceExhausted("cannot map MemDisk pages");
    }
    pages_ = static_cast<uint8_t*>(mapped);
  }
  if (bits_.empty()) {
    bits_.assign((chunk_count_ + 63) / 64, 0);
  }
  bits_[chunk / 64] |= uint64_t{1} << (chunk % 64);
  ++held_;
  return Chunk(chunk);
}

void ChunkStore::Release() {
  if (held_ == 0) {
    return;
  }
  // One madvise from the first held chunk to the last: pages in between
  // that were never touched cost it nothing.
  uint64_t first = chunk_count_;
  uint64_t last = 0;
  for (uint64_t word = 0; word < bits_.size(); ++word) {
    if (bits_[word] != 0) {
      first = std::min<uint64_t>(first,
                                 word * 64 + std::countr_zero(bits_[word]));
      last = word * 64 + 63 - std::countl_zero(bits_[word]);
      bits_[word] = 0;
    }
  }
  ::madvise(Chunk(first), (last + 1 - first) * kChunkBytes, MADV_DONTNEED);
  held_ = 0;
}

void ChunkStore::Freeze() {
  if (pages_ != nullptr) {
    ::mprotect(pages_, chunk_count_ * kChunkBytes, PROT_READ);
  }
}

const uint8_t* MemDiskImage::FindChunk(uint64_t chunk) const {
  for (const MemDiskImage* image = this; image != nullptr;
       image = image->parent_.get()) {
    if (image->chunks_.Holds(chunk)) {
      return image->chunks_.Chunk(chunk);
    }
  }
  return nullptr;
}

size_t MemDiskImage::bytes() const {
  size_t chunks = 0;
  for (uint64_t chunk = 0; chunk < chunks_.chunk_count(); ++chunk) {
    chunks += FindChunk(chunk) != nullptr ? 1 : 0;
  }
  return chunks * ChunkStore::kChunkBytes;
}

namespace {

uint64_t ChunksFor(uint64_t blocks) {
  return (blocks * BlockDevice::kBlockSize + ChunkStore::kChunkBytes - 1) /
         ChunkStore::kChunkBytes;
}

}  // namespace

MemDisk::MemDisk(uint64_t block_count, uint8_t* pages,
                 std::pmr::memory_resource* memory)
    : blocks_(block_count), own_(ChunksFor(block_count), pages, memory) {}

MemDisk::MemDisk(std::shared_ptr<const MemDiskImage> base, uint8_t* pages,
                 std::pmr::memory_resource* memory)
    : blocks_(base == nullptr ? 0 : base->blocks()),
      own_(ChunksFor(blocks_), pages, memory),
      base_(std::move(base)) {}

size_t MemDisk::StorageBytes(uint64_t block_count) {
  return ChunksFor(block_count) * kChunkBytes;
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
    const uint8_t* chunk = own_.Holds(chunk_index) ? own_.Chunk(chunk_index)
                           : base_ != nullptr ? base_->FindChunk(chunk_index)
                                              : nullptr;
    if (chunk != nullptr) {
      std::memcpy(out.data() + done, chunk + within, len);
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
    uint8_t* chunk = nullptr;
    if (own_.Holds(chunk_index)) {
      chunk = own_.Chunk(chunk_index);
    } else {
      // First write into this chunk: copy the template's page (CoW break)
      // unless this write replaces all of it, or keep the fresh page's zeros.
      AS_ASSIGN_OR_RETURN(chunk, own_.Take(chunk_index));
      const uint8_t* image =
          base_ != nullptr ? base_->FindChunk(chunk_index) : nullptr;
      if (image != nullptr && len < kChunkBytes) {
        std::memcpy(chunk, image, kChunkBytes);
      }
    }
    std::memcpy(chunk + within, data.data() + done, len);
    done += len;
    offset += len;
  }
  CountWrite(data.size());
  return asbase::OkStatus();
}

std::shared_ptr<const MemDiskImage> MemDisk::SnapshotImage() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (own_.held() == 0 && base_ != nullptr) {
    return base_;  // nothing written since the base: it is the image
  }
  // The image copies this disk's chunks into a store of its own, since this
  // disk's pages die with it (a WFD's with its reservation). The disk then
  // gives its pages back and becomes a CoW client of its frozen image: its
  // next write to any of these chunks copies first, and the image stays
  // immutable.
  auto image = std::shared_ptr<MemDiskImage>(
      new MemDiskImage(blocks_, own_.chunk_count(), std::move(base_)));
  for (uint64_t chunk = 0; chunk < own_.chunk_count(); ++chunk) {
    if (own_.Holds(chunk)) {
      auto page = image->chunks_.Take(chunk);
      AS_CHECK(page.ok()) << page.status().ToString();
      std::memcpy(*page, own_.Chunk(chunk), kChunkBytes);
    }
  }
  image->chunks_.Freeze();
  own_.Release();
  base_ = std::move(image);
  return base_;
}

size_t MemDisk::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // O(1): the pool charges it on every park, and a long-lived WFD's
  // rewritten files leave it thousands of chunks.
  return own_.held() * kChunkBytes;
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
