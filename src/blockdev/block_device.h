// Block device abstraction under the FAT filesystem (§7.1: each WFD gets a
// virtual disk image).
//
// Three implementations:
//   MemDisk     RAM-backed; the default WFD disk image.
//   FileDisk    pread/pwrite on a host file; persistent images.
//   LatencyDisk decorator charging a per-op + per-byte cost, used to model a
//               real SSD so fatfs-vs-ext4 comparisons (Table 4) are not
//               comparing RAM against media.

#ifndef SRC_BLOCKDEV_BLOCK_DEVICE_H_
#define SRC_BLOCKDEV_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace asblk {

class BlockDevice {
 public:
  static constexpr size_t kBlockSize = 512;

  virtual ~BlockDevice() = default;

  // out.size() must be a multiple of kBlockSize; reads out.size()/kBlockSize
  // consecutive blocks starting at `lba`.
  virtual asbase::Status Read(uint64_t lba, std::span<uint8_t> out) = 0;
  virtual asbase::Status Write(uint64_t lba,
                               std::span<const uint8_t> data) = 0;
  virtual uint64_t block_count() const = 0;

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  Stats stats() const {
    return Stats{reads_.load(), writes_.load(), bytes_read_.load(),
                 bytes_written_.load()};
  }

 protected:
  asbase::Status ValidateRange(uint64_t lba, size_t bytes) const;
  void CountRead(size_t bytes) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountWrite(size_t bytes) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

// Immutable disk template for snapshot-fork (DESIGN.md §14): the sparse set
// of touched chunks of a MemDisk at capture time. Shared by every clone (and
// by the template disk itself, which becomes a CoW client of its own image
// after SnapshotImage); chunk vectors are never mutated once they land here.
struct MemDiskImage {
  uint64_t blocks = 0;
  std::unordered_map<uint64_t, std::shared_ptr<std::vector<uint8_t>>> chunks;

  size_t bytes() const;
};

// RAM-backed disk with lazily-touched chunked storage: a fresh 64 MiB disk
// commits nothing until blocks are written (an idle WFD's resident bytes
// track touched blocks, not configured disk size), and a disk cloned from a
// MemDiskImage shares the template's chunks copy-on-write — the first write
// to a shared chunk copies that chunk privately. A chunk is one 4 KiB page,
// the FAT cluster size, so a clone's small file write copies only the data
// clusters it touches, not their neighbours (fatfs keeps FAT and directory
// sectors in memory until a Sync).
class MemDisk : public BlockDevice {
 public:
  static constexpr size_t kChunkBytes = 4u << 10;  // 8 blocks

  explicit MemDisk(uint64_t block_count);
  // CoW clone: reads come from the image until this disk writes.
  explicit MemDisk(std::shared_ptr<const MemDiskImage> base);

  asbase::Status Read(uint64_t lba, std::span<uint8_t> out) override;
  asbase::Status Write(uint64_t lba, std::span<const uint8_t> data) override;
  uint64_t block_count() const override { return blocks_; }

  // Freezes the current contents into an immutable image (cheap: shares
  // chunk vectors, copies no data). This disk keeps serving reads/writes;
  // its own next write to any frozen chunk copies privately first.
  std::shared_ptr<const MemDiskImage> SnapshotImage();

  // Bytes privately materialized by this disk: touched chunks minus those
  // still shared with the base image. The CoW-aware half of
  // alloy_visor_pool_resident_bytes.
  size_t ResidentBytes() const;

 private:
  // Returns a privately-owned, mutable chunk for `chunk_index`, copying
  // from the base image (or zero-filling) on first write. mutex_ held.
  std::vector<uint8_t>* ChunkForWrite(uint64_t chunk_index);
  // Read view of a chunk; nullptr = hole (zeros). mutex_ held.
  const std::vector<uint8_t>* ChunkForRead(uint64_t chunk_index) const;

  mutable std::mutex mutex_;
  uint64_t blocks_;
  // Touched chunks owned by this disk. An entry shadows the base image.
  std::unordered_map<uint64_t, std::shared_ptr<std::vector<uint8_t>>> chunks_;
  // Template this disk was cloned from (or froze itself into); may be null.
  std::shared_ptr<const MemDiskImage> base_;
};

class FileDisk : public BlockDevice {
 public:
  // Creates/opens `path` and sizes it to block_count blocks.
  static asbase::Result<std::unique_ptr<FileDisk>> Create(
      const std::string& path, uint64_t block_count);
  ~FileDisk() override;

  asbase::Status Read(uint64_t lba, std::span<uint8_t> out) override;
  asbase::Status Write(uint64_t lba, std::span<const uint8_t> data) override;
  uint64_t block_count() const override { return blocks_; }

 private:
  FileDisk(int fd, uint64_t blocks) : fd_(fd), blocks_(blocks) {}
  int fd_;
  uint64_t blocks_;
};

// Decorator adding a seek latency per operation and a transfer cost per byte
// (defaults model a SATA SSD: ~60us access, ~500MB/s throughput).
class LatencyDisk : public BlockDevice {
 public:
  LatencyDisk(std::unique_ptr<BlockDevice> inner, int64_t per_op_nanos = 60'000,
              int64_t nanos_per_kib = 2'000);

  asbase::Status Read(uint64_t lba, std::span<uint8_t> out) override;
  asbase::Status Write(uint64_t lba, std::span<const uint8_t> data) override;
  uint64_t block_count() const override { return inner_->block_count(); }

 private:
  void Charge(size_t bytes);

  std::unique_ptr<BlockDevice> inner_;
  int64_t per_op_nanos_;
  int64_t nanos_per_kib_;
};

}  // namespace asblk

#endif  // SRC_BLOCKDEV_BLOCK_DEVICE_H_
