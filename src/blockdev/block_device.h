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
#include <memory_resource>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/resource_object.h"
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

// The private pages of one MemDisk or MemDiskImage: chunk i lives at offset
// i * kChunkBytes of one page range, and a bitmap (1 bit per chunk,
// allocated on the first Take from `memory`) records which chunks are held.
// The range is either lent by the owner (a WFD's reservation) or, when none
// is, one anonymous MAP_NORESERVE mapping of the store's own, reserved on
// the first Take and unmapped when the store dies. A page reaches RSS only
// when written and no chunk lives on the malloc heap.
class ChunkStore {
 public:
  static constexpr size_t kChunkBytes = 4u << 10;  // one page, 8 blocks

  // `pages`, when not null, is chunk_count * kChunkBytes page-aligned bytes
  // that outlive the store.
  explicit ChunkStore(uint64_t chunk_count, uint8_t* pages = nullptr,
                      std::pmr::memory_resource* memory =
                          std::pmr::get_default_resource())
      : chunk_count_(chunk_count),
        pages_(pages),
        owns_pages_(pages == nullptr),
        bits_(memory) {}
  ~ChunkStore();
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  bool Holds(uint64_t chunk) const {
    return !bits_.empty() && ((bits_[chunk / 64] >> (chunk % 64)) & 1) != 0;
  }
  // The page of a held chunk.
  uint8_t* Chunk(uint64_t chunk) const { return pages_ + chunk * kChunkBytes; }
  // Marks a chunk that is not yet held as held and returns its page, which
  // reads as zeros; reserves the mapping of an unlent store on first call.
  asbase::Result<uint8_t*> Take(uint64_t chunk);
  // Gives every held chunk's page back to the kernel and holds none.
  void Release();
  // Makes the mapping read-only: the chunks of an image never change.
  void Freeze();

  uint64_t chunk_count() const { return chunk_count_; }
  size_t held() const { return held_; }

 private:
  const uint64_t chunk_count_;
  uint8_t* pages_;
  const bool owns_pages_;
  size_t held_ = 0;
  std::pmr::vector<uint64_t> bits_;
};

// Immutable disk template for snapshot-fork (DESIGN.md §14): copies of the
// chunks a MemDisk held at capture time, over the image that disk was itself
// cloned from (if any). Shared by every clone and by the template disk
// itself, which becomes a CoW client of its own image after SnapshotImage.
// Its chunks live in a read-only mapping of its own, never in the memory of
// the disk it was captured from, which may die first.
class MemDiskImage {
 public:
  uint64_t blocks() const { return blocks_; }
  // The chunk's bytes as captured; nullptr = a hole (zeros).
  const uint8_t* FindChunk(uint64_t chunk) const;
  // Bytes of the distinct chunks this image (with its parents) holds.
  size_t bytes() const;

 private:
  friend class MemDisk;
  MemDiskImage(uint64_t blocks, uint64_t chunk_count,
               std::shared_ptr<const MemDiskImage> parent)
      : blocks_(blocks), chunks_(chunk_count), parent_(std::move(parent)) {}

  uint64_t blocks_;
  ChunkStore chunks_;
  std::shared_ptr<const MemDiskImage> parent_;
};

// RAM-backed disk with lazily-touched, page-granular storage of its own (a
// ChunkStore): a fresh 64 MiB disk commits nothing until blocks are written
// (an idle WFD's resident bytes track touched blocks, not configured disk
// size), and a disk cloned from a MemDiskImage reads the template's chunks
// until it writes — the first write to a chunk copies the image's page into
// the disk's own (or keeps the page's zero fill). A chunk is one 4 KiB page,
// the FAT cluster size, so a clone's small file write copies only the data
// clusters it touches, not their neighbours (fatfs keeps FAT and directory
// sectors in memory until a Sync). A WFD's disk keeps its chunks in the
// disk range of the WFD's reservation, which dies with the WFD; a
// standalone disk maps its own on its first write and unmaps it when it
// dies.
class MemDisk : public BlockDevice, public asbase::ResourceObject {
 public:
  static constexpr size_t kChunkBytes = ChunkStore::kChunkBytes;

  // `pages`, when not null, is where the disk keeps its chunks: the disk's
  // size rounded up to whole chunks, page-aligned, outliving the disk.
  // `memory` holds the chunk bitmap.
  explicit MemDisk(uint64_t block_count, uint8_t* pages = nullptr,
                   std::pmr::memory_resource* memory =
                       std::pmr::get_default_resource());
  // CoW clone: reads come from the image until this disk writes.
  explicit MemDisk(std::shared_ptr<const MemDiskImage> base,
                   uint8_t* pages = nullptr,
                   std::pmr::memory_resource* memory =
                       std::pmr::get_default_resource());

  // Bytes of chunk storage a disk of `block_count` blocks needs.
  static size_t StorageBytes(uint64_t block_count);

  asbase::Status Read(uint64_t lba, std::span<uint8_t> out) override;
  asbase::Status Write(uint64_t lba, std::span<const uint8_t> data) override;
  uint64_t block_count() const override { return blocks_; }

  // Freezes the current contents into an immutable image: copies the
  // chunks this disk holds into the image's own read-only store (a
  // formatted disk's few pages, once per template), then gives this disk's
  // pages back. The disk keeps serving reads from the image; its next write
  // to any frozen chunk copies privately first.
  std::shared_ptr<const MemDiskImage> SnapshotImage();

  // Bytes privately materialized by this disk: held chunks × 4 KiB. The
  // CoW-aware half of alloy_visor_pool_resident_bytes.
  size_t ResidentBytes() const;

 private:
  mutable std::mutex mutex_;
  uint64_t blocks_;
  // Chunks written by this disk since it was made or last snapshotted; a
  // held chunk shadows the base image.
  ChunkStore own_;
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
