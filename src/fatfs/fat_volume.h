// From-scratch FAT32 filesystem over a BlockDevice.
//
// C++ equivalent of the `rust-fatfs` crate AlloyStack mounts as each WFD's
// virtual disk image (§7.1). Implements the on-disk format for real: BPB boot
// sector, 32-bit FAT, cluster chains, 8.3 short names with VFAT long-file-name
// (LFN) entries, subdirectories, create / read / write / append / seek /
// delete.
//
// Metadata is written back, not through, as FatFs does: the FAT region and
// every directory cluster live in memory as 512-byte sector pages keyed by
// LBA, and a file operation sends only file data to the device. Dirty pages
// reach the device on Sync(), on SnapshotMeta(), and when the volume is
// destroyed (an unmount) unless its owner destroys the device with it
// (set_flush_on_unmount(false)).
//
// Deviations from the full spec, chosen for scope and documented here:
//   * always formats FAT32 regardless of cluster count (no FAT12/16),
//   * single FAT copy (NumFATs = 1), no FSInfo sector,
//   * timestamps are written as fixed values (no RTC in the LibOS yet).
// None of these affect the performance paths Table 4 measures (cluster-chain
// traversal, FAT updates, directory search).

#ifndef SRC_FATFS_FAT_VOLUME_H_
#define SRC_FATFS_FAT_VOLUME_H_

#include <array>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/common/resource_object.h"
#include "src/fatfs/filesystem.h"

namespace asfat {

struct FormatOptions {
  uint32_t sectors_per_cluster = 8;  // 4 KiB clusters
  std::string volume_label = "ALLOYSTACK";
};

// A volume and everything it keeps (cached sectors, open files) live in
// the memory resource it is mounted with: a WFD's system pages, or the
// default resource.
class FatVolume : public Filesystem, public asbase::ResourceObject {
 public:
  // Writes a fresh FAT32 layout onto the device.
  static asbase::Status Format(asblk::BlockDevice* device,
                               const FormatOptions& options = {});

  // Parses the boot sector and loads the FAT. The device must outlive the
  // volume.
  static asbase::Result<std::unique_ptr<FatVolume>> Mount(
      asblk::BlockDevice* device,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Unmounts: writes dirty metadata back, unless turned off.
  ~FatVolume() override;

  // One cached metadata sector, and the metadata sectors of a volume by LBA:
  // the FAT region (128 entries per sector) and directory clusters.
  using Sector = std::array<uint8_t, asblk::BlockDevice::kBlockSize>;
  using MetaPages = std::unordered_map<uint64_t, Sector>;

  // Snapshot-fork fast mount (DESIGN.md §14): everything Mount derives from
  // the device (geometry, every FAT sector and the root directory) captured
  // once from a booted volume. The pages are shared between the image and
  // every volume mounted from it; a volume's first write to a sector after
  // the capture copies that 512-byte sector privately, so an idle clone's
  // metadata costs nothing and a 4 KiB file write two sectors (the FAT
  // sector and the directory entry's).
  struct MetaImage {
    uint32_t sectors_per_cluster = 0;
    uint32_t bytes_per_cluster = 0;
    uint32_t reserved_sectors = 0;
    uint32_t fat_sectors = 0;
    uint32_t data_start_sector = 0;
    uint32_t cluster_count = 0;
    uint32_t root_cluster = 2;
    std::shared_ptr<const MetaPages> pages;  // immutable once captured
    uint32_t next_free_hint = 3;
  };

  // Writes dirty metadata back, then captures the volume's metadata: the
  // device and the image agree afterwards, so freeze the device after this
  // call. Call with no open files (the visor snapshots post-reset); open
  // handles are not part of the image.
  asbase::Result<MetaImage> SnapshotMeta();

  // Mounts over `device` (typically a CoW MemDisk clone) without reading a
  // single block and with no private metadata: geometry, FAT and root
  // directory come from the image.
  static std::unique_ptr<FatVolume> MountFromMeta(
      asblk::BlockDevice* device, const MetaImage& meta,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Whether destroying the volume writes dirty metadata back (default on).
  // Off for a volume whose device is destroyed with it: nobody could read
  // what the write-back would copy into it.
  void set_flush_on_unmount(bool flush) { flush_on_unmount_ = flush; }

  // ---- Filesystem interface ----
  asbase::Result<int> Open(const std::string& path, OpenFlags flags) override;
  asbase::Status Close(int handle) override;
  asbase::Result<size_t> Read(int handle, std::span<uint8_t> out) override;
  asbase::Result<size_t> Write(int handle,
                               std::span<const uint8_t> data) override;
  asbase::Result<uint64_t> Seek(int handle, int64_t offset,
                                Whence whence) override;
  asbase::Result<FileInfo> Stat(const std::string& path) override;
  asbase::Status Mkdir(const std::string& path) override;
  asbase::Status Remove(const std::string& path) override;
  asbase::Result<std::vector<FileInfo>> ReadDir(
      const std::string& path) override;
  asbase::Status Sync() override;

  // ---- introspection ----
  uint32_t cluster_count() const { return cluster_count_; }
  uint32_t bytes_per_cluster() const { return bytes_per_cluster_; }
  asbase::Result<uint32_t> CountFreeClusters();
  // Bytes of metadata sectors this volume holds alone: every FAT sector and
  // every directory sector it has read after Mount, none after SnapshotMeta
  // or MountFromMeta until a write copies one.
  size_t PrivateMetaBytes() const;

  static constexpr uint32_t kEndOfChain = 0x0FFFFFF8;
  static constexpr uint32_t kFatMask = 0x0FFFFFFF;

 private:
  FatVolume(asblk::BlockDevice* device, std::pmr::memory_resource* memory)
      : device_(device), own_(memory), open_files_(memory) {}

  // Location of a 32-byte directory entry on disk.
  struct EntryLocation {
    uint32_t dir_cluster = 0;  // first cluster of the containing directory
    uint32_t index = 0;        // entry index within the directory stream
  };

  // A parsed directory entry (after LFN assembly).
  struct DirEntry {
    std::string name;        // long name if present, else 8.3
    uint8_t attr = 0;
    uint32_t first_cluster = 0;
    uint32_t size = 0;
    EntryLocation location;      // of the 8.3 entry
    uint32_t lfn_start_index = 0;  // first LFN slot (== location.index if none)
    bool is_directory() const { return (attr & 0x10) != 0; }
  };

  struct OpenFile {
    std::pmr::string path;     // canonical, for open-file conflict checks
    uint32_t first_cluster;
    uint64_t offset;
    uint32_t size;
    EntryLocation location;
    OpenFlags flags;
    bool dirty = false;
    // The last cluster looked up and its index in the chain (valid when
    // cursor_cluster != 0): a sequential read or write hops one link per
    // cluster instead of walking from first_cluster.
    uint32_t cursor_cluster = 0;
    uint64_t cursor_index = 0;
  };

  // How ChainCluster treats the end of a chain: an error, or a new cluster
  // (a directory's is zeroed in the metadata cache).
  enum class Extend { kNo, kFile, kDirectory };

  asbase::Status LoadGeometry();
  asbase::Status LoadFat();

  // Metadata sector cache (FAT region and directory clusters). mutex_ held.
  // The cached sector at `lba`, this volume's or base_'s; nullptr if none.
  const uint8_t* CachedSector(uint64_t lba) const;
  // The sector at `lba`, read from the device and kept on a miss.
  asbase::Result<const uint8_t*> MetaSector(uint64_t lba);
  // This volume's dirty copy of the sector at `lba`, copied from base_ (or
  // read from the device) on first write.
  asbase::Result<uint8_t*> MutableMetaSector(uint64_t lba);
  // Every sector of `cluster` as this volume's own dirty zeros: a fresh
  // directory cluster, whatever the device or base_ held there.
  void ZeroMetaCluster(uint32_t cluster);
  // Forgets `cluster`'s sectors, dirty or not: a freed directory cluster may
  // next hold file data, which a later write-back must not overwrite.
  void DropMetaCluster(uint32_t cluster);
  // Writes every dirty sector to the device.
  asbase::Status WriteBackLocked();

  // FAT access through the cache. mutex_ held.
  uint32_t FatEntry(uint32_t cluster) const;
  asbase::Status SetFatEntry(uint32_t cluster, uint32_t value);
  asbase::Result<uint32_t> AllocateCluster(uint32_t prev_cluster);
  // Frees the chain; a directory's cached sectors go with it.
  asbase::Status FreeChain(uint32_t first_cluster, bool directory);

  // Cluster data I/O; offset+len must stay within one cluster.
  uint64_t ClusterFirstSector(uint32_t cluster) const;
  asbase::Status ReadInCluster(uint32_t cluster, uint32_t offset,
                               std::span<uint8_t> out);
  asbase::Status WriteInCluster(uint32_t cluster, uint32_t offset,
                                std::span<const uint8_t> data);
  asbase::Status ZeroCluster(uint32_t cluster);

  // The cluster `hops` links down the chain from `cluster`, allocating
  // clusters on the way unless `extend` is kNo.
  asbase::Result<uint32_t> ChainCluster(uint32_t cluster, uint64_t hops,
                                        Extend extend);
  // The cluster of `file` holding byte `offset`, from its cursor when the
  // cursor is at or before it.
  asbase::Result<uint32_t> FileCluster(OpenFile& file, uint64_t offset,
                                       bool extend);

  // Directory primitives, all on cached sectors.
  // The 32-byte entry `index` of the directory starting at `dir_cluster`.
  asbase::Result<const uint8_t*> EntryAt(uint32_t dir_cluster, uint32_t index);
  // A writable entry; extends the directory's chain when `index` is past it.
  asbase::Result<uint8_t*> MutableEntryAt(uint32_t dir_cluster,
                                          uint32_t index);
  asbase::Result<std::vector<DirEntry>> ParseDir(uint32_t dir_cluster);
  asbase::Result<DirEntry> FindInDir(uint32_t dir_cluster,
                                     const std::string& name);
  // Creates a (possibly LFN) entry; returns its location.
  asbase::Result<DirEntry> CreateEntry(uint32_t dir_cluster,
                                       const std::string& name, uint8_t attr,
                                       uint32_t first_cluster, uint32_t size);
  asbase::Status DeleteEntry(const DirEntry& entry);
  // Rewrites first_cluster/size of an existing 8.3 entry.
  asbase::Status UpdateEntry(const EntryLocation& location,
                             uint32_t first_cluster, uint32_t size);

  // Path resolution: returns the directory cluster containing the leaf and
  // the leaf name.
  struct ResolvedParent {
    uint32_t dir_cluster;
    std::string leaf;
  };
  asbase::Result<ResolvedParent> ResolveParent(const std::string& path);
  asbase::Result<DirEntry> ResolvePath(const std::string& path);

  asbase::Status FlushFile(OpenFile& file);

  asblk::BlockDevice* device_;
  mutable std::mutex mutex_;
  bool flush_on_unmount_ = true;

  // Geometry (from the boot sector).
  uint32_t sectors_per_cluster_ = 0;
  uint32_t bytes_per_cluster_ = 0;
  uint32_t reserved_sectors_ = 0;
  uint32_t fat_sectors_ = 0;
  uint32_t data_start_sector_ = 0;
  uint32_t cluster_count_ = 0;
  uint32_t root_cluster_ = 2;

  // Cached metadata sectors. A sector in own_ is this volume's and shadows
  // base_ (the image this volume was mounted from or captured into), which
  // is shared and never written: the first write to one of its sectors
  // copies it into own_. Null base_ (after Mount): every cached sector is
  // in own_.
  struct OwnedSector {
    Sector bytes;
    bool dirty = false;  // differs from the device
  };
  std::pmr::unordered_map<uint64_t, OwnedSector> own_;
  std::shared_ptr<const MetaPages> base_;
  uint32_t next_free_hint_ = 3;

  std::pmr::unordered_map<int, OpenFile> open_files_;
  int next_handle_ = 3;
};

}  // namespace asfat

#endif  // SRC_FATFS_FAT_VOLUME_H_
