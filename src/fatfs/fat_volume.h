// From-scratch FAT32 filesystem over a BlockDevice.
//
// C++ equivalent of the `rust-fatfs` crate AlloyStack mounts as each WFD's
// virtual disk image (§7.1). Implements the on-disk format for real: BPB boot
// sector, 32-bit FAT with write-through updates, cluster chains, 8.3 short
// names with VFAT long-file-name (LFN) entries, subdirectories, create /
// read / write / append / seek / delete.
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
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/fatfs/filesystem.h"

namespace asfat {

struct FormatOptions {
  uint32_t sectors_per_cluster = 8;  // 4 KiB clusters
  std::string volume_label = "ALLOYSTACK";
};

class FatVolume : public Filesystem {
 public:
  // Writes a fresh FAT32 layout onto the device.
  static asbase::Status Format(asblk::BlockDevice* device,
                               const FormatOptions& options = {});

  // Parses the boot sector and loads the FAT. The device must outlive the
  // volume.
  static asbase::Result<std::unique_ptr<FatVolume>> Mount(
      asblk::BlockDevice* device);

  // The in-memory FAT is one page per 512-byte FAT sector (128 entries),
  // each shared copy-on-write: the unit a FAT update touches.
  static constexpr uint32_t kEntriesPerSector =
      asblk::BlockDevice::kBlockSize / 4;
  using FatSector = std::array<uint32_t, kEntriesPerSector>;
  using FatPages = std::vector<std::shared_ptr<FatSector>>;

  // Snapshot-fork fast mount (DESIGN.md §14): everything Mount derives from
  // the device — geometry plus the in-memory FAT — captured once from a
  // booted volume. The FAT pages are shared between the image and every
  // volume mounted from it; a volume's first update of an entry after the
  // capture copies that entry's 512-byte sector privately, so an idle
  // clone's FAT costs one pointer per sector and a 4 KiB file write one
  // sector.
  struct MetaImage {
    uint32_t sectors_per_cluster = 0;
    uint32_t bytes_per_cluster = 0;
    uint32_t reserved_sectors = 0;
    uint32_t fat_sectors = 0;
    uint32_t data_start_sector = 0;
    uint32_t cluster_count = 0;
    uint32_t root_cluster = 2;
    std::shared_ptr<const FatPages> fat;  // pages immutable once captured
    uint32_t next_free_hint = 3;
  };

  // Captures the mounted volume's metadata. Call with no open files (the
  // visor snapshots post-reset); open handles are not part of the image.
  MetaImage SnapshotMeta();

  // Mounts over `device` (typically a CoW MemDisk clone) without reading a
  // single block: geometry and FAT come from the image. O(µs) vs O(FAT
  // sectors) for Mount.
  static std::unique_ptr<FatVolume> MountFromMeta(asblk::BlockDevice* device,
                                                  const MetaImage& meta);

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
  // Bytes of FAT sectors this volume holds alone: every sector after Mount,
  // none after SnapshotMeta or MountFromMeta until an update copies one.
  size_t PrivateFatBytes() const;

  static constexpr uint32_t kEndOfChain = 0x0FFFFFF8;
  static constexpr uint32_t kFatMask = 0x0FFFFFFF;

 private:
  FatVolume(asblk::BlockDevice* device) : device_(device) {}

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
    std::string path;          // canonical, for open-file conflict checks
    uint32_t first_cluster;
    uint64_t offset;
    uint32_t size;
    EntryLocation location;
    OpenFlags flags;
    bool dirty = false;
  };

  asbase::Status LoadGeometry();
  asbase::Status LoadFat();

  // FAT access (in-memory cache, write-through). mutex_ held.
  uint32_t FatEntry(uint32_t cluster) const;
  asbase::Status SetFatEntry(uint32_t cluster, uint32_t value);
  asbase::Result<uint32_t> AllocateCluster(uint32_t prev_cluster);
  asbase::Status FreeChain(uint32_t first_cluster);

  // Cluster data I/O; offset+len must stay within one cluster.
  uint64_t ClusterFirstSector(uint32_t cluster) const;
  asbase::Status ReadInCluster(uint32_t cluster, uint32_t offset,
                               std::span<uint8_t> out);
  asbase::Status WriteInCluster(uint32_t cluster, uint32_t offset,
                                std::span<const uint8_t> data);
  asbase::Status ZeroCluster(uint32_t cluster);

  // Walks `chain` to the cluster holding byte `offset`; allocates clusters on
  // the way when `extend` (write path).
  asbase::Result<uint32_t> ClusterForOffset(uint32_t first_cluster,
                                            uint64_t offset, bool extend);

  // Directory primitives.
  asbase::Status ReadRawEntry(uint32_t dir_cluster, uint32_t index,
                              std::span<uint8_t> out32);
  asbase::Status WriteRawEntry(uint32_t dir_cluster, uint32_t index,
                               std::span<const uint8_t> entry32);
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

  // Geometry (from the boot sector).
  uint32_t sectors_per_cluster_ = 0;
  uint32_t bytes_per_cluster_ = 0;
  uint32_t reserved_sectors_ = 0;
  uint32_t fat_sectors_ = 0;
  uint32_t data_start_sector_ = 0;
  uint32_t cluster_count_ = 0;
  uint32_t root_cluster_ = 2;

  // In-memory copy of the FAT. A sector whose page is still base_'s (the
  // image this volume was mounted from or captured into) is shared and
  // never written in place: SetFatEntry copies it first. Null base_ (after
  // Mount): every page is this volume's own.
  FatPages fat_;
  std::shared_ptr<const FatPages> base_;
  uint32_t next_free_hint_ = 3;

  std::unordered_map<int, OpenFile> open_files_;
  int next_handle_ = 3;
};

}  // namespace asfat

#endif  // SRC_FATFS_FAT_VOLUME_H_
