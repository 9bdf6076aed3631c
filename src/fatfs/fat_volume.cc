#include "src/fatfs/fat_volume.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace asfat {
namespace {

// File I/O counters, labeled fs="fat" (the ramfs keeps its own series).
struct IoCounters {
  asobs::Counter& read_ops;
  asobs::Counter& read_bytes;
  asobs::Counter& write_ops;
  asobs::Counter& write_bytes;
};

IoCounters& FatIoCounters() {
  const asobs::Labels labels = {{"fs", "fat"}};
  static auto* counters = new IoCounters{
      asobs::Registry::Global().GetCounter("alloy_fs_read_ops_total", labels),
      asobs::Registry::Global().GetCounter("alloy_fs_read_bytes_total",
                                           labels),
      asobs::Registry::Global().GetCounter("alloy_fs_write_ops_total", labels),
      asobs::Registry::Global().GetCounter("alloy_fs_write_bytes_total",
                                           labels),
  };
  return *counters;
}

constexpr size_t kSector = asblk::BlockDevice::kBlockSize;
constexpr uint32_t kEntriesPerSector = kSector / 4;  // FAT entries
// Source of every zero-fill write: one 4 KiB cluster's worth, never a
// per-call allocation.
constexpr uint8_t kZeroBlock[4096] = {};
constexpr uint32_t kEntrySize = 32;
constexpr uint8_t kAttrDirectory = 0x10;
constexpr uint8_t kAttrArchive = 0x20;
constexpr uint8_t kAttrLfn = 0x0F;
constexpr uint8_t kDeletedMarker = 0xE5;

void PutLe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
void PutLe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
uint16_t GetLe16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t GetLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint8_t ShortNameChecksum(const uint8_t* name11) {
  uint8_t sum = 0;
  for (int i = 0; i < 11; ++i) {
    sum = static_cast<uint8_t>(((sum & 1) << 7) + (sum >> 1) + name11[i]);
  }
  return sum;
}

bool IsAllowedShortChar(char c) {
  if (std::isupper(static_cast<unsigned char>(c)) ||
      std::isdigit(static_cast<unsigned char>(c))) {
    return true;
  }
  return std::strchr("!#$%&'()-@^_`{}~", c) != nullptr;
}

// True when `name` fits 8.3 verbatim (so no LFN entries are required).
bool IsValidShortName(const std::string& name) {
  size_t dot = name.rfind('.');
  std::string base = dot == std::string::npos ? name : name.substr(0, dot);
  std::string ext = dot == std::string::npos ? "" : name.substr(dot + 1);
  if (base.empty() || base.size() > 8 || ext.size() > 3) {
    return false;
  }
  for (char c : base) {
    if (!IsAllowedShortChar(c)) {
      return false;
    }
  }
  for (char c : ext) {
    if (!IsAllowedShortChar(c)) {
      return false;
    }
  }
  return true;
}

// Packs base/ext into the 11-byte space-padded form.
void PackShortName(const std::string& base, const std::string& ext,
                   uint8_t* out11) {
  std::memset(out11, ' ', 11);
  std::memcpy(out11, base.data(), std::min<size_t>(base.size(), 8));
  std::memcpy(out11 + 8, ext.data(), std::min<size_t>(ext.size(), 3));
}

std::string UnpackShortName(const uint8_t* name11) {
  std::string base(reinterpret_cast<const char*>(name11), 8);
  std::string ext(reinterpret_cast<const char*>(name11) + 8, 3);
  while (!base.empty() && base.back() == ' ') {
    base.pop_back();
  }
  while (!ext.empty() && ext.back() == ' ') {
    ext.pop_back();
  }
  if (ext.empty()) {
    return base;
  }
  return base + "." + ext;
}

std::string ToUpperAscii(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

bool NamesEqual(const std::string& a, const std::string& b) {
  return ToUpperAscii(a) == ToUpperAscii(b);
}

// The 13 UCS-2 character positions inside one LFN entry.
constexpr int kLfnOffsets[13] = {1, 3, 5, 7, 9, 14, 16, 18, 20, 22, 24, 28, 30};

}  // namespace

// ----------------------------------------------------------------- Format

asbase::Status FatVolume::Format(asblk::BlockDevice* device,
                                 const FormatOptions& options) {
  const uint64_t total_sectors = device->block_count();
  const uint32_t spc = options.sectors_per_cluster;
  if (spc == 0 || (spc & (spc - 1)) != 0) {
    return asbase::InvalidArgument("sectors_per_cluster must be a power of 2");
  }
  const uint32_t reserved = 32;
  // Solve: reserved + fat_sectors + clusters*spc <= total, where
  // fat_sectors = ceil((clusters + 2) * 4 / 512), padded so the data region
  // starts on a cluster boundary. A cluster then never straddles two
  // copy-on-write disk pages (MemDisk pages are one 4 KiB cluster), so a
  // clone's cluster write copies one page on every geometry.
  uint64_t clusters = (total_sectors - reserved) / spc;
  uint64_t fat_sectors = 0;
  for (int i = 0; i < 8; ++i) {
    fat_sectors = ((clusters + 2) * 4 + kSector - 1) / kSector;
    fat_sectors += (spc - (reserved + fat_sectors) % spc) % spc;
    clusters = (total_sectors - reserved - fat_sectors) / spc;
  }
  if (clusters < 8) {
    return asbase::InvalidArgument("device too small to format");
  }

  // Boot sector / BPB.
  std::vector<uint8_t> boot(kSector, 0);
  boot[0] = 0xEB;
  boot[1] = 0x58;
  boot[2] = 0x90;
  std::memcpy(&boot[3], "ALLOYFAT", 8);             // OEM name
  PutLe16(&boot[11], kSector);                      // bytes per sector
  boot[13] = static_cast<uint8_t>(spc);             // sectors per cluster
  PutLe16(&boot[14], static_cast<uint16_t>(reserved));
  boot[16] = 1;                                     // one FAT
  PutLe16(&boot[17], 0);                            // root entries (FAT32: 0)
  PutLe16(&boot[19], 0);                            // total16
  boot[21] = 0xF8;                                  // media descriptor
  PutLe16(&boot[22], 0);                            // fat16 size
  PutLe32(&boot[32], static_cast<uint32_t>(total_sectors));
  PutLe32(&boot[36], static_cast<uint32_t>(fat_sectors));
  PutLe32(&boot[44], 2);                            // root cluster
  PutLe16(&boot[48], 0xFFFF);                       // no FSInfo
  boot[66] = 0x29;                                  // extended boot signature
  PutLe32(&boot[67], 0xA110A110);                   // volume id
  std::memset(&boot[71], ' ', 11);
  std::memcpy(&boot[71], options.volume_label.data(),
              std::min<size_t>(options.volume_label.size(), 11));
  std::memcpy(&boot[82], "FAT32   ", 8);
  boot[510] = 0x55;
  boot[511] = 0xAA;
  AS_RETURN_IF_ERROR(device->Write(0, boot));

  // Zero the FAT region, then seed entries 0, 1 and the root cluster.
  const std::span<const uint8_t> zero(kZeroBlock, kSector);
  for (uint64_t s = 0; s < fat_sectors; ++s) {
    AS_RETURN_IF_ERROR(device->Write(reserved + s, zero));
  }
  std::vector<uint8_t> fat0(kSector, 0);
  PutLe32(&fat0[0], 0x0FFFFFF8);  // media
  PutLe32(&fat0[4], 0x0FFFFFFF);  // EOC
  PutLe32(&fat0[8], 0x0FFFFFFF);  // root cluster chain terminator
  AS_RETURN_IF_ERROR(device->Write(reserved, fat0));

  // Zero the root directory cluster.
  const uint64_t data_start = reserved + fat_sectors;
  for (uint32_t s = 0; s < spc; ++s) {
    AS_RETURN_IF_ERROR(device->Write(data_start + s, zero));
  }
  return asbase::OkStatus();
}

// ----------------------------------------------------------------- Mount

asbase::Result<std::unique_ptr<FatVolume>> FatVolume::Mount(
    asblk::BlockDevice* device, std::pmr::memory_resource* memory) {
  auto volume = std::unique_ptr<FatVolume>(new (memory)
                                               FatVolume(device, memory));
  AS_RETURN_IF_ERROR(volume->LoadGeometry());
  AS_RETURN_IF_ERROR(volume->LoadFat());
  return volume;
}

asbase::Status FatVolume::LoadGeometry() {
  std::vector<uint8_t> boot(kSector);
  AS_RETURN_IF_ERROR(device_->Read(0, boot));
  if (boot[510] != 0x55 || boot[511] != 0xAA) {
    return asbase::DataLoss("bad boot sector signature");
  }
  if (GetLe16(&boot[11]) != kSector) {
    return asbase::DataLoss("unsupported sector size");
  }
  sectors_per_cluster_ = boot[13];
  if (sectors_per_cluster_ == 0) {
    return asbase::DataLoss("corrupt BPB: zero sectors per cluster");
  }
  bytes_per_cluster_ = sectors_per_cluster_ * kSector;
  reserved_sectors_ = GetLe16(&boot[14]);
  fat_sectors_ = GetLe32(&boot[36]);
  root_cluster_ = GetLe32(&boot[44]);
  const uint32_t total_sectors = GetLe32(&boot[32]);
  data_start_sector_ = reserved_sectors_ + fat_sectors_;
  if (data_start_sector_ >= total_sectors) {
    return asbase::DataLoss("corrupt BPB: no data region");
  }
  cluster_count_ = (total_sectors - data_start_sector_) / sectors_per_cluster_;
  if (root_cluster_ < 2 || root_cluster_ >= cluster_count_ + 2) {
    return asbase::DataLoss("corrupt BPB: root cluster out of range");
  }
  return asbase::OkStatus();
}

asbase::Status FatVolume::LoadFat() {
  const uint32_t sectors =
      (cluster_count_ + 2 + kEntriesPerSector - 1) / kEntriesPerSector;
  for (uint32_t s = 0; s < sectors; ++s) {
    AS_RETURN_IF_ERROR(MetaSector(reserved_sectors_ + s).status());
  }
  return asbase::OkStatus();
}

FatVolume::~FatVolume() {
  if (!flush_on_unmount_) {
    return;
  }
  const asbase::Status status = Sync();
  if (!status.ok()) {
    AS_LOG(kWarn) << "fatfs unmount: metadata write-back failed: "
                  << status.ToString();
  }
}

asbase::Result<FatVolume::MetaImage> FatVolume::SnapshotMeta() {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_RETURN_IF_ERROR(WriteBackLocked());
  // The root directory travels with the image, so a clone's path lookups
  // never read the device.
  uint32_t cluster = root_cluster_;
  for (uint32_t guard = 0; cluster >= 2 && cluster < kEndOfChain; ++guard) {
    if (guard > cluster_count_ + 2) {
      return asbase::DataLoss("directory chain cycle");
    }
    for (uint32_t s = 0; s < sectors_per_cluster_; ++s) {
      AS_RETURN_IF_ERROR(MetaSector(ClusterFirstSector(cluster) + s).status());
    }
    cluster = FatEntry(cluster);
  }
  // Every cached sector is now shared with the image: the next write to
  // any of them copies it first.
  auto pages = base_ == nullptr ? std::make_shared<MetaPages>()
                                : std::make_shared<MetaPages>(*base_);
  for (const auto& [lba, page] : own_) {
    (*pages)[lba] = page.bytes;
  }
  // Emptied with its bucket array: after a Mount that read the whole FAT,
  // the array sits above everything the volume holds later.
  own_.clear();
  own_.rehash(0);
  base_ = std::move(pages);

  MetaImage meta;
  meta.sectors_per_cluster = sectors_per_cluster_;
  meta.bytes_per_cluster = bytes_per_cluster_;
  meta.reserved_sectors = reserved_sectors_;
  meta.fat_sectors = fat_sectors_;
  meta.data_start_sector = data_start_sector_;
  meta.cluster_count = cluster_count_;
  meta.root_cluster = root_cluster_;
  meta.pages = base_;
  meta.next_free_hint = next_free_hint_;
  return meta;
}

std::unique_ptr<FatVolume> FatVolume::MountFromMeta(
    asblk::BlockDevice* device, const MetaImage& meta,
    std::pmr::memory_resource* memory) {
  auto volume = std::unique_ptr<FatVolume>(new (memory)
                                               FatVolume(device, memory));
  volume->sectors_per_cluster_ = meta.sectors_per_cluster;
  volume->bytes_per_cluster_ = meta.bytes_per_cluster;
  volume->reserved_sectors_ = meta.reserved_sectors;
  volume->fat_sectors_ = meta.fat_sectors;
  volume->data_start_sector_ = meta.data_start_sector;
  volume->cluster_count_ = meta.cluster_count;
  volume->root_cluster_ = meta.root_cluster;
  volume->base_ = meta.pages;
  volume->next_free_hint_ = meta.next_free_hint;
  return volume;
}

// ---------------------------------------------------------- metadata cache

const uint8_t* FatVolume::CachedSector(uint64_t lba) const {
  if (auto it = own_.find(lba); it != own_.end()) {
    return it->second.bytes.data();
  }
  if (base_ != nullptr) {
    if (auto it = base_->find(lba); it != base_->end()) {
      return it->second.data();
    }
  }
  return nullptr;
}

asbase::Result<const uint8_t*> FatVolume::MetaSector(uint64_t lba) {
  if (const uint8_t* cached = CachedSector(lba)) {
    return cached;
  }
  auto [it, inserted] = own_.try_emplace(lba);
  const asbase::Status status = device_->Read(lba, it->second.bytes);
  if (!status.ok()) {
    own_.erase(it);
    return status;
  }
  return static_cast<const uint8_t*>(it->second.bytes.data());
}

asbase::Result<uint8_t*> FatVolume::MutableMetaSector(uint64_t lba) {
  AS_ASSIGN_OR_RETURN(const uint8_t* current, MetaSector(lba));
  auto [it, copied] = own_.try_emplace(lba);
  if (copied) {  // `current` is base_'s
    std::memcpy(it->second.bytes.data(), current, kSector);
  }
  it->second.dirty = true;
  return it->second.bytes.data();
}

void FatVolume::ZeroMetaCluster(uint32_t cluster) {
  const uint64_t first = ClusterFirstSector(cluster);
  for (uint32_t s = 0; s < sectors_per_cluster_; ++s) {
    OwnedSector& page = own_[first + s];
    page.bytes.fill(0);
    page.dirty = true;
  }
}

void FatVolume::DropMetaCluster(uint32_t cluster) {
  const uint64_t first = ClusterFirstSector(cluster);
  for (uint32_t s = 0; s < sectors_per_cluster_; ++s) {
    own_.erase(first + s);
  }
}

asbase::Status FatVolume::WriteBackLocked() {
  std::vector<uint64_t> dirty;
  for (const auto& [lba, page] : own_) {
    if (page.dirty) {
      dirty.push_back(lba);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (uint64_t lba : dirty) {
    OwnedSector& page = own_.at(lba);
    AS_RETURN_IF_ERROR(device_->Write(lba, page.bytes));
    page.dirty = false;
  }
  return asbase::OkStatus();
}

// ----------------------------------------------------------------- FAT ops

uint32_t FatVolume::FatEntry(uint32_t cluster) const {
  AS_CHECK(cluster < cluster_count_ + 2) << "FAT index out of range";
  const uint8_t* sector =
      CachedSector(reserved_sectors_ + cluster / kEntriesPerSector);
  AS_CHECK(sector != nullptr) << "FAT sector not cached";
  return GetLe32(sector + (cluster % kEntriesPerSector) * 4) & kFatMask;
}

asbase::Status FatVolume::SetFatEntry(uint32_t cluster, uint32_t value) {
  AS_CHECK(cluster < cluster_count_ + 2) << "FAT index out of range";
  AS_ASSIGN_OR_RETURN(
      uint8_t* sector,
      MutableMetaSector(reserved_sectors_ + cluster / kEntriesPerSector));
  PutLe32(sector + (cluster % kEntriesPerSector) * 4, value & kFatMask);
  return asbase::OkStatus();
}

asbase::Result<uint32_t> FatVolume::AllocateCluster(uint32_t prev_cluster) {
  const uint32_t hint = next_free_hint_ < 2 ? 2 : next_free_hint_;
  for (uint32_t probe = 0; probe < cluster_count_; ++probe) {
    const uint32_t candidate = 2 + (hint - 2 + probe) % cluster_count_;
    if (FatEntry(candidate) == 0) {
      AS_RETURN_IF_ERROR(SetFatEntry(candidate, 0x0FFFFFFF));
      if (prev_cluster != 0) {
        AS_RETURN_IF_ERROR(SetFatEntry(prev_cluster, candidate));
      }
      next_free_hint_ = candidate + 1;
      return candidate;
    }
  }
  return asbase::ResourceExhausted("filesystem full: no free clusters");
}

asbase::Status FatVolume::FreeChain(uint32_t first_cluster, bool directory) {
  uint32_t cluster = first_cluster;
  uint32_t guard = 0;
  while (cluster >= 2 && cluster < kEndOfChain) {
    if (++guard > cluster_count_ + 2) {
      return asbase::DataLoss("FAT chain cycle detected");
    }
    const uint32_t next = FatEntry(cluster);
    AS_RETURN_IF_ERROR(SetFatEntry(cluster, 0));
    if (directory) {
      DropMetaCluster(cluster);
    }
    // Reuse freed clusters first: on a CoW disk their chunks are already
    // private, so a rewritten file costs no new chunk.
    next_free_hint_ = std::min(next_free_hint_, cluster);
    cluster = next;
  }
  return asbase::OkStatus();
}

// ----------------------------------------------------------------- data I/O

uint64_t FatVolume::ClusterFirstSector(uint32_t cluster) const {
  return data_start_sector_ +
         static_cast<uint64_t>(cluster - 2) * sectors_per_cluster_;
}

asbase::Status FatVolume::ReadInCluster(uint32_t cluster, uint32_t offset,
                                        std::span<uint8_t> out) {
  AS_CHECK(offset + out.size() <= bytes_per_cluster_);
  const uint64_t first_sector = ClusterFirstSector(cluster);
  const uint32_t start_sector = offset / kSector;
  if (offset % kSector == 0 && out.size() % kSector == 0) {
    return device_->Read(first_sector + start_sector, out);
  }
  const uint32_t end_sector =
      static_cast<uint32_t>((offset + out.size() + kSector - 1) / kSector);
  std::vector<uint8_t> buffer((end_sector - start_sector) * kSector);
  AS_RETURN_IF_ERROR(device_->Read(first_sector + start_sector, buffer));
  std::memcpy(out.data(), buffer.data() + (offset - start_sector * kSector),
              out.size());
  return asbase::OkStatus();
}

asbase::Status FatVolume::WriteInCluster(uint32_t cluster, uint32_t offset,
                                         std::span<const uint8_t> data) {
  AS_CHECK(offset + data.size() <= bytes_per_cluster_);
  const uint64_t first_sector = ClusterFirstSector(cluster);
  const uint32_t start_sector = offset / kSector;
  if (offset % kSector == 0 && data.size() % kSector == 0) {
    return device_->Write(first_sector + start_sector, data);
  }
  // Read-modify-write for the partial sectors.
  const uint32_t end_sector =
      static_cast<uint32_t>((offset + data.size() + kSector - 1) / kSector);
  std::vector<uint8_t> buffer((end_sector - start_sector) * kSector);
  AS_RETURN_IF_ERROR(device_->Read(first_sector + start_sector, buffer));
  std::memcpy(buffer.data() + (offset - start_sector * kSector), data.data(),
              data.size());
  return device_->Write(first_sector + start_sector, buffer);
}

asbase::Status FatVolume::ZeroCluster(uint32_t cluster) {
  constexpr uint32_t kZeroSectors = sizeof(kZeroBlock) / kSector;
  const uint64_t first_sector = ClusterFirstSector(cluster);
  for (uint32_t s = 0; s < sectors_per_cluster_; s += kZeroSectors) {
    const uint32_t n = std::min(kZeroSectors, sectors_per_cluster_ - s);
    AS_RETURN_IF_ERROR(device_->Write(
        first_sector + s, std::span<const uint8_t>(kZeroBlock, n * kSector)));
  }
  return asbase::OkStatus();
}

asbase::Result<uint32_t> FatVolume::ChainCluster(uint32_t cluster,
                                                 uint64_t hops, Extend extend) {
  AS_CHECK(cluster >= 2);
  uint32_t guard = 0;
  while (hops > 0) {
    if (++guard > cluster_count_ + 2) {
      return asbase::DataLoss("FAT chain cycle detected");
    }
    uint32_t next = FatEntry(cluster);
    if (next >= kEndOfChain) {
      if (extend == Extend::kNo) {
        return asbase::OutOfRange("offset beyond end of chain");
      }
      AS_ASSIGN_OR_RETURN(next, AllocateCluster(cluster));
      if (extend == Extend::kDirectory) {
        ZeroMetaCluster(next);
      }
    }
    cluster = next;
    --hops;
  }
  return cluster;
}

asbase::Result<uint32_t> FatVolume::FileCluster(OpenFile& file,
                                                uint64_t offset, bool extend) {
  const uint64_t index = offset / bytes_per_cluster_;
  const bool from_cursor =
      file.cursor_cluster != 0 && file.cursor_index <= index;
  AS_ASSIGN_OR_RETURN(
      uint32_t cluster,
      ChainCluster(from_cursor ? file.cursor_cluster : file.first_cluster,
                   index - (from_cursor ? file.cursor_index : 0),
                   extend ? Extend::kFile : Extend::kNo));
  file.cursor_cluster = cluster;
  file.cursor_index = index;
  return cluster;
}

// ----------------------------------------------------------------- dir ops

asbase::Result<const uint8_t*> FatVolume::EntryAt(uint32_t dir_cluster,
                                                  uint32_t index) {
  const uint32_t entries_per_cluster = bytes_per_cluster_ / kEntrySize;
  AS_ASSIGN_OR_RETURN(uint32_t cluster,
                      ChainCluster(dir_cluster, index / entries_per_cluster,
                                   Extend::kNo));
  const uint32_t offset = (index % entries_per_cluster) * kEntrySize;
  AS_ASSIGN_OR_RETURN(const uint8_t* sector,
                      MetaSector(ClusterFirstSector(cluster) + offset / kSector));
  return sector + offset % kSector;
}

asbase::Result<uint8_t*> FatVolume::MutableEntryAt(uint32_t dir_cluster,
                                                   uint32_t index) {
  const uint32_t entries_per_cluster = bytes_per_cluster_ / kEntrySize;
  AS_ASSIGN_OR_RETURN(uint32_t cluster,
                      ChainCluster(dir_cluster, index / entries_per_cluster,
                                   Extend::kDirectory));
  const uint32_t offset = (index % entries_per_cluster) * kEntrySize;
  AS_ASSIGN_OR_RETURN(
      uint8_t* sector,
      MutableMetaSector(ClusterFirstSector(cluster) + offset / kSector));
  return sector + offset % kSector;
}

asbase::Result<std::vector<FatVolume::DirEntry>> FatVolume::ParseDir(
    uint32_t dir_cluster) {
  std::vector<DirEntry> entries;
  constexpr uint32_t kEntriesPerDirSector = kSector / kEntrySize;

  // LFN accumulation state.
  std::u16string lfn_chars;
  uint32_t lfn_start = 0;
  uint8_t lfn_checksum = 0;
  bool lfn_active = false;

  uint32_t cluster = dir_cluster;
  uint32_t index = 0;
  uint32_t guard = 0;
  while (cluster >= 2 && cluster < kEndOfChain) {
    if (++guard > cluster_count_ + 2) {
      return asbase::DataLoss("directory chain cycle");
    }
    for (uint32_t s = 0; s < sectors_per_cluster_; ++s) {
      AS_ASSIGN_OR_RETURN(const uint8_t* sector,
                          MetaSector(ClusterFirstSector(cluster) + s));
      for (uint32_t i = 0; i < kEntriesPerDirSector; ++i, ++index) {
        const uint8_t* e = sector + i * kEntrySize;
        if (e[0] == 0x00) {
          return entries;  // end of directory
        }
        if (e[0] == kDeletedMarker) {
          lfn_active = false;
          continue;
        }
        if ((e[11] & 0x3F) == kAttrLfn) {
          const uint8_t ord = e[0];
          if (ord & 0x40) {  // last (highest) LFN entry comes first on disk
            lfn_chars.assign(static_cast<size_t>(ord & 0x3F) * 13,
                             char16_t{0xFFFF});
            lfn_checksum = e[13];
            lfn_start = index;
            lfn_active = true;
          }
          if (lfn_active) {
            const uint32_t seq = (ord & 0x3F);
            if (seq == 0 || seq * 13 > lfn_chars.size() ||
                e[13] != lfn_checksum) {
              lfn_active = false;
              continue;
            }
            for (int k = 0; k < 13; ++k) {
              lfn_chars[(seq - 1) * 13 + static_cast<size_t>(k)] =
                  static_cast<char16_t>(GetLe16(&e[kLfnOffsets[k]]));
            }
          }
          continue;
        }
        if (e[11] & 0x08) {  // volume label
          lfn_active = false;
          continue;
        }
        DirEntry entry;
        entry.attr = e[11];
        entry.first_cluster = (static_cast<uint32_t>(GetLe16(&e[20])) << 16) |
                              GetLe16(&e[26]);
        entry.size = GetLe32(&e[28]);
        entry.location = EntryLocation{dir_cluster, index};
        entry.lfn_start_index = index;
        if (lfn_active && ShortNameChecksum(e) == lfn_checksum) {
          std::string name;
          for (char16_t c : lfn_chars) {
            if (c == 0 || c == char16_t{0xFFFF}) {
              break;
            }
            // UCS-2 -> UTF-8 (ASCII fast path; our names are ASCII).
            if (c < 0x80) {
              name.push_back(static_cast<char>(c));
            } else if (c < 0x800) {
              name.push_back(static_cast<char>(0xC0 | (c >> 6)));
              name.push_back(static_cast<char>(0x80 | (c & 0x3F)));
            } else {
              name.push_back(static_cast<char>(0xE0 | (c >> 12)));
              name.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
              name.push_back(static_cast<char>(0x80 | (c & 0x3F)));
            }
          }
          entry.name = std::move(name);
          entry.lfn_start_index = lfn_start;
        } else {
          entry.name = UnpackShortName(e);
        }
        lfn_active = false;
        entries.push_back(std::move(entry));
      }
    }
    cluster = FatEntry(cluster);
  }
  return entries;
}

asbase::Result<FatVolume::DirEntry> FatVolume::FindInDir(
    uint32_t dir_cluster, const std::string& name) {
  AS_ASSIGN_OR_RETURN(auto entries, ParseDir(dir_cluster));
  for (auto& entry : entries) {
    if (NamesEqual(entry.name, name)) {
      return std::move(entry);
    }
  }
  return asbase::NotFound("'" + name + "' not found in directory");
}

asbase::Result<FatVolume::DirEntry> FatVolume::CreateEntry(
    uint32_t dir_cluster, const std::string& name, uint8_t attr,
    uint32_t first_cluster, uint32_t size) {
  if (name.empty() || name.size() > 255 ||
      name.find('/') != std::string::npos) {
    return asbase::InvalidArgument("bad file name '" + name + "'");
  }

  // Decide on the short name and whether LFN entries are needed.
  uint8_t short_name[11];
  const std::string upper = ToUpperAscii(name);
  bool needs_lfn;
  if (IsValidShortName(upper)) {
    needs_lfn = upper != name;  // preserve the original case via LFN
    size_t dot = upper.rfind('.');
    PackShortName(dot == std::string::npos ? upper : upper.substr(0, dot),
                  dot == std::string::npos ? "" : upper.substr(dot + 1),
                  short_name);
  } else {
    needs_lfn = true;
    // Build a "BASE~N.EXT" short alias that does not collide.
    size_t dot = upper.rfind('.');
    std::string base = dot == std::string::npos ? upper : upper.substr(0, dot);
    std::string ext = dot == std::string::npos ? "" : upper.substr(dot + 1);
    std::string clean_base, clean_ext;
    for (char c : base) {
      if (IsAllowedShortChar(c)) {
        clean_base.push_back(c);
      }
    }
    for (char c : ext) {
      if (IsAllowedShortChar(c)) {
        clean_ext.push_back(c);
      }
    }
    if (clean_base.size() > 6) {
      clean_base.resize(6);
    }
    if (clean_base.empty()) {
      clean_base = "FILE";
    }
    if (clean_ext.size() > 3) {
      clean_ext.resize(3);
    }
    AS_ASSIGN_OR_RETURN(auto existing, ParseDir(dir_cluster));
    std::string alias;
    for (int n = 1; n < 1000000; ++n) {
      alias = clean_base + "~" + std::to_string(n);
      std::string full = clean_ext.empty() ? alias : alias + "." + clean_ext;
      bool taken = false;
      for (const auto& entry : existing) {
        if (NamesEqual(entry.name, full)) {
          taken = true;
          break;
        }
      }
      if (!taken) {
        break;
      }
    }
    PackShortName(alias, clean_ext, short_name);
  }

  const uint32_t lfn_count =
      needs_lfn ? static_cast<uint32_t>((name.size() + 12) / 13) : 0;
  const uint32_t slots_needed = lfn_count + 1;

  // Find a contiguous run of free slots (deleted or virgin entries).
  uint32_t run_start = 0;
  uint32_t run_len = 0;
  for (uint32_t index = 0;; ++index) {
    auto raw = EntryAt(dir_cluster, index);
    if (!raw.ok() && raw.status().code() != asbase::ErrorCode::kOutOfRange) {
      return raw.status();
    }
    // Virgin territory, or past the allocated chain (MutableEntryAt extends
    // it): everything from here on is free.
    if (!raw.ok() || (*raw)[0] == 0x00) {
      if (run_len == 0) {
        run_start = index;
      }
      break;
    }
    if ((*raw)[0] != kDeletedMarker) {
      run_len = 0;
      continue;
    }
    if (run_len == 0) {
      run_start = index;
    }
    if (++run_len == slots_needed) {
      break;
    }
  }

  // Write LFN entries (descending order) then the 8.3 entry.
  const uint8_t checksum = ShortNameChecksum(short_name);
  for (uint32_t i = 0; i < lfn_count; ++i) {
    const uint32_t seq = lfn_count - i;  // on-disk order: highest first
    AS_ASSIGN_OR_RETURN(uint8_t* entry,
                        MutableEntryAt(dir_cluster, run_start + i));
    std::memset(entry, 0, kEntrySize);
    entry[0] = static_cast<uint8_t>(seq | (seq == lfn_count ? 0x40 : 0));
    entry[11] = kAttrLfn;
    entry[13] = checksum;
    for (int k = 0; k < 13; ++k) {
      const size_t pos = (seq - 1) * 13 + static_cast<size_t>(k);
      uint16_t c;
      if (pos < name.size()) {
        c = static_cast<uint8_t>(name[pos]);  // ASCII -> UCS-2
      } else if (pos == name.size()) {
        c = 0x0000;
      } else {
        c = 0xFFFF;
      }
      PutLe16(&entry[kLfnOffsets[k]], c);
    }
  }

  AS_ASSIGN_OR_RETURN(uint8_t* entry,
                      MutableEntryAt(dir_cluster, run_start + lfn_count));
  std::memset(entry, 0, kEntrySize);
  std::memcpy(entry, short_name, 11);
  entry[11] = attr;
  PutLe16(&entry[20], static_cast<uint16_t>(first_cluster >> 16));
  PutLe16(&entry[26], static_cast<uint16_t>(first_cluster & 0xFFFF));
  PutLe32(&entry[28], size);

  DirEntry result;
  result.name = name;
  result.attr = attr;
  result.first_cluster = first_cluster;
  result.size = size;
  result.location = EntryLocation{dir_cluster, run_start + lfn_count};
  result.lfn_start_index = run_start;
  return result;
}

asbase::Status FatVolume::DeleteEntry(const DirEntry& entry) {
  for (uint32_t index = entry.lfn_start_index; index <= entry.location.index;
       ++index) {
    AS_ASSIGN_OR_RETURN(uint8_t* raw,
                        MutableEntryAt(entry.location.dir_cluster, index));
    raw[0] = kDeletedMarker;
  }
  return asbase::OkStatus();
}

asbase::Status FatVolume::UpdateEntry(const EntryLocation& location,
                                      uint32_t first_cluster, uint32_t size) {
  AS_ASSIGN_OR_RETURN(uint8_t* raw,
                      MutableEntryAt(location.dir_cluster, location.index));
  PutLe16(&raw[20], static_cast<uint16_t>(first_cluster >> 16));
  PutLe16(&raw[26], static_cast<uint16_t>(first_cluster & 0xFFFF));
  PutLe32(&raw[28], size);
  return asbase::OkStatus();
}

// ------------------------------------------------------------- path lookup

asbase::Result<FatVolume::ResolvedParent> FatVolume::ResolveParent(
    const std::string& path) {
  AS_ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  if (parts.empty()) {
    return asbase::InvalidArgument("path must name a file or directory");
  }
  uint32_t dir_cluster = root_cluster_;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    AS_ASSIGN_OR_RETURN(DirEntry entry, FindInDir(dir_cluster, parts[i]));
    if (!entry.is_directory()) {
      return asbase::InvalidArgument("'" + parts[i] + "' is not a directory");
    }
    dir_cluster = entry.first_cluster;
  }
  return ResolvedParent{dir_cluster, parts.back()};
}

asbase::Result<FatVolume::DirEntry> FatVolume::ResolvePath(
    const std::string& path) {
  AS_ASSIGN_OR_RETURN(ResolvedParent parent, ResolveParent(path));
  return FindInDir(parent.dir_cluster, parent.leaf);
}

// --------------------------------------------------------------- file API

asbase::Result<int> FatVolume::Open(const std::string& path, OpenFlags flags) {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_ASSIGN_OR_RETURN(ResolvedParent parent, ResolveParent(path));

  auto found = FindInDir(parent.dir_cluster, parent.leaf);
  DirEntry entry;
  if (found.ok()) {
    entry = *found;
    if (entry.is_directory()) {
      return asbase::InvalidArgument(path + " is a directory");
    }
    if (flags.truncate && entry.first_cluster != 0) {
      AS_RETURN_IF_ERROR(FreeChain(entry.first_cluster, /*directory=*/false));
      entry.first_cluster = 0;
      entry.size = 0;
      AS_RETURN_IF_ERROR(UpdateEntry(entry.location, 0, 0));
    }
  } else if (found.status().code() == asbase::ErrorCode::kNotFound &&
             flags.create) {
    AS_ASSIGN_OR_RETURN(
        entry, CreateEntry(parent.dir_cluster, parent.leaf, kAttrArchive,
                           /*first_cluster=*/0, /*size=*/0));
  } else {
    return found.status();
  }

  // The path is built in the volume's memory and moved in, so (when longer
  // than the inline buffer) it lives where the map node does.
  OpenFile file{.path = std::pmr::string(path, open_files_.get_allocator()),
                .first_cluster = entry.first_cluster,
                .offset = flags.append ? entry.size : 0,
                .size = entry.size,
                .location = entry.location,
                .flags = flags};
  const int handle = next_handle_++;
  open_files_.emplace(handle, std::move(file));
  return handle;
}

asbase::Status FatVolume::FlushFile(OpenFile& file) {
  if (file.dirty) {
    AS_RETURN_IF_ERROR(UpdateEntry(file.location, file.first_cluster,
                                   file.size));
    file.dirty = false;
  }
  return asbase::OkStatus();
}

asbase::Status FatVolume::Close(int handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return asbase::InvalidArgument("bad handle");
  }
  asbase::Status status = FlushFile(it->second);
  open_files_.erase(it);
  return status;
}

asbase::Result<size_t> FatVolume::Read(int handle, std::span<uint8_t> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return asbase::InvalidArgument("bad handle");
  }
  OpenFile& file = it->second;
  if (!file.flags.read) {
    return asbase::PermissionDenied("handle not open for reading");
  }
  if (file.offset >= file.size || file.first_cluster == 0) {
    return size_t{0};
  }
  size_t total = std::min<uint64_t>(out.size(), file.size - file.offset);
  size_t done = 0;
  while (done < total) {
    AS_ASSIGN_OR_RETURN(
        uint32_t cluster,
        FileCluster(file, file.offset, /*extend=*/false));
    const uint32_t in_cluster =
        static_cast<uint32_t>(file.offset % bytes_per_cluster_);
    const size_t chunk =
        std::min<size_t>(total - done, bytes_per_cluster_ - in_cluster);
    AS_RETURN_IF_ERROR(
        ReadInCluster(cluster, in_cluster, out.subspan(done, chunk)));
    done += chunk;
    file.offset += chunk;
  }
  FatIoCounters().read_ops.Add(1);
  FatIoCounters().read_bytes.Add(done);
  return done;
}

asbase::Result<size_t> FatVolume::Write(int handle,
                                        std::span<const uint8_t> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return asbase::InvalidArgument("bad handle");
  }
  OpenFile& file = it->second;
  if (!file.flags.write) {
    return asbase::PermissionDenied("handle not open for writing");
  }
  if (file.flags.append) {
    file.offset = file.size;
  }
  if (data.empty()) {
    return size_t{0};
  }
  if (file.first_cluster == 0) {
    AS_ASSIGN_OR_RETURN(file.first_cluster, AllocateCluster(0));
    // Clusters are recycled across files; scrub before exposing.
    AS_RETURN_IF_ERROR(ZeroCluster(file.first_cluster));
    file.dirty = true;
  }
  // Writing past EOF through a sparse seek: FAT has no holes, so extend the
  // chain with zeroed clusters up to and including the write position's.
  // The first one past EOF is the old EOF cluster's successor, or the one
  // at the old size itself when that is cluster-aligned (a non-empty file
  // holds no cluster there yet; an empty one's first is zeroed above).
  if (file.offset > file.size) {
    const uint64_t eof_index =
        (file.size + bytes_per_cluster_ - 1) / bytes_per_cluster_;
    for (uint64_t index = std::max<uint64_t>(eof_index, 1);
         index <= file.offset / bytes_per_cluster_; ++index) {
      AS_ASSIGN_OR_RETURN(
          uint32_t cluster,
          FileCluster(file, index * bytes_per_cluster_, /*extend=*/true));
      AS_RETURN_IF_ERROR(ZeroCluster(cluster));
    }
    // Zero the gap bytes inside the last cluster before the old EOF's
    // cluster boundary (cluster contents beyond size are already zero for
    // freshly allocated clusters; for the EOF cluster, zero explicitly).
    const uint32_t eof_in_cluster =
        static_cast<uint32_t>(file.size % bytes_per_cluster_);
    if (eof_in_cluster != 0) {
      AS_ASSIGN_OR_RETURN(uint32_t cluster,
                          FileCluster(file, file.size, /*extend=*/false));
      std::vector<uint8_t> zeros(bytes_per_cluster_ - eof_in_cluster, 0);
      AS_RETURN_IF_ERROR(WriteInCluster(cluster, eof_in_cluster, zeros));
    }
  }

  size_t done = 0;
  while (done < data.size()) {
    auto cluster = FileCluster(file, file.offset, /*extend=*/true);
    if (!cluster.ok()) {
      break;  // filesystem full; report the partial write
    }
    const uint32_t in_cluster =
        static_cast<uint32_t>(file.offset % bytes_per_cluster_);
    const size_t chunk =
        std::min<size_t>(data.size() - done, bytes_per_cluster_ - in_cluster);
    AS_RETURN_IF_ERROR(
        WriteInCluster(*cluster, in_cluster, data.subspan(done, chunk)));
    done += chunk;
    file.offset += chunk;
    if (file.offset > file.size) {
      file.size = static_cast<uint32_t>(file.offset);
      file.dirty = true;
    }
  }
  if (done > 0) {
    file.dirty = true;
  }
  if (done == 0) {
    return asbase::ResourceExhausted("filesystem full");
  }
  FatIoCounters().write_ops.Add(1);
  FatIoCounters().write_bytes.Add(done);
  return done;
}

asbase::Result<uint64_t> FatVolume::Seek(int handle, int64_t offset,
                                         Whence whence) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return asbase::InvalidArgument("bad handle");
  }
  OpenFile& file = it->second;
  int64_t base = 0;
  switch (whence) {
    case Whence::kSet:
      base = 0;
      break;
    case Whence::kCurrent:
      base = static_cast<int64_t>(file.offset);
      break;
    case Whence::kEnd:
      base = static_cast<int64_t>(file.size);
      break;
  }
  const int64_t target = base + offset;
  if (target < 0) {
    return asbase::OutOfRange("seek before start of file");
  }
  file.offset = static_cast<uint64_t>(target);
  return file.offset;
}

asbase::Result<FileInfo> FatVolume::Stat(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  if (parts.empty()) {
    return FileInfo{"/", 0, true};
  }
  AS_ASSIGN_OR_RETURN(DirEntry entry, ResolvePath(path));
  // An open write handle may hold a newer size than the directory entry.
  uint32_t size = entry.size;
  for (const auto& [handle, file] : open_files_) {
    if (std::string_view(file.path) == path && file.size > size) {
      size = file.size;
    }
  }
  return FileInfo{entry.name, size, entry.is_directory()};
}

asbase::Status FatVolume::Mkdir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_ASSIGN_OR_RETURN(ResolvedParent parent, ResolveParent(path));
  if (FindInDir(parent.dir_cluster, parent.leaf).ok()) {
    return asbase::AlreadyExists(path + " exists");
  }
  AS_ASSIGN_OR_RETURN(uint32_t cluster, AllocateCluster(0));
  ZeroMetaCluster(cluster);
  AS_RETURN_IF_ERROR(CreateEntry(parent.dir_cluster, parent.leaf,
                                 kAttrDirectory, cluster, 0)
                         .status());
  return asbase::OkStatus();
}

asbase::Status FatVolume::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_ASSIGN_OR_RETURN(DirEntry entry, ResolvePath(path));
  for (const auto& [handle, file] : open_files_) {
    if (std::string_view(file.path) == path) {
      return asbase::FailedPrecondition(path + " is open");
    }
  }
  if (entry.is_directory()) {
    AS_ASSIGN_OR_RETURN(auto children, ParseDir(entry.first_cluster));
    for (const auto& child : children) {
      if (child.name != "." && child.name != "..") {
        return asbase::FailedPrecondition(path + " is not empty");
      }
    }
  }
  if (entry.first_cluster != 0) {
    AS_RETURN_IF_ERROR(
        FreeChain(entry.first_cluster, entry.is_directory()));
  }
  return DeleteEntry(entry);
}

asbase::Result<std::vector<FileInfo>> FatVolume::ReadDir(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  AS_ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  uint32_t dir_cluster = root_cluster_;
  if (!parts.empty()) {
    AS_ASSIGN_OR_RETURN(DirEntry entry, ResolvePath(path));
    if (!entry.is_directory()) {
      return asbase::InvalidArgument(path + " is not a directory");
    }
    dir_cluster = entry.first_cluster;
  }
  AS_ASSIGN_OR_RETURN(auto entries, ParseDir(dir_cluster));
  std::vector<FileInfo> out;
  for (const auto& entry : entries) {
    if (entry.name == "." || entry.name == "..") {
      continue;
    }
    out.push_back(FileInfo{entry.name, entry.size, entry.is_directory()});
  }
  return out;
}

asbase::Status FatVolume::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [handle, file] : open_files_) {
    AS_RETURN_IF_ERROR(FlushFile(file));
  }
  return WriteBackLocked();
}

asbase::Result<uint32_t> FatVolume::CountFreeClusters() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t free = 0;
  for (uint32_t c = 2; c < cluster_count_ + 2; ++c) {
    if (FatEntry(c) == 0) {
      ++free;
    }
  }
  return free;
}

size_t FatVolume::PrivateMetaBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return own_.size() * kSector;
}

}  // namespace asfat
