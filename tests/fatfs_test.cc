// Tests for block devices, the RAM filesystem, and the FAT32 volume.
//
// The FAT property test drives an identical random operation sequence
// against FatVolume and RamFilesystem (the reference model); every
// observable result must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/blockdev/block_device.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/fatfs/fat_volume.h"
#include "src/fatfs/ram_filesystem.h"

namespace asfat {
namespace {

using asblk::BlockDevice;
using asblk::MemDisk;

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::string AsString(const std::vector<uint8_t>& v) {
  return std::string(v.begin(), v.end());
}

// ---------------------------------------------------------------- blockdev

TEST(MemDiskTest, RoundTripsBlocks) {
  MemDisk disk(64);
  std::vector<uint8_t> out(512), in(512);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(disk.Write(3, in).ok());
  ASSERT_TRUE(disk.Read(3, out).ok());
  EXPECT_EQ(in, out);
}

TEST(MemDiskTest, MultiBlockIo) {
  MemDisk disk(64);
  std::vector<uint8_t> in(4 * 512, 0x5A);
  ASSERT_TRUE(disk.Write(10, in).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(disk.Read(12, out).ok());
  EXPECT_EQ(out[0], 0x5A);
}

TEST(MemDiskTest, RejectsBadRanges) {
  MemDisk disk(8);
  std::vector<uint8_t> buf(512);
  EXPECT_FALSE(disk.Read(8, buf).ok());                 // off the end
  EXPECT_FALSE(disk.Read(0, std::span<uint8_t>(buf.data(), 100)).ok());
  std::vector<uint8_t> two(1024);
  EXPECT_FALSE(disk.Write(7, two).ok());                // straddles the end
}

TEST(MemDiskTest, CountsStats) {
  MemDisk disk(8);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(disk.Write(0, buf).ok());
  ASSERT_TRUE(disk.Read(0, buf).ok());
  auto stats = disk.stats();
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.bytes_read, 512u);
}

TEST(FileDiskTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/filedisk_test.img";
  {
    auto disk = asblk::FileDisk::Create(path, 16);
    ASSERT_TRUE(disk.ok());
    std::vector<uint8_t> data(512, 0xAB);
    ASSERT_TRUE((*disk)->Write(5, data).ok());
  }
  auto disk = asblk::FileDisk::Create(path, 16);
  ASSERT_TRUE(disk.ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE((*disk)->Read(5, out).ok());
  EXPECT_EQ(out[0], 0xAB);
  ::unlink(path.c_str());
}

TEST(LatencyDiskTest, ChargesTime) {
  auto disk = std::make_unique<asblk::LatencyDisk>(
      std::make_unique<MemDisk>(16), /*per_op_nanos=*/500'000,
      /*nanos_per_kib=*/0);
  std::vector<uint8_t> buf(512);
  int64_t start = asbase::MonoNanos();
  ASSERT_TRUE(disk->Read(0, buf).ok());
  EXPECT_GE(asbase::MonoNanos() - start, 500'000);
}

// ---------------------------------------------------------------- SplitPath

TEST(SplitPathTest, Splits) {
  auto parts = SplitPath("/a/bb/c.txt");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(*parts, (std::vector<std::string>{"a", "bb", "c.txt"}));
  EXPECT_TRUE(SplitPath("/")->empty());
  EXPECT_EQ(SplitPath("/dir/")->size(), 1u);
}

TEST(SplitPathTest, RejectsBadPaths) {
  EXPECT_FALSE(SplitPath("").ok());
  EXPECT_FALSE(SplitPath("relative").ok());
  EXPECT_FALSE(SplitPath("/a//b").ok());
}

// --------------------------------------------------- Filesystem conformance
//
// One parameterized suite run against both implementations.

enum class FsKind { kRam, kFat };

class FilesystemTest : public ::testing::TestWithParam<FsKind> {
 protected:
  void SetUp() override {
    if (GetParam() == FsKind::kRam) {
      fs_ = std::make_unique<RamFilesystem>();
    } else {
      disk_ = std::make_unique<MemDisk>(32 * 1024);  // 16 MiB
      ASSERT_TRUE(FatVolume::Format(disk_.get()).ok());
      auto volume = FatVolume::Mount(disk_.get());
      ASSERT_TRUE(volume.ok());
      fs_ = std::move(*volume);
    }
  }

  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<Filesystem> fs_;
};

TEST_P(FilesystemTest, WriteThenReadBack) {
  ASSERT_TRUE(fs_->WriteFile("/hello.txt", "hello alloystack").ok());
  auto data = fs_->ReadFile("/hello.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(*data), "hello alloystack");
}

TEST_P(FilesystemTest, OpenMissingFileFails) {
  auto handle = fs_->Open("/nope", OpenFlags::ReadOnly());
  EXPECT_EQ(handle.status().code(), asbase::ErrorCode::kNotFound);
}

TEST_P(FilesystemTest, CreateInMissingDirectoryFails) {
  auto handle = fs_->Open("/no/such/dir/file", OpenFlags::WriteCreate());
  EXPECT_FALSE(handle.ok());
}

TEST_P(FilesystemTest, TruncateReplacesContent) {
  ASSERT_TRUE(fs_->WriteFile("/f", "a long original body").ok());
  ASSERT_TRUE(fs_->WriteFile("/f", "short").ok());
  EXPECT_EQ(AsString(*fs_->ReadFile("/f")), "short");
  EXPECT_EQ(fs_->Stat("/f")->size, 5u);
}

TEST_P(FilesystemTest, AppendExtends) {
  ASSERT_TRUE(fs_->WriteFile("/log", "one").ok());
  auto handle = fs_->Open("/log", OpenFlags::Append());
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(fs_->Write(*handle, Bytes(",two")).ok());
  ASSERT_TRUE(fs_->Close(*handle).ok());
  EXPECT_EQ(AsString(*fs_->ReadFile("/log")), "one,two");
}

TEST_P(FilesystemTest, SeekAndPartialReads) {
  ASSERT_TRUE(fs_->WriteFile("/f", "0123456789").ok());
  auto handle = fs_->Open("/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(*fs_->Seek(*handle, 4, Whence::kSet), 4u);
  uint8_t buf[3];
  ASSERT_EQ(*fs_->Read(*handle, buf), 3u);
  EXPECT_EQ(std::memcmp(buf, "456", 3), 0);
  ASSERT_EQ(*fs_->Seek(*handle, -2, Whence::kEnd), 8u);
  ASSERT_EQ(*fs_->Read(*handle, buf), 2u);  // only 2 bytes remain
  EXPECT_EQ(std::memcmp(buf, "89", 2), 0);
  EXPECT_FALSE(fs_->Seek(*handle, -1, Whence::kSet).ok());
  ASSERT_TRUE(fs_->Close(*handle).ok());
}

TEST_P(FilesystemTest, SparseWritePastEofReadsZeros) {
  auto handle = fs_->Open("/sparse", OpenFlags::WriteCreate());
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(fs_->Write(*handle, Bytes("head")).ok());
  ASSERT_TRUE(fs_->Seek(*handle, 10000, Whence::kSet).ok());
  ASSERT_TRUE(fs_->Write(*handle, Bytes("tail")).ok());
  ASSERT_TRUE(fs_->Close(*handle).ok());

  auto data = fs_->ReadFile("/sparse");
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), 10004u);
  EXPECT_EQ(AsString(*data).substr(0, 4), "head");
  EXPECT_EQ(AsString(*data).substr(10000, 4), "tail");
  for (size_t i = 4; i < 10000; ++i) {
    ASSERT_EQ((*data)[i], 0u) << "byte " << i << " must be zero";
  }
}

TEST_P(FilesystemTest, DirectoriesNestAndList) {
  ASSERT_TRUE(fs_->Mkdir("/data").ok());
  ASSERT_TRUE(fs_->Mkdir("/data/inputs").ok());
  ASSERT_TRUE(fs_->WriteFile("/data/inputs/a.bin", "aaa").ok());
  ASSERT_TRUE(fs_->WriteFile("/data/inputs/b.bin", "bbbb").ok());

  auto listing = fs_->ReadDir("/data/inputs");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 2u);
  std::vector<std::string> names;
  for (const auto& info : *listing) {
    names.push_back(info.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a.bin", "b.bin"}));

  auto stat = fs_->Stat("/data/inputs/b.bin");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 4u);
  EXPECT_FALSE(stat->is_directory);
  EXPECT_TRUE(fs_->Stat("/data")->is_directory);
}

TEST_P(FilesystemTest, MkdirDuplicateFails) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Mkdir("/d").code(), asbase::ErrorCode::kAlreadyExists);
}

TEST_P(FilesystemTest, RemoveFileAndEmptyDir) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->WriteFile("/d/f", "x").ok());
  EXPECT_EQ(fs_->Remove("/d").code(), asbase::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs_->Remove("/d/f").ok());
  EXPECT_FALSE(fs_->Stat("/d/f").ok());
  ASSERT_TRUE(fs_->Remove("/d").ok());
  EXPECT_FALSE(fs_->Stat("/d").ok());
}

TEST_P(FilesystemTest, RemoveOpenFileFails) {
  ASSERT_TRUE(fs_->WriteFile("/f", "x").ok());
  auto handle = fs_->Open("/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(fs_->Remove("/f").code(),
            asbase::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs_->Close(*handle).ok());
  EXPECT_TRUE(fs_->Remove("/f").ok());
}

TEST_P(FilesystemTest, ReadHandleCannotWrite) {
  ASSERT_TRUE(fs_->WriteFile("/f", "x").ok());
  auto handle = fs_->Open("/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(fs_->Write(*handle, Bytes("y")).status().code(),
            asbase::ErrorCode::kPermissionDenied);
  fs_->Close(*handle);
}

TEST_P(FilesystemTest, LongNamesSurvive) {
  const std::string name = "a_quite_long_file_name_for_lfn_entries.metadata";
  ASSERT_TRUE(fs_->WriteFile("/" + name, "payload").ok());
  auto listing = fs_->ReadDir("/");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, name);
  EXPECT_EQ(AsString(*fs_->ReadFile("/" + name)), "payload");
}

TEST_P(FilesystemTest, ManyFilesInOneDirectory) {
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(fs_->WriteFile("/file_number_" + std::to_string(i) + ".dat",
                               std::string(static_cast<size_t>(i), 'x'))
                    .ok())
        << i;
  }
  auto listing = fs_->ReadDir("/");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 120u);
  EXPECT_EQ(fs_->Stat("/file_number_77.dat")->size, 77u);
}

TEST_P(FilesystemTest, MultiClusterFileRoundTrips) {
  asbase::Rng rng(42);
  std::vector<uint8_t> data(300 * 1024);  // spans many 4K clusters
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(fs_->WriteFile("/big.bin", data).ok());
  auto back = fs_->ReadFile("/big.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

// Reads whose offset and size are whole sectors skip the bounce buffer on
// FAT; they must land on the same bytes as any other read.
TEST_P(FilesystemTest, SectorAlignedReadsReturnTheirOwnBytes) {
  asbase::Rng rng(7);
  std::vector<uint8_t> data(3 * 4096 + 700);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(fs_->WriteFile("/sectors.bin", data).ok());
  auto handle = fs_->Open("/sectors.bin", OpenFlags::ReadOnly());
  ASSERT_TRUE(handle.ok());
  for (size_t offset : {0u, 512u, 1024u, 3584u, 4096u, 7680u, 8192u}) {
    for (size_t size : {512u, 1024u, 4096u, 1000u}) {
      ASSERT_TRUE(
          fs_->Seek(*handle, static_cast<int64_t>(offset), Whence::kSet).ok());
      std::vector<uint8_t> out(size);
      auto n = fs_->Read(*handle, out);
      ASSERT_TRUE(n.ok());
      const size_t expect = std::min(size, data.size() - offset);
      ASSERT_EQ(*n, expect);
      EXPECT_TRUE(std::equal(out.begin(), out.begin() + expect,
                             data.begin() + offset))
          << size << " bytes at " << offset;
    }
  }
  ASSERT_TRUE(fs_->Close(*handle).ok());
}

INSTANTIATE_TEST_SUITE_P(Impls, FilesystemTest,
                         ::testing::Values(FsKind::kRam, FsKind::kFat),
                         [](const auto& info) {
                           return info.param == FsKind::kRam ? "ram" : "fat32";
                         });

// ---------------------------------------------------------------- FAT-only

TEST(FatVolumeTest, MountRejectsGarbage) {
  MemDisk disk(1024);
  EXPECT_FALSE(FatVolume::Mount(&disk).ok());
}

TEST(FatVolumeTest, FormatRejectsTinyDevice) {
  MemDisk disk(16);
  EXPECT_FALSE(FatVolume::Format(&disk).ok());
}

TEST(FatVolumeTest, DataRegionStartsOnAClusterBoundary) {
  // On 10000 blocks the FAT alone ends at sector 42, mid-cluster; without
  // padding every cluster there would straddle two 4 KiB disk pages.
  for (uint64_t blocks : {1024u, 8u * 1024, 10000u, 16u * 1024, 12345u}) {
    MemDisk disk(blocks);
    ASSERT_TRUE(FatVolume::Format(&disk).ok()) << blocks;
    auto volume = FatVolume::Mount(&disk);
    ASSERT_TRUE(volume.ok()) << blocks;
    const FatVolume::MetaImage meta = (*volume)->SnapshotMeta();
    EXPECT_EQ(meta.data_start_sector % meta.sectors_per_cluster, 0u)
        << blocks << " blocks: data region at sector "
        << meta.data_start_sector;
    EXPECT_LE(meta.data_start_sector +
                  uint64_t{meta.cluster_count} * meta.sectors_per_cluster,
              blocks);
  }
}

TEST(FatVolumeTest, PersistsAcrossRemount) {
  MemDisk disk(8 * 1024);
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  {
    auto volume = FatVolume::Mount(&disk);
    ASSERT_TRUE(volume.ok());
    ASSERT_TRUE((*volume)->Mkdir("/persist").ok());
    ASSERT_TRUE((*volume)->WriteFile("/persist/data", "survives").ok());
    ASSERT_TRUE((*volume)->Sync().ok());
  }
  auto volume = FatVolume::Mount(&disk);
  ASSERT_TRUE(volume.ok());
  EXPECT_EQ(AsString(*(*volume)->ReadFile("/persist/data")), "survives");
}

TEST(FatVolumeTest, FreeClustersRecycleAfterRemove) {
  MemDisk disk(8 * 1024);
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  auto volume = FatVolume::Mount(&disk);
  ASSERT_TRUE(volume.ok());
  uint32_t before = *(*volume)->CountFreeClusters();
  ASSERT_TRUE(
      (*volume)->WriteFile("/f", std::string(64 * 1024, 'z')).ok());
  uint32_t during = *(*volume)->CountFreeClusters();
  EXPECT_LT(during, before);
  ASSERT_TRUE((*volume)->Remove("/f").ok());
  EXPECT_EQ(*(*volume)->CountFreeClusters(), before);
}

TEST(FatVolumeTest, FillToCapacityFailsCleanly) {
  MemDisk disk(2 * 1024);  // 1 MiB
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  auto volume = FatVolume::Mount(&disk);
  ASSERT_TRUE(volume.ok());
  asbase::Status status = asbase::OkStatus();
  int i = 0;
  while (status.ok() && i < 10000) {
    status = (*volume)->WriteFile("/chunk" + std::to_string(i++),
                                  std::string(16 * 1024, 'f'));
  }
  EXPECT_EQ(status.code(), asbase::ErrorCode::kResourceExhausted);
  // Volume still works after ENOSPC.
  ASSERT_TRUE((*volume)->Remove("/chunk0").ok());
  EXPECT_TRUE((*volume)->WriteFile("/retry", "ok").ok());
}

TEST(FatVolumeTest, StaleDataDoesNotLeakThroughRecycledClusters) {
  MemDisk disk(4 * 1024);
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  auto volume = FatVolume::Mount(&disk);
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE((*volume)->WriteFile("/secret", std::string(8192, 'S')).ok());
  ASSERT_TRUE((*volume)->Remove("/secret").ok());
  // New file reuses those clusters; the unwritten gap must read as zeros.
  auto handle = (*volume)->Open("/fresh", OpenFlags::WriteCreate());
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE((*volume)->Seek(*handle, 100, Whence::kSet).ok());
  ASSERT_TRUE((*volume)->Write(*handle, Bytes("x")).ok());
  ASSERT_TRUE((*volume)->Close(*handle).ok());
  auto data = (*volume)->ReadFile("/fresh");
  ASSERT_TRUE(data.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ((*data)[i], 0u) << "stale byte leaked at " << i;
  }
}

// A pooled WFD keeps its disk across invocations, so a workflow that
// rewrites one file must keep reusing the clusters it just freed: on a CoW
// clone those chunks are already private, and a fresh cluster per rewrite
// would copy a new chunk each time until the clone holds the whole disk.
TEST(FatVolumeTest, RewritingAFileOnACloneHoldsConstantMemory) {
  MemDisk tmpl(16 * 1024);
  ASSERT_TRUE(FatVolume::Format(&tmpl).ok());
  auto booted = FatVolume::Mount(&tmpl);
  ASSERT_TRUE(booted.ok());
  const FatVolume::MetaImage meta = (*booted)->SnapshotMeta();
  MemDisk disk(tmpl.SnapshotImage());
  std::unique_ptr<FatVolume> volume = FatVolume::MountFromMeta(&disk, meta);
  const uint32_t free_at_start = *volume->CountFreeClusters();

  std::string content(4096, 'r');
  ASSERT_TRUE(volume->WriteFile("/rewrite.bin", content).ok());
  const size_t disk_bytes = disk.ResidentBytes();
  const size_t fat_bytes = volume->PrivateFatBytes();
  const uint32_t free_with_file = *volume->CountFreeClusters();
  EXPECT_EQ(free_with_file, free_at_start - 1);
  for (int i = 1; i < 10'000; ++i) {
    content[static_cast<size_t>(i) % content.size()] = static_cast<char>(i);
    ASSERT_TRUE(volume->WriteFile("/rewrite.bin", content).ok()) << i;
    ASSERT_EQ(disk.ResidentBytes(), disk_bytes) << "rewrite " << i;
    ASSERT_EQ(volume->PrivateFatBytes(), fat_bytes) << "rewrite " << i;
  }
  EXPECT_EQ(*volume->CountFreeClusters(), free_with_file);
  EXPECT_EQ(AsString(*volume->ReadFile("/rewrite.bin")), content);
  ASSERT_TRUE(volume->Remove("/rewrite.bin").ok());
  EXPECT_EQ(*volume->CountFreeClusters(), free_at_start);
}

// Freed clusters are reused first, so a new file lands on exactly the
// clusters a deleted file left behind. Every byte the new file reads must
// be one it wrote or a zero, whichever way it grew into those clusters.
TEST(FatVolumeTest, RecycledClustersNeverExposeADeletedFile) {
  MemDisk disk(4 * 1024);
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  auto mounted = FatVolume::Mount(&disk);
  ASSERT_TRUE(mounted.ok());
  FatVolume& volume = **mounted;
  const uint32_t cluster = volume.bytes_per_cluster();

  // A: 6 clusters and a bit of 0xA5, written in unaligned pieces.
  auto a = volume.Open("/a", OpenFlags::WriteCreate());
  ASSERT_TRUE(a.ok());
  const std::vector<uint8_t> old_bytes(777, 0xA5);
  for (int i = 0; i < 33; ++i) {
    ASSERT_TRUE(volume.Write(*a, old_bytes).ok());
  }
  ASSERT_TRUE(volume.Close(*a).ok());
  const uint32_t free_before = *volume.CountFreeClusters();
  ASSERT_TRUE(volume.Remove("/a").ok());
  ASSERT_GE(*volume.CountFreeClusters(), free_before + 6);

  // B's expected contents: what it wrote, zero everywhere else.
  std::vector<uint8_t> model;
  auto b = volume.Open("/b", OpenFlags::ReadWrite());
  ASSERT_FALSE(b.ok()) << "/b must not exist yet";
  b = volume.Open("/b", {.read = true, .write = true, .create = true});
  ASSERT_TRUE(b.ok());
  auto write_at = [&](uint64_t offset, size_t size, uint8_t value) {
    ASSERT_TRUE(volume.Seek(*b, static_cast<int64_t>(offset), Whence::kSet)
                    .ok());
    const std::vector<uint8_t> bytes(size, value);
    ASSERT_EQ(*volume.Write(*b, bytes), size);
    if (model.size() < offset + size) {
      model.resize(offset + size, 0);
    }
    std::fill_n(model.begin() + static_cast<int64_t>(offset), size, value);
  };
  // An unaligned tail in the second cluster.
  write_at(0, cluster + 1000, 1);
  // An append from that tail.
  write_at(model.size(), 300, 2);
  // A seek past EOF that stays inside the last cluster.
  write_at(model.size() + 500, 10, 3);
  // Grow to exactly a cluster boundary, then seek past EOF into the next,
  // not yet allocated, cluster.
  write_at(model.size(), 2 * cluster - model.size(), 4);
  write_at(model.size() + 100, 7, 5);
  // And past EOF across a whole cluster.
  write_at(model.size() + cluster + 123, 9, 6);
  ASSERT_TRUE(volume.Close(*b).ok());

  auto read = volume.ReadFile("/b");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ((*read)[i], model[i]) << "byte " << i << " of /b";
  }
}

// ------------------------------------------------------------ property test

class FatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FatPropertyTest, MatchesReferenceModel) {
  MemDisk disk(64 * 1024);  // 32 MiB
  ASSERT_TRUE(FatVolume::Format(&disk).ok());
  auto mounted = FatVolume::Mount(&disk);
  ASSERT_TRUE(mounted.ok());
  FatVolume& fat = **mounted;
  RamFilesystem ram;

  asbase::Rng rng(GetParam());
  std::vector<std::string> known_files;
  std::vector<std::string> known_dirs = {""};  // "" == root

  auto random_dir = [&] { return known_dirs[rng.Below(known_dirs.size())]; };

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.Below(100));
    if (op < 35) {
      // Write (create or truncate) a file with random content.
      std::string path = random_dir() + "/" + rng.Word(1, 20) +
                         (rng.OneIn(2) ? "." + rng.Word(1, 4) : "");
      std::string content;
      const size_t size = rng.Below(30000);
      content.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        content.push_back(static_cast<char>('a' + rng.Below(26)));
      }
      auto fat_status = fat.WriteFile(path, content);
      auto ram_status = ram.WriteFile(path, content);
      ASSERT_EQ(fat_status.ok(), ram_status.ok()) << path;
      if (fat_status.ok() &&
          std::find(known_files.begin(), known_files.end(), path) ==
              known_files.end()) {
        known_files.push_back(path);
      }
    } else if (op < 50 && !known_files.empty()) {
      // Append to an existing file.
      const std::string& path = known_files[rng.Below(known_files.size())];
      std::string chunk = rng.Word(1, 5000);
      auto fh = fat.Open(path, OpenFlags::Append());
      auto rh = ram.Open(path, OpenFlags::Append());
      ASSERT_EQ(fh.ok(), rh.ok()) << path;
      if (fh.ok()) {
        ASSERT_TRUE(fat.Write(*fh, Bytes(chunk)).ok());
        ASSERT_TRUE(ram.Write(*rh, Bytes(chunk)).ok());
        ASSERT_TRUE(fat.Close(*fh).ok());
        ASSERT_TRUE(ram.Close(*rh).ok());
      }
    } else if (op < 70 && !known_files.empty()) {
      // Read back a file and compare.
      const std::string& path = known_files[rng.Below(known_files.size())];
      auto fat_data = fat.ReadFile(path);
      auto ram_data = ram.ReadFile(path);
      ASSERT_EQ(fat_data.ok(), ram_data.ok()) << path;
      if (fat_data.ok()) {
        ASSERT_EQ(*fat_data, *ram_data) << path;
      }
    } else if (op < 80) {
      // Make a directory.
      std::string path = random_dir() + "/" + rng.Word(1, 10);
      auto fat_status = fat.Mkdir(path);
      auto ram_status = ram.Mkdir(path);
      ASSERT_EQ(fat_status.ok(), ram_status.ok()) << path;
      if (fat_status.ok()) {
        known_dirs.push_back(path);
      }
    } else if (op < 90 && !known_files.empty()) {
      // Remove a file.
      const size_t index = rng.Below(known_files.size());
      const std::string path = known_files[index];
      auto fat_status = fat.Remove(path);
      auto ram_status = ram.Remove(path);
      ASSERT_EQ(fat_status.ok(), ram_status.ok()) << path;
      known_files.erase(known_files.begin() + static_cast<long>(index));
    } else {
      // Compare a directory listing.
      const std::string dir = random_dir();
      auto fat_list = fat.ReadDir(dir.empty() ? "/" : dir);
      auto ram_list = ram.ReadDir(dir.empty() ? "/" : dir);
      ASSERT_EQ(fat_list.ok(), ram_list.ok()) << dir;
      if (fat_list.ok()) {
        auto key = [](const FileInfo& info) {
          return info.name + "|" + std::to_string(info.size) + "|" +
                 (info.is_directory ? "d" : "f");
        };
        std::vector<std::string> a, b;
        for (const auto& info : *fat_list) {
          a.push_back(key(info));
        }
        for (const auto& info : *ram_list) {
          b.push_back(key(info));
        }
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_EQ(a, b) << dir;
      }
    }
  }

  // Final sweep: every surviving file matches the model byte for byte.
  for (const auto& path : known_files) {
    auto fat_data = fat.ReadFile(path);
    auto ram_data = ram.ReadFile(path);
    ASSERT_TRUE(fat_data.ok()) << path;
    ASSERT_TRUE(ram_data.ok()) << path;
    ASSERT_EQ(*fat_data, *ram_data) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FatPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace asfat
