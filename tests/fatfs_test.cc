// Tests for block devices, the RAM filesystem, and the FAT32 volume.
//
// The FAT property test drives an identical random operation sequence
// against FatVolume and RamFilesystem (the reference model); every
// observable result must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>

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

// A disk of `blocks` whose every page holds its own index, frozen into an
// image: the template every clone below reads.
std::shared_ptr<const asblk::MemDiskImage> PatternImage(uint64_t blocks) {
  MemDisk disk(blocks);
  for (uint64_t lba = 0; lba < blocks; lba += 8) {
    std::vector<uint8_t> page(MemDisk::kChunkBytes,
                              static_cast<uint8_t>(lba / 8 + 1));
    EXPECT_TRUE(disk.Write(lba, page).ok());
  }
  return disk.SnapshotImage();
}

TEST(MemDiskTest, CloneReadsItsImagesBytes) {
  auto image = PatternImage(256);
  EXPECT_EQ(image->blocks(), 256u);
  EXPECT_EQ(image->bytes(), 256u * 512);
  MemDisk clone(image);
  EXPECT_EQ(clone.block_count(), 256u);
  std::vector<uint8_t> all(256 * 512);
  ASSERT_TRUE(clone.Read(0, all).ok());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<uint8_t>(i / MemDisk::kChunkBytes + 1)) << i;
  }
  EXPECT_EQ(clone.ResidentBytes(), 0u) << "reads copy nothing";
}

TEST(MemDiskTest, FirstWriteCopiesExactlyOneChunk) {
  MemDisk clone(PatternImage(256));
  const std::vector<uint8_t> block(512, 0xEE);
  ASSERT_TRUE(clone.Write(8 * 5 + 3, block).ok());
  EXPECT_EQ(clone.ResidentBytes(), MemDisk::kChunkBytes);
  // The chunk's other blocks came from the image; its neighbours still do.
  std::vector<uint8_t> pages(3 * MemDisk::kChunkBytes);
  ASSERT_TRUE(clone.Read(8 * 4, pages).ok());
  for (size_t i = 0; i < pages.size(); ++i) {
    const size_t page = i / MemDisk::kChunkBytes;
    const size_t in_page = i % MemDisk::kChunkBytes;
    const uint8_t want = page == 1 && in_page / 512 == 3
                             ? 0xEE
                             : static_cast<uint8_t>(4 + page + 1);
    ASSERT_EQ(pages[i], want) << i;
  }
  // A second write into the same chunk copies nothing more.
  ASSERT_TRUE(clone.Write(8 * 5, block).ok());
  EXPECT_EQ(clone.ResidentBytes(), MemDisk::kChunkBytes);
}

TEST(MemDiskTest, UntouchedChunksReadZerosAndCostNothing) {
  MemDisk fresh(16 * 1024);
  MemDisk clone(MemDisk(16 * 1024).SnapshotImage());
  for (MemDisk* disk : {&fresh, &clone}) {
    std::vector<uint8_t> out(16 * 512, 0xFF);
    for (uint64_t lba = 0; lba < 16 * 1024; lba += 16 * 64) {
      ASSERT_TRUE(disk->Read(lba, out).ok());
      ASSERT_EQ(out, std::vector<uint8_t>(out.size(), 0)) << lba;
    }
    EXPECT_EQ(disk->ResidentBytes(), 0u);
  }
}

TEST(MemDiskTest, ImageStaysIdenticalWhileItsSourceKeepsWriting) {
  MemDisk source(256);
  for (uint64_t lba = 0; lba < 256; lba += 8) {
    ASSERT_TRUE(
        source.Write(lba, std::vector<uint8_t>(MemDisk::kChunkBytes, 0x11))
            .ok());
  }
  auto image = source.SnapshotImage();
  EXPECT_EQ(source.ResidentBytes(), 0u) << "the image took the pages";
  std::vector<uint8_t> frozen(256 * 512);
  ASSERT_TRUE(MemDisk(image).Read(0, frozen).ok());
  // Every chunk of the source is rewritten, half of them only in part.
  for (uint64_t lba = 0; lba < 256; lba += 4) {
    ASSERT_TRUE(source.Write(lba, std::vector<uint8_t>(512, 0x22)).ok());
  }
  EXPECT_EQ(source.ResidentBytes(), 256u * 512);
  std::vector<uint8_t> after(256 * 512);
  ASSERT_TRUE(MemDisk(image).Read(0, after).ok());
  EXPECT_EQ(after, frozen);
  for (uint64_t chunk = 0; chunk < 32; ++chunk) {
    ASSERT_NE(image->FindChunk(chunk), nullptr);
    EXPECT_EQ(image->FindChunk(chunk)[MemDisk::kChunkBytes - 1], 0x11);
  }
  ASSERT_TRUE(source.Read(4, std::span<uint8_t>(after.data(), 512)).ok());
  EXPECT_EQ(after[0], 0x22);
}

TEST(MemDiskTest, ImageOfACloneLayersOverItsBase) {
  auto base = PatternImage(256);
  MemDisk clone(base);
  ASSERT_TRUE(clone.Write(8 * 2, std::vector<uint8_t>(512, 0xAB)).ok());
  auto layered = clone.SnapshotImage();
  EXPECT_EQ(layered->bytes(), 256u * 512) << "distinct chunks, not layers";
  EXPECT_EQ(clone.SnapshotImage(), layered) << "nothing written since";
  MemDisk grandchild(layered);
  std::vector<uint8_t> page(MemDisk::kChunkBytes);
  ASSERT_TRUE(grandchild.Read(8 * 2, page).ok());
  EXPECT_EQ(page[0], 0xAB);
  EXPECT_EQ(page[512], 3);
  ASSERT_TRUE(grandchild.Read(8 * 3, page).ok());
  EXPECT_EQ(page[0], 4);
  ASSERT_TRUE(MemDisk(base).Read(8 * 2, page).ok());
  EXPECT_EQ(page[0], 3);
}

// VmRSS of this process in KiB, or -1 if /proc is unreadable.
int64_t VmRssKib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      int64_t kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

// A destroyed disk hands its pages back: 1,000 disks that each hold a
// different page would leave ~4 MiB behind if one kept its mapping.
TEST(MemDiskTest, DestroyedDisksReturnTheirPages) {
  const std::vector<uint8_t> block(512, 0x77);
  {
    MemDisk warm(16 * 1024);  // pages in whatever the first disk pays
    ASSERT_TRUE(warm.Write(0, block).ok());
  }
  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  for (uint64_t i = 0; i < 1000; ++i) {
    MemDisk disk(16 * 1024);
    ASSERT_TRUE(disk.Write(i * 8 % (16 * 1024), block).ok());
    ASSERT_EQ(disk.ResidentBytes(), MemDisk::kChunkBytes);
  }
  const int64_t growth_kib = VmRssKib() - before;
  EXPECT_LT(growth_kib, 1024) << "1,000 destroyed disks left " << growth_kib
                              << " KiB resident";
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
    auto snapshot = (*volume)->SnapshotMeta();
    ASSERT_TRUE(snapshot.ok()) << blocks;
    const FatVolume::MetaImage& meta = *snapshot;
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
  auto meta = (*booted)->SnapshotMeta();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  MemDisk disk(tmpl.SnapshotImage());
  std::unique_ptr<FatVolume> volume = FatVolume::MountFromMeta(&disk, *meta);
  const uint32_t free_at_start = *volume->CountFreeClusters();

  std::string content(4096, 'r');
  ASSERT_TRUE(volume->WriteFile("/rewrite.bin", content).ok());
  const size_t disk_bytes = disk.ResidentBytes();
  const size_t meta_bytes = volume->PrivateMetaBytes();
  const uint32_t free_with_file = *volume->CountFreeClusters();
  EXPECT_EQ(free_with_file, free_at_start - 1);
  for (int i = 1; i < 10'000; ++i) {
    content[static_cast<size_t>(i) % content.size()] = static_cast<char>(i);
    ASSERT_TRUE(volume->WriteFile("/rewrite.bin", content).ok()) << i;
    ASSERT_EQ(disk.ResidentBytes(), disk_bytes) << "rewrite " << i;
    ASSERT_EQ(volume->PrivateMetaBytes(), meta_bytes) << "rewrite " << i;
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

// ---------------------------------------------------------- write-back
//
// FAT and directory sectors stay in memory until Sync(), SnapshotMeta() or
// unmount. Whatever reaches the device at those points must be a complete,
// consistent volume; nothing else may reach it.

// Every directory and file under `dir` of `fat` matches `ram`: the same
// listings, sizes and bytes.
void ExpectSameTree(Filesystem& fat, Filesystem& ram, const std::string& dir) {
  auto fat_list = fat.ReadDir(dir.empty() ? "/" : dir);
  auto ram_list = ram.ReadDir(dir.empty() ? "/" : dir);
  ASSERT_TRUE(fat_list.ok()) << dir << ": " << fat_list.status().ToString();
  ASSERT_TRUE(ram_list.ok()) << dir;
  auto by_name = [](const FileInfo& a, const FileInfo& b) {
    return a.name < b.name;
  };
  std::sort(fat_list->begin(), fat_list->end(), by_name);
  std::sort(ram_list->begin(), ram_list->end(), by_name);
  ASSERT_EQ(fat_list->size(), ram_list->size()) << dir;
  for (size_t i = 0; i < fat_list->size(); ++i) {
    const FileInfo& got = (*fat_list)[i];
    const FileInfo& want = (*ram_list)[i];
    const std::string path = dir + "/" + want.name;
    ASSERT_EQ(got.name, want.name) << dir;
    ASSERT_EQ(got.is_directory, want.is_directory) << path;
    if (want.is_directory) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameTree(fat, ram, path));
      continue;
    }
    ASSERT_EQ(got.size, want.size) << path;
    auto fat_data = fat.ReadFile(path);
    ASSERT_TRUE(fat_data.ok()) << path << ": " << fat_data.status().ToString();
    ASSERT_TRUE(*fat_data == *ram.ReadFile(path)) << path;
  }
}

// A FAT volume on a fresh MemDisk: mounted from the disk, or a CoW clone of
// a formatted template mounted from its metadata image.
enum class VolumeKind { kMounted, kClone };

struct WriteBackVolume {
  std::unique_ptr<MemDisk> template_disk;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<FatVolume> volume;
};

void MakeWriteBackVolume(VolumeKind kind, uint64_t blocks,
                         WriteBackVolume* out) {
  if (kind == VolumeKind::kMounted) {
    out->disk = std::make_unique<MemDisk>(blocks);
    ASSERT_TRUE(FatVolume::Format(out->disk.get()).ok());
    auto volume = FatVolume::Mount(out->disk.get());
    ASSERT_TRUE(volume.ok()) << volume.status().ToString();
    out->volume = std::move(*volume);
    return;
  }
  out->template_disk = std::make_unique<MemDisk>(blocks);
  ASSERT_TRUE(FatVolume::Format(out->template_disk.get()).ok());
  auto booted = FatVolume::Mount(out->template_disk.get());
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  auto meta = (*booted)->SnapshotMeta();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  out->disk = std::make_unique<MemDisk>(out->template_disk->SnapshotImage());
  out->volume = FatVolume::MountFromMeta(out->disk.get(), *meta);
}

std::string VolumeKindName(const ::testing::TestParamInfo<VolumeKind>& info) {
  return info.param == VolumeKind::kMounted ? "mounted" : "clone";
}

class FatWriteBackTest : public ::testing::TestWithParam<VolumeKind> {};

// A freed directory cluster is the first one a new file gets. If the
// directory's dirty sectors outlived its chain, Sync would write them over
// the file.
TEST_P(FatWriteBackTest, FreedDirectoryClusterReusedForFileDataSurvivesSync) {
  WriteBackVolume fs;
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(GetParam(), 4 * 1024, &fs));
  FatVolume& volume = *fs.volume;
  ASSERT_TRUE(volume.Mkdir("/sub").ok());
  ASSERT_TRUE(volume.WriteFile("/sub/a_long_file_name.txt", "entry").ok());
  ASSERT_TRUE(volume.Remove("/sub/a_long_file_name.txt").ok());
  ASSERT_TRUE(volume.Remove("/sub").ok());
  const uint32_t free_before = *volume.CountFreeClusters();
  const std::string data(2 * volume.bytes_per_cluster(), '\xD7');
  ASSERT_TRUE(volume.WriteFile("/data.bin", data).ok());
  ASSERT_EQ(*volume.CountFreeClusters(), free_before - 2);
  ASSERT_TRUE(volume.Sync().ok());

  auto mounted = FatVolume::Mount(fs.disk.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(AsString(*(*mounted)->ReadFile("/data.bin")), data);
  EXPECT_FALSE((*mounted)->Stat("/sub").ok());
  EXPECT_EQ(AsString(*volume.ReadFile("/data.bin")), data);
}

// And the other way round: a file's cluster that becomes a directory reads
// as an empty directory after a remount, not as the file's bytes.
TEST_P(FatWriteBackTest, FileClusterReusedForADirectoryRemountsEmpty) {
  WriteBackVolume fs;
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(GetParam(), 4 * 1024, &fs));
  ASSERT_TRUE(
      fs.volume->WriteFile("/junk", std::string(4096, '\x41')).ok());
  ASSERT_TRUE(fs.volume->Sync().ok());
  ASSERT_TRUE(fs.volume->Remove("/junk").ok());
  ASSERT_TRUE(fs.volume->Mkdir("/dir").ok());
  fs.volume.reset();  // unmount

  auto mounted = FatVolume::Mount(fs.disk.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  auto listing = (*mounted)->ReadDir("/dir");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing->empty());
  EXPECT_FALSE((*mounted)->Stat("/junk").ok());
}

// A directory that outgrows its cluster takes a recycled one; the new
// cluster's unused entries must read as free, not as the old file's bytes.
TEST_P(FatWriteBackTest, DirectoryGrowsOntoARecycledCluster) {
  WriteBackVolume fs;
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(GetParam(), 4 * 1024, &fs));
  FatVolume& volume = *fs.volume;
  ASSERT_TRUE(volume.WriteFile("/junk", std::string(4 * 4096, 'A')).ok());
  ASSERT_TRUE(volume.Sync().ok());
  ASSERT_TRUE(volume.Remove("/junk").ok());
  ASSERT_TRUE(volume.Mkdir("/d").ok());
  // 8.3 names take one 32-byte entry each: 130 overflow a 4 KiB cluster.
  constexpr int kFiles = 130;
  for (int i = 0; i < kFiles; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "/d/F%03d", i);
    auto handle = volume.Open(name, OpenFlags::WriteCreate());
    ASSERT_TRUE(handle.ok()) << name;
    ASSERT_TRUE(volume.Close(*handle).ok());
  }
  EXPECT_EQ(volume.ReadDir("/d")->size(), size_t{kFiles});
  fs.volume.reset();

  auto mounted = FatVolume::Mount(fs.disk.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ((*mounted)->ReadDir("/d")->size(), size_t{kFiles});
}

// Metadata reaches the device only at a flush point; unmount is one.
TEST_P(FatWriteBackTest, MetadataReachesTheDeviceOnlyWhenFlushed) {
  WriteBackVolume fs;
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(GetParam(), 4 * 1024, &fs));
  ASSERT_TRUE(fs.volume->Mkdir("/d").ok());
  ASSERT_TRUE(fs.volume->WriteFile("/d/f.txt", "written back").ok());
  {
    auto early = FatVolume::Mount(fs.disk.get());
    ASSERT_TRUE(early.ok()) << early.status().ToString();
    EXPECT_FALSE((*early)->Stat("/d").ok()) << "nothing flushed yet";
  }
  fs.volume.reset();
  auto mounted = FatVolume::Mount(fs.disk.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(AsString(*(*mounted)->ReadFile("/d/f.txt")), "written back");
}

TEST_P(FatWriteBackTest, NoWriteBackWhenTheOwnerDropsTheDevice) {
  WriteBackVolume fs;
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(GetParam(), 4 * 1024, &fs));
  ASSERT_TRUE(fs.volume->WriteFile("/f.txt", "data").ok());
  fs.volume->set_flush_on_unmount(false);
  fs.volume.reset();
  auto mounted = FatVolume::Mount(fs.disk.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_FALSE((*mounted)->Stat("/f.txt").ok());
}

// The same seeded operation sequence runs against the volume and
// RamFilesystem (the oracle). At random points the volume is synced and a
// second volume mounted on its device, or it is unmounted and the device
// remounted; each mount must show the oracle's tree and the live volume's
// free-cluster count.
class FatCrashConsistencyTest
    : public ::testing::TestWithParam<std::tuple<VolumeKind, uint64_t>> {};

TEST_P(FatCrashConsistencyTest, EveryFlushPointMountsTheOraclesTree) {
  const auto [kind, seed] = GetParam();
  WriteBackVolume fs;
  // 4 MiB: ~1000 clusters, so freed clusters (directories' among them) are
  // reused often.
  ASSERT_NO_FATAL_FAILURE(MakeWriteBackVolume(kind, 8 * 1024, &fs));
  RamFilesystem ram;
  asbase::Rng rng(seed);
  std::vector<std::string> files;
  std::vector<std::string> dirs = {""};  // "" == root
  auto random_dir = [&] { return dirs[rng.Below(dirs.size())]; };
  auto random_bytes = [&](size_t size) {
    std::vector<uint8_t> bytes(size);
    for (auto& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    return bytes;
  };
  auto forget_file = [&](const std::string& path) {
    files.erase(std::remove(files.begin(), files.end(), path), files.end());
  };

  int mounts = 0;
  for (int step = 0; step < 600; ++step) {
    FatVolume& fat = *fs.volume;
    const int op = static_cast<int>(rng.Below(100));
    if (op < 25) {
      // Create, or truncate and rewrite.
      const std::string path =
          files.empty() || rng.OneIn(2)
              ? random_dir() + "/" + rng.Word(1, 24) +
                    (rng.OneIn(2) ? "." + rng.Word(1, 3) : "")
              : files[rng.Below(files.size())];
      const std::vector<uint8_t> data = random_bytes(rng.Below(20000));
      const asbase::Status fat_status = fat.WriteFile(path, data);
      ASSERT_EQ(fat_status.ok(), ram.WriteFile(path, data).ok()) << path;
      if (fat_status.ok() &&
          std::find(files.begin(), files.end(), path) == files.end()) {
        files.push_back(path);
      }
    } else if (op < 45 && !files.empty()) {
      // Write at an offset, possibly past EOF.
      const std::string& path = files[rng.Below(files.size())];
      const OpenFlags flags{.read = true, .write = true};
      auto fh = fat.Open(path, flags);
      auto rh = ram.Open(path, flags);
      ASSERT_TRUE(fh.ok()) << path;
      ASSERT_TRUE(rh.ok()) << path;
      const uint64_t size = fat.Stat(path)->size;
      const int64_t offset = static_cast<int64_t>(rng.Below(size + 6000));
      const std::vector<uint8_t> data = random_bytes(1 + rng.Below(9000));
      ASSERT_TRUE(fat.Seek(*fh, offset, Whence::kSet).ok());
      ASSERT_TRUE(ram.Seek(*rh, offset, Whence::kSet).ok());
      ASSERT_EQ(*fat.Write(*fh, data), data.size()) << path;
      ASSERT_EQ(*ram.Write(*rh, data), data.size()) << path;
      ASSERT_TRUE(fat.Close(*fh).ok());
      ASSERT_TRUE(ram.Close(*rh).ok());
    } else if (op < 57 && !files.empty()) {
      const std::string path = files[rng.Below(files.size())];
      ASSERT_TRUE(fat.Remove(path).ok()) << path;
      ASSERT_TRUE(ram.Remove(path).ok()) << path;
      forget_file(path);
    } else if (op < 69) {
      const std::string path = random_dir() + "/" + rng.Word(1, 16);
      const asbase::Status fat_status = fat.Mkdir(path);
      ASSERT_EQ(fat_status.ok(), ram.Mkdir(path).ok()) << path;
      if (fat_status.ok()) {
        dirs.push_back(path);
      }
    } else if (op < 79 && dirs.size() > 1) {
      // Remove a directory, emptied of its files first; one holding a
      // subdirectory stays on both sides.
      const size_t index = 1 + rng.Below(dirs.size() - 1);
      const std::string dir = dirs[index];
      for (const std::string& path : std::vector<std::string>(files)) {
        if (path.rfind(dir + "/", 0) == 0 &&
            path.find('/', dir.size() + 1) == std::string::npos) {
          ASSERT_TRUE(fat.Remove(path).ok()) << path;
          ASSERT_TRUE(ram.Remove(path).ok()) << path;
          forget_file(path);
        }
      }
      const asbase::Status fat_status = fat.Remove(dir);
      ASSERT_EQ(fat_status.ok(), ram.Remove(dir).ok()) << dir;
      if (fat_status.ok()) {
        dirs.erase(dirs.begin() + static_cast<int64_t>(index));
      }
    } else if (op < 90) {
      // Sync, then mount a second volume on the same device.
      ASSERT_TRUE(fat.Sync().ok());
      auto second = FatVolume::Mount(fs.disk.get());
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ASSERT_NO_FATAL_FAILURE(ExpectSameTree(**second, ram, ""))
          << "step " << step;
      ASSERT_EQ(*(*second)->CountFreeClusters(), *fat.CountFreeClusters())
          << "step " << step;
      ++mounts;
    } else {
      // Unmount, and continue on a fresh mount of the device.
      const uint32_t free_clusters = *fat.CountFreeClusters();
      fs.volume.reset();
      auto remounted = FatVolume::Mount(fs.disk.get());
      ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
      fs.volume = std::move(*remounted);
      ASSERT_NO_FATAL_FAILURE(ExpectSameTree(*fs.volume, ram, ""))
          << "step " << step;
      ASSERT_EQ(*fs.volume->CountFreeClusters(), free_clusters)
          << "step " << step;
      ++mounts;
    }
  }
  EXPECT_GT(mounts, 50);
  ASSERT_NO_FATAL_FAILURE(ExpectSameTree(*fs.volume, ram, ""));
}

INSTANTIATE_TEST_SUITE_P(Kinds, FatWriteBackTest,
                         ::testing::Values(VolumeKind::kMounted,
                                           VolumeKind::kClone),
                         VolumeKindName);

INSTANTIATE_TEST_SUITE_P(
    Seeds, FatCrashConsistencyTest,
    ::testing::Combine(::testing::Values(VolumeKind::kMounted,
                                         VolumeKind::kClone),
                       ::testing::Values(11, 12, 13, 14, 15)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == VolumeKind::kMounted
                             ? "mounted"
                             : "clone") +
             "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace asfat
