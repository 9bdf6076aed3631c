// Tests for WFD clone boot from pristine, geometry-keyed templates
// (DESIGN.md §14): a clone starts like a full boot (fresh heap, freshly
// formatted disk, nothing any invocation wrote), clones stay isolated from
// each other and get their own MPK keys, the visor's capture/clone/
// invalidate lifecycle (with counter proof), one template shared by every
// same-geometry workflow on a router, and the concurrent
// clone/offer/invalidate race.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/core/visor/snapshot_store.h"
#include "src/core/visor/visor.h"
#include "src/core/visor/visor_router.h"
#include "src/core/wfd.h"
#include "src/fatfs/fat_volume.h"
#include "src/obs/metrics.h"

namespace alloy {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

uint64_t CounterValue(const std::string& name, const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow}})
      .value();
}

std::string ReadFile(Libos& libos, const std::string& path) {
  auto fd = libos.Open(path, asfat::OpenFlags::ReadOnly());
  if (!fd.ok()) {
    return "<open failed: " + fd.status().ToString() + ">";
  }
  std::vector<uint8_t> buffer(4096);
  auto n = libos.Read(*fd, buffer);
  (void)libos.CloseFd(*fd);
  if (!n.ok()) {
    return "<read failed>";
  }
  return std::string(buffer.begin(), buffer.begin() + *n);
}

asbase::Status WriteFile(Libos& libos, const std::string& path,
                         const std::string& content) {
  AS_ASSIGN_OR_RETURN(int fd,
                      libos.Open(path, asfat::OpenFlags::WriteCreate()));
  auto written = libos.Write(fd, Bytes(content));
  AS_RETURN_IF_ERROR(libos.CloseFd(fd));
  AS_RETURN_IF_ERROR(written.status());
  return asbase::OkStatus();
}

// Counter of a workflow served by a router shard (series carry the shard).
uint64_t ShardCounterValue(const AsVisorRouter& router, const std::string& name,
                           const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow},
                         {"alloy_visor_shard",
                          std::to_string(router.ShardOf(workflow))}})
      .value();
}

WorkflowSpec OneStage(const std::string& name, const std::string& function) {
  WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(StageSpec{{FunctionSpec{function, 1}}});
  return spec;
}

// Loads mm and fatfs (+fdtab) through a small file write: the module set a
// template captures.
void RegisterFileWriter() {
  FunctionRegistry::Global().Register(
      "snap.write_file", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().wfd().libos().HeapAllocate(64).status());
        AS_RETURN_IF_ERROR(
            WriteFile(ctx.as().wfd().libos(), "/out.txt", "data"));
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
}

// ------------------------------------------------------------ clone heap

TEST(CloneHeapTest, CloneGetsAFreshZeroedHeap) {
  auto tmpl_or = Wfd::Create(SmallWfd());
  ASSERT_TRUE(tmpl_or.ok());
  Wfd& tmpl = **tmpl_or;
  auto heap_ptr = tmpl.libos().HeapAllocate(4096);
  ASSERT_TRUE(heap_ptr.ok());
  std::memset(*heap_ptr, 0x5a, 4096);
  uint8_t* tmpl_base = static_cast<uint8_t*>(tmpl.libos().heap_arena()->data());
  const size_t offset = static_cast<uint8_t*>(*heap_ptr) - tmpl_base;

  auto snapshot = tmpl.CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto clone_or = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
  ASSERT_TRUE(clone_or.ok()) << clone_or.status().ToString();
  Wfd& clone = **clone_or;

  // The template is pristine: the clone's heap is its own fresh mapping,
  // zero where the template wrote, with an empty allocator.
  ASSERT_TRUE(clone.libos().IsLoaded(ModuleKind::kMm));
  uint8_t* clone_base =
      static_cast<uint8_t*>(clone.libos().heap_arena()->data());
  EXPECT_NE(clone_base, tmpl_base);
  EXPECT_EQ(clone_base[offset], 0u);
  auto stats = clone.libos().HeapStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->live_allocations, 0u);

  // Writes stay private in both directions.
  clone_base[offset] = 0xaa;
  EXPECT_EQ(tmpl_base[offset], 0x5a);
  std::memset(tmpl_base + offset, 0xcc, 16);
  EXPECT_EQ(clone_base[offset], 0xaa);

  // An untouched clone heap costs (almost) nothing resident.
  EXPECT_LE(clone.libos().ResidentHeapBytes(), 64u * 1024);
}

// ------------------------------------------------------- memdisk chunks

TEST(MemDiskTest, AllocatesLazilyAndClonesCopyOnWrite) {
  // Satellite 1: a fresh disk must not eagerly materialize its full size.
  asblk::MemDisk disk(128 * 1024);  // 64 MiB virtual
  EXPECT_EQ(disk.ResidentBytes(), 0u);

  std::vector<uint8_t> block(asblk::BlockDevice::kBlockSize, 0x11);
  ASSERT_TRUE(disk.Write(7, block).ok());
  EXPECT_GT(disk.ResidentBytes(), 0u);
  EXPECT_LE(disk.ResidentBytes(), asblk::MemDisk::kChunkBytes);

  auto image = disk.SnapshotImage();
  ASSERT_NE(image, nullptr);
  // The template re-based onto the frozen image: its private set is empty
  // again, and the image holds the written chunk.
  EXPECT_EQ(disk.ResidentBytes(), 0u);
  EXPECT_GT(image->bytes(), 0u);

  asblk::MemDisk clone(image);
  std::vector<uint8_t> out(asblk::BlockDevice::kBlockSize);
  ASSERT_TRUE(clone.Read(7, out).ok());
  EXPECT_EQ(out[0], 0x11);
  EXPECT_EQ(clone.ResidentBytes(), 0u) << "reads must not materialize chunks";

  // Clone write copies the chunk; the template still reads the image data.
  std::vector<uint8_t> other(asblk::BlockDevice::kBlockSize, 0x22);
  ASSERT_TRUE(clone.Write(7, other).ok());
  ASSERT_TRUE(disk.Read(7, out).ok());
  EXPECT_EQ(out[0], 0x11);
  ASSERT_TRUE(clone.Read(7, out).ok());
  EXPECT_EQ(out[0], 0x22);

  // Unwritten blocks read as zeros in both.
  ASSERT_TRUE(clone.Read(9999, out).ok());
  EXPECT_EQ(out[0], 0u);
}

TEST(MemDiskTest, CopyOnWriteUnitIsOnePage) {
  EXPECT_EQ(asblk::MemDisk::kChunkBytes, 4096u);
  asblk::MemDisk disk(16 * 1024);
  std::vector<uint8_t> page(asblk::MemDisk::kChunkBytes, 0x33);
  for (uint64_t lba = 0; lba < 64; lba += 8) {
    ASSERT_TRUE(disk.Write(lba, page).ok());
  }
  asblk::MemDisk clone(disk.SnapshotImage());
  // One block in the middle of the image copies exactly its page.
  std::vector<uint8_t> block(asblk::BlockDevice::kBlockSize, 0x44);
  ASSERT_TRUE(clone.Write(19, block).ok());
  EXPECT_EQ(clone.ResidentBytes(), asblk::MemDisk::kChunkBytes);
}

TEST(MemDiskTest, UnalignedIoAcrossPageBoundariesRoundTrips) {
  // A reference byte model against a clone whose base image holds every
  // other page, so runs cross shared pages, private pages and holes.
  constexpr uint64_t kBlocks = 256;
  constexpr size_t kBlock = asblk::BlockDevice::kBlockSize;
  constexpr size_t kPage = 4096;
  asblk::MemDisk base(kBlocks);
  std::vector<uint8_t> model(kBlocks * kBlock, 0);
  for (uint64_t lba = 0; lba < kBlocks; lba += 16) {
    std::vector<uint8_t> page(kPage, static_cast<uint8_t>(lba + 1));
    ASSERT_TRUE(base.Write(lba, page).ok());
    std::memcpy(&model[lba * kBlock], page.data(), page.size());
  }
  asblk::MemDisk clone(base.SnapshotImage());

  uint32_t seed = 12345;
  auto next = [&seed] {
    seed = seed * 1103515245u + 12345u;
    return seed >> 8;
  };
  for (int op = 0; op < 200; ++op) {
    const uint64_t lba = next() % (kBlocks - 1);
    const uint64_t count = 1 + next() % std::min<uint64_t>(24, kBlocks - lba);
    std::vector<uint8_t> data(count * kBlock);
    if (op % 2 == 0) {
      for (auto& byte : data) {
        byte = static_cast<uint8_t>(next());
      }
      ASSERT_TRUE(clone.Write(lba, data).ok());
      std::memcpy(&model[lba * kBlock], data.data(), data.size());
    } else {
      ASSERT_TRUE(clone.Read(lba, data).ok());
      ASSERT_EQ(0, std::memcmp(data.data(), &model[lba * kBlock], data.size()))
          << "read of " << count << " blocks at lba " << lba;
    }
  }
  std::vector<uint8_t> all(kBlocks * kBlock);
  ASSERT_TRUE(clone.Read(0, all).ok());
  EXPECT_EQ(all, model);
  // The base image never saw the clone's writes.
  std::vector<uint8_t> first(kPage);
  ASSERT_TRUE(base.Read(0, first).ok());
  EXPECT_EQ(first, std::vector<uint8_t>(first.size(), 1));
}

// ------------------------------------------------------------ FAT metadata

// A freshly formatted disk of the default WFD geometry (64 MiB), the
// metadata captured from its volume, and the disk frozen after that: the
// fatfs half of a template.
struct FatImage {
  std::unique_ptr<asblk::MemDisk> disk;
  std::unique_ptr<asfat::FatVolume> volume;  // the template's own volume
  std::shared_ptr<const asblk::MemDiskImage> image;
  asfat::FatVolume::MetaImage meta;
};

void MakeFatImage(FatImage* out) {
  out->disk = std::make_unique<asblk::MemDisk>(WfdOptions{}.disk_blocks);
  ASSERT_TRUE(asfat::FatVolume::Format(out->disk.get()).ok());
  auto volume = asfat::FatVolume::Mount(out->disk.get());
  ASSERT_TRUE(volume.ok()) << volume.status().ToString();
  out->volume = std::move(*volume);
  auto meta = out->volume->SnapshotMeta();
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  out->meta = *meta;
  out->image = out->disk->SnapshotImage();
}

// The FAT sectors of an image, in order, by value.
std::vector<asfat::FatVolume::Sector> FatContents(
    const asfat::FatVolume::MetaImage& meta) {
  std::vector<asfat::FatVolume::Sector> out;
  for (uint32_t s = 0; s < meta.fat_sectors; ++s) {
    auto it = meta.pages->find(meta.reserved_sectors + s);
    if (it != meta.pages->end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

// The FAT sectors a volume holds now (captured, so written back first).
std::vector<asfat::FatVolume::Sector> FatContents(asfat::FatVolume& volume) {
  auto meta = volume.SnapshotMeta();
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  return meta.ok() ? FatContents(*meta)
                   : std::vector<asfat::FatVolume::Sector>{};
}

std::string ReadVolumeFile(asfat::FatVolume& volume, const std::string& path) {
  auto bytes = volume.ReadFile(path);
  return bytes.ok() ? std::string(bytes->begin(), bytes->end())
                    : "<" + bytes.status().ToString() + ">";
}

TEST(FatMetaCowTest, FourKiBWriteCopiesTwoSectorsAndOneDataPage) {
  FatImage fat;
  ASSERT_NO_FATAL_FAILURE(MakeFatImage(&fat));
  const auto pristine = FatContents(fat.meta);
  ASSERT_EQ(pristine.size(), 128u) << "64 MiB disk: 128 FAT sectors";
  EXPECT_EQ(fat.meta.pages->size(), 128u + 8)
      << "the FAT and the root directory's cluster";
  EXPECT_EQ(fat.volume->PrivateMetaBytes(), 0u) << "captured: all shared";
  const uint32_t free_before = *fat.volume->CountFreeClusters();

  asblk::MemDisk disk_a(fat.image);
  asblk::MemDisk disk_b(fat.image);
  auto a = asfat::FatVolume::MountFromMeta(&disk_a, fat.meta);
  auto b = asfat::FatVolume::MountFromMeta(&disk_b, fat.meta);
  EXPECT_EQ(a->PrivateMetaBytes(), 0u);
  ASSERT_TRUE(a->WriteFile("/page.bin", std::string(4096, 'p')).ok());
  EXPECT_EQ(a->PrivateMetaBytes(), 2u * 512)
      << "the FAT sector and the directory entry's, not the 64 KiB FAT";
  EXPECT_EQ(disk_a.ResidentBytes(), 4096u) << "only file data hit the disk";
  EXPECT_EQ(*a->CountFreeClusters(), free_before - 1);

  // The template and a sibling clone are unchanged.
  EXPECT_EQ(FatContents(fat.meta), pristine);
  EXPECT_EQ(fat.volume->PrivateMetaBytes(), 0u);
  EXPECT_EQ(*fat.volume->CountFreeClusters(), free_before);
  EXPECT_EQ(b->PrivateMetaBytes(), 0u);
  EXPECT_EQ(*b->CountFreeClusters(), free_before);
  EXPECT_FALSE(b->Stat("/page.bin").ok());

  // The sibling's write into the same sectors gets its own copies.
  ASSERT_TRUE(b->WriteFile("/other.bin", std::string(4096, 'o')).ok());
  EXPECT_EQ(b->PrivateMetaBytes(), 2u * 512);
  EXPECT_EQ(ReadVolumeFile(*a, "/page.bin"), std::string(4096, 'p'));
  EXPECT_EQ(ReadVolumeFile(*b, "/other.bin"), std::string(4096, 'o'));
  EXPECT_FALSE(a->Stat("/other.bin").ok());
  EXPECT_EQ(FatContents(fat.meta), pristine);
}

TEST(FatMetaCowTest, MegabyteWriteCopiesExactlyTheSectorsItTouched) {
  FatImage fat;
  ASSERT_NO_FATAL_FAILURE(MakeFatImage(&fat));
  const auto pristine = FatContents(fat.meta);
  asblk::MemDisk disk(fat.image);
  auto clone = asfat::FatVolume::MountFromMeta(&disk, fat.meta);
  ASSERT_TRUE(clone->WriteFile("/big.bin", std::string(1 << 20, 'm')).ok());
  EXPECT_EQ(disk.ResidentBytes(), size_t{1} << 20)
      << "metadata stays in memory until a Sync";

  // Which sectors changed, read back from the disk after the write-back.
  ASSERT_TRUE(clone->Sync().ok());
  auto mounted = asfat::FatVolume::Mount(&disk);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  const auto on_disk = FatContents(**mounted);
  ASSERT_EQ(on_disk.size(), pristine.size());
  size_t touched = 0;
  for (size_t s = 0; s < on_disk.size(); ++s) {
    touched += on_disk[s] != pristine[s] ? 1 : 0;
  }
  // 256 clusters from cluster 3 on: entries 3..258, sectors 0..2.
  EXPECT_EQ(touched, 3u);
  // Plus the root directory sector holding the file's entry.
  EXPECT_EQ(clone->PrivateMetaBytes(), (touched + 1) * 512);
  EXPECT_EQ(FatContents(fat.meta), pristine);
}

TEST(FatMetaCowTest, MountOfASyncedCloneDiskReadsBackTheClonesMetadata) {
  FatImage fat;
  ASSERT_NO_FATAL_FAILURE(MakeFatImage(&fat));
  asblk::MemDisk disk(fat.image);
  auto clone = asfat::FatVolume::MountFromMeta(&disk, fat.meta);
  // Allocations, a freed chain and a directory: every FAT update path.
  ASSERT_TRUE(clone->WriteFile("/a.bin", std::string(300 << 10, 'a')).ok());
  ASSERT_TRUE(clone->Mkdir("/dir").ok());
  ASSERT_TRUE(clone->WriteFile("/dir/b.bin", std::string(9000, 'b')).ok());
  ASSERT_TRUE(clone->Remove("/a.bin").ok());
  ASSERT_TRUE(clone->WriteFile("/c.bin", std::string(600 << 10, 'c')).ok());
  ASSERT_TRUE(clone->Sync().ok());

  auto mounted = asfat::FatVolume::Mount(&disk);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(ReadVolumeFile(**mounted, "/dir/b.bin"), std::string(9000, 'b'));
  EXPECT_EQ(ReadVolumeFile(**mounted, "/c.bin"), std::string(600 << 10, 'c'));
  EXPECT_FALSE((*mounted)->Stat("/a.bin").ok());
  EXPECT_EQ(*(*mounted)->CountFreeClusters(), *clone->CountFreeClusters());
  EXPECT_EQ(FatContents(**mounted), FatContents(*clone));
}

TEST(FatMetaCowTest, ConcurrentClonesAndTemplateWritesStayIsolated) {
  FatImage fat;
  ASSERT_NO_FATAL_FAILURE(MakeFatImage(&fat));
  const auto pristine = FatContents(fat.meta);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fat, &failures, t] {
      for (int round = 0; round < 8; ++round) {
        asblk::MemDisk disk(fat.image);
        auto clone = asfat::FatVolume::MountFromMeta(&disk, fat.meta);
        const std::string body(4096 * (1 + round % 3),
                               static_cast<char>('a' + t));
        if (!clone->WriteFile("/t.bin", body).ok() ||
            ReadVolumeFile(*clone, "/t.bin") != body ||
            clone->PrivateMetaBytes() != 2 * 512) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // The template's own volume keeps writing while clones mount and write.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(fat.volume
                    ->WriteFile("/tmpl" + std::to_string(i) + ".bin",
                                std::string(8192, 'T'))
                    .ok());
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(FatContents(fat.meta), pristine);
  EXPECT_EQ(ReadVolumeFile(*fat.volume, "/tmpl15.bin"), std::string(8192, 'T'));
}

// ------------------------------------------------------------- wfd clone

// A pristine template whose fatfs module is loaded: the formatted disk is
// its image.
std::shared_ptr<const WfdSnapshot> FatTemplate(
    const WfdOptions& options = SmallWfd()) {
  auto tmpl = Wfd::Create(options);
  if (!tmpl.ok() || !WriteFile((*tmpl)->libos(), "/boot.txt", "x").ok()) {
    return nullptr;
  }
  auto snapshot = (*tmpl)->CaptureSnapshot();
  return snapshot.ok() ? *snapshot : nullptr;
}

TEST(WfdSnapshotTest, FourKiBFileWriteIntoCloneCostsAFewPages) {
  auto snapshot = FatTemplate();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_LE(snapshot->image_bytes, 16u * 1024)
      << "boot sector, FAT and root directory pages only";
  auto clone = Wfd::CloneFromSnapshot(SmallWfd(), snapshot);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  ASSERT_TRUE(
      WriteFile((*clone)->libos(), "/page.bin", std::string(4096, 'p')).ok());
  // The data cluster's disk page, plus the FAT sector and the directory
  // entry's sector the volume copied; the metadata stays off the disk.
  EXPECT_LE((*clone)->libos().ResidentDiskBytes(), 4096u + 2 * 512);
  EXPECT_LE((*clone)->ResidentBytes(), 16u * 1024);
  EXPECT_EQ(ReadFile((*clone)->libos(), "/page.bin"), std::string(4096, 'p'));
}

TEST(WfdSnapshotTest, ClusterWriteTouchesOnePageOnAnUnevenGeometry) {
  // 10000 blocks is a geometry whose FAT does not end on a cluster
  // boundary by itself; the formatter pads it so the data region does.
  WfdOptions options = SmallWfd();
  options.disk_blocks = 10000;
  auto snapshot = FatTemplate(options);
  ASSERT_NE(snapshot, nullptr);
  auto clone = Wfd::CloneFromSnapshot(options, snapshot);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  ASSERT_TRUE(
      WriteFile((*clone)->libos(), "/page.bin", std::string(4096, 'u')).ok());
  // The data cluster's page, plus the FAT sector and the directory entry's
  // sector the volume copied.
  EXPECT_LE((*clone)->libos().ResidentDiskBytes(), 4096u + 2 * 512);
  EXPECT_EQ(ReadFile((*clone)->libos(), "/page.bin"), std::string(4096, 'u'));
}

TEST(WfdSnapshotTest, SixtyFourClonesPayOnlyTheirOwnPages) {
  auto snapshot = FatTemplate();
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::unique_ptr<Wfd>> clones;
  size_t total = 0;
  for (int i = 0; i < 64; ++i) {
    auto clone = Wfd::CloneFromSnapshot(SmallWfd(), snapshot);
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    ASSERT_TRUE(WriteFile((*clone)->libos(), "/tenant.bin",
                          std::string(4096, static_cast<char>('a' + i % 26)))
                    .ok());
    clones.push_back(std::move(*clone));
  }
  for (const auto& clone : clones) {
    total += clone->ResidentBytes();
  }
  EXPECT_LE(total, 64u * 16 * 1024);
  EXPECT_EQ(ReadFile(clones[63]->libos(), "/tenant.bin"),
            std::string(4096, 'a' + 63 % 26));
}


TEST(WfdSnapshotTest, CloneBootStartsPristineAndIsolatesWrites) {
  auto wfd_or = Wfd::Create(SmallWfd());
  ASSERT_TRUE(wfd_or.ok());
  Wfd& tmpl = **wfd_or;

  // State an invocation would leave behind: a heap allocation with a
  // pattern and a file on the FAT volume. Capture needs no reset.
  auto heap_ptr = tmpl.libos().HeapAllocate(64 * 1024);
  ASSERT_TRUE(heap_ptr.ok());
  std::memset(*heap_ptr, 0x5a, 64 * 1024);
  ASSERT_TRUE(WriteFile(tmpl.libos(), "/seed.txt", "template-state").ok());
  uint8_t* tmpl_base = static_cast<uint8_t*>(tmpl.libos().heap_arena()->data());
  const size_t heap_offset = static_cast<uint8_t*>(*heap_ptr) - tmpl_base;

  auto snapshot = tmpl.CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_GT((*snapshot)->image_bytes, 0u) << "the formatted disk is the image";

  auto clone_a_or = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
  auto clone_b_or = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
  ASSERT_TRUE(clone_a_or.ok()) << clone_a_or.status().ToString();
  ASSERT_TRUE(clone_b_or.ok());
  Wfd& a = **clone_a_or;
  Wfd& b = **clone_b_or;

  // An idle clone shares the disk image and has touched no heap.
  EXPECT_LE(b.ResidentBytes(), 64u * 1024);

  // Clone boot skipped module loads but the modules are there.
  EXPECT_TRUE(a.libos().IsLoaded(ModuleKind::kMm));
  EXPECT_TRUE(a.libos().IsLoaded(ModuleKind::kFatfs));
  EXPECT_EQ(a.libos().TotalLoadNanos(), 0)
      << "clone boot must not charge module-load time";
  EXPECT_EQ(a.libos().PaidModules(), 0u);

  // Nothing the template's invocation wrote came across: the clone starts
  // like a full boot.
  uint8_t* a_base = static_cast<uint8_t*>(a.libos().heap_arena()->data());
  EXPECT_EQ(a_base[heap_offset], 0u);
  EXPECT_FALSE(a.libos().Stat("/seed.txt").ok());
  EXPECT_TRUE(tmpl.libos().Stat("/seed.txt").ok());

  // Filesystem writes stay private per clone: /a.txt exists only in A.
  ASSERT_TRUE(WriteFile(a.libos(), "/a.txt", "from-a").ok());
  EXPECT_EQ(ReadFile(a.libos(), "/a.txt"), "from-a");
  EXPECT_FALSE(b.libos().Stat("/a.txt").ok());
  EXPECT_FALSE(tmpl.libos().Stat("/a.txt").ok());
  ASSERT_TRUE(WriteFile(b.libos(), "/b.txt", "from-b").ok());
  EXPECT_EQ(ReadFile(b.libos(), "/b.txt"), "from-b");
  EXPECT_FALSE(a.libos().Stat("/b.txt").ok());

  // The clone's allocator is its own: allocate and free freely.
  auto clone_alloc = a.libos().HeapAllocate(32 * 1024);
  ASSERT_TRUE(clone_alloc.ok());
  EXPECT_TRUE(a.libos().HeapFree(*clone_alloc).ok());
}

TEST(WfdSnapshotTest, MpkKeysAreReboundPerClone) {
  auto tmpl_or = Wfd::Create(SmallWfd());
  ASSERT_TRUE(tmpl_or.ok());
  ASSERT_TRUE((*tmpl_or)->libos().EnsureLoaded(ModuleKind::kMm).ok());
  ASSERT_TRUE((*tmpl_or)->Reset().ok());
  auto snapshot = (*tmpl_or)->CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  auto a_or = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
  auto b_or = Wfd::CloneFromSnapshot(SmallWfd(), *snapshot);
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  Wfd& a = **a_or;
  Wfd& b = **b_or;

  // Each clone's heap view is bound to that clone's own user key in that
  // clone's own key runtime — the MPK partition does not come from the
  // template.
  void* a_heap = a.libos().heap_arena()->data();
  void* b_heap = b.libos().heap_arena()->data();
  EXPECT_EQ(a.mpk().KeyOf(a_heap), a.user_key());
  EXPECT_EQ(b.mpk().KeyOf(b_heap), b.user_key());
  // A's runtime knows nothing about B's view and vice versa.
  EXPECT_EQ(a.mpk().KeyOf(b_heap), 0u);
  EXPECT_EQ(b.mpk().KeyOf(a_heap), 0u);
}

TEST(WfdSnapshotTest, RamfsAndGeometryMismatchesRefuse) {
  WfdOptions ramfs_options = SmallWfd();
  ramfs_options.use_ramfs = true;
  auto ramfs_wfd = Wfd::Create(ramfs_options);
  ASSERT_TRUE(ramfs_wfd.ok());
  ASSERT_TRUE((*ramfs_wfd)->libos().EnsureLoaded(ModuleKind::kRamfs).ok());
  EXPECT_FALSE((*ramfs_wfd)->CaptureSnapshot().ok())
      << "ramfs WFDs must not snapshot";

  auto tmpl = Wfd::Create(SmallWfd());
  ASSERT_TRUE(tmpl.ok());
  ASSERT_TRUE((*tmpl)->libos().EnsureLoaded(ModuleKind::kFatfs).ok());
  auto snapshot = (*tmpl)->CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok());

  WfdOptions bigger = SmallWfd();
  bigger.heap_bytes = 16u << 20;
  EXPECT_FALSE(Wfd::CloneFromSnapshot(bigger, *snapshot).ok())
      << "geometry drift must refuse, not mis-clone";

  // Cap enforcement: a tiny budget refuses the capture of the disk image.
  EXPECT_FALSE((*tmpl)->CaptureSnapshot(/*max_image_bytes=*/1).ok());

  WfdOptions external = SmallWfd();
  asblk::MemDisk disk(external.disk_blocks);
  external.disk = &disk;
  auto external_wfd = Wfd::Create(external);
  ASSERT_TRUE(external_wfd.ok());
  EXPECT_FALSE((*external_wfd)->CaptureSnapshot().ok())
      << "external-disk WFDs must not snapshot";
  EXPECT_FALSE(Wfd::CloneFromSnapshot(external, *snapshot).ok());
}

// ------------------------------------------------------ visor lifecycle

TEST(VisorSnapshotTest, CaptureCloneAndInvalidateWithCounters) {
  FunctionRegistry::Global().Register(
      "snap.rendezvous", [](FunctionContext& ctx) -> asbase::Status {
        // Loads fdtab + fatfs: the modules the template captures.
        AS_RETURN_IF_ERROR(
            WriteFile(ctx.as().wfd().libos(), "/out.txt", "data"));
        if (ctx.params()["mode"].as_string() == "block") {
          auto* gate = reinterpret_cast<std::atomic<int>*>(
              static_cast<uintptr_t>(ctx.params()["gate"].as_int()));
          gate->fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (gate->load() < 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });

  const std::string wf = "snapwf";
  const uint64_t creates0 =
      CounterValue("alloy_visor_snapshot_creates_total", wf);
  const uint64_t clones0 =
      CounterValue("alloy_visor_snapshot_clones_total", wf);
  const uint64_t fallbacks0 =
      CounterValue("alloy_visor_snapshot_fallback_boots_total", wf);
  const uint64_t invalidations0 =
      CounterValue("alloy_visor_snapshot_invalidations_total", wf);

  AsVisor visor;
  WorkflowSpec spec;
  spec.name = wf;
  spec.stages.push_back(StageSpec{{FunctionSpec{"snap.rendezvous", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 2;
  options.max_concurrency = 2;
  visor.RegisterWorkflow(spec, options);

  // First invocation: full boot (counts as a fallback — no template yet),
  // then the post-reset capture freezes the template.
  asbase::Json params;
  params.Set("mode", "plain");
  auto first = visor.Invoke(wf, params);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->clone_start);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_fallback_boots_total", wf),
            fallbacks0 + 1);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_creates_total", wf),
            creates0 + 1);

  // Two concurrent invocations: one leases the parked WFD (warm), the
  // other misses and must clone-boot from the template. The rendezvous
  // keeps both in flight simultaneously so the miss is deterministic.
  std::atomic<int> gate{0};
  asbase::Json block_params;
  block_params.Set("mode", "block");
  block_params.Set("gate", static_cast<int64_t>(
                               reinterpret_cast<uintptr_t>(&gate)));
  asbase::Result<InvokeResult> r1 = asbase::Unavailable("unset");
  asbase::Result<InvokeResult> r2 = asbase::Unavailable("unset");
  std::thread t1([&] { r1 = visor.Invoke(wf, block_params); });
  std::thread t2([&] { r2 = visor.Invoke(wf, block_params); });
  t1.join();
  t2.join();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((r1->clone_start ? 1 : 0) + (r2->clone_start ? 1 : 0), 1)
      << "exactly one of the concurrent invocations should clone-boot";
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_clones_total", wf),
            clones0 + 1);
  const InvokeResult& cloned = r1->clone_start ? *r1 : *r2;
  EXPECT_EQ(cloned.run.result, "ok");
  EXPECT_EQ(cloned.module_load_nanos, 0)
      << "clone boot must not pay module loads";

  // Re-registration keeps the template: it is pristine, so nothing of the
  // old registration's runs is in it. The new registration's empty pool
  // misses and clones.
  visor.RegisterWorkflow(spec, options);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_invalidations_total", wf),
            invalidations0);
  auto after = visor.Invoke(wf, params);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->clone_start);
  EXPECT_EQ(after->module_load_nanos, 0);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_clones_total", wf),
            clones0 + 2);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_fallback_boots_total", wf),
            fallbacks0 + 1);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_creates_total", wf),
            creates0 + 1)
      << "a clone that loaded nothing new publishes nothing";
}

TEST(VisorSnapshotTest, PoolLessWorkflowStillCapturesAndClones) {
  // pool_size == 0 cold-starts every invocation — the configuration with
  // the most to gain from clone boot. The first invoke must still publish
  // (its WFD is destroyed, never reset or parked), and every later invoke
  // must clone-boot.
  RegisterFileWriter();
  const std::string wf = "snapnopool";
  const uint64_t creates0 =
      CounterValue("alloy_visor_snapshot_creates_total", wf);
  const uint64_t clones0 =
      CounterValue("alloy_visor_snapshot_clones_total", wf);
  AsVisor visor;
  WorkflowSpec spec;
  spec.name = wf;
  spec.stages.push_back(StageSpec{{FunctionSpec{"snap.write_file", 1}}});
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  visor.RegisterWorkflow(spec, options);

  auto first = visor.Invoke(wf, asbase::Json{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->clone_start);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_creates_total", wf),
            creates0 + 1);

  for (int i = 0; i < 3; ++i) {
    auto later = visor.Invoke(wf, asbase::Json{});
    ASSERT_TRUE(later.ok()) << later.status().ToString();
    EXPECT_TRUE(later->clone_start) << "pool-less invoke " << i;
  }
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_clones_total", wf),
            clones0 + 3);
}

// ------------------------------------------ geometry-keyed shared store

TEST(SnapshotStoreTest, KeysByGeometryAndRefusesIneligibleWfds) {
  SnapshotStore store;
  WfdOptions other = SmallWfd();
  other.name = "another-workflow";
  EXPECT_EQ(store.SlotFor(SmallWfd()), store.SlotFor(other))
      << "same geometry, same template";
  WfdOptions bigger = SmallWfd();
  bigger.heap_bytes = 16u << 20;
  EXPECT_NE(store.SlotFor(SmallWfd()), store.SlotFor(bigger));
  WfdOptions load_all = SmallWfd();
  load_all.on_demand = false;
  EXPECT_NE(store.SlotFor(SmallWfd()), store.SlotFor(load_all));
  WfdOptions ramfs = SmallWfd();
  ramfs.use_ramfs = true;
  EXPECT_EQ(store.SlotFor(ramfs), nullptr);
  asblk::MemDisk disk(16 * 1024);
  WfdOptions external = SmallWfd();
  external.disk = &disk;
  EXPECT_EQ(store.SlotFor(external), nullptr);
}

TEST(SnapshotStoreTest, OnlyPaidModulesGrowTheTemplate) {
  SnapshotStore store;
  auto slot = store.SlotFor(SmallWfd());
  ASSERT_NE(slot, nullptr);

  auto booted = Wfd::Create(SmallWfd());
  ASSERT_TRUE(booted.ok());
  ASSERT_TRUE((*booted)->libos().EnsureLoaded(ModuleKind::kMm).ok());
  EXPECT_TRUE(slot->Offer(**booted));
  EXPECT_FALSE(slot->Offer(**booted)) << "nothing new to publish";
  ASSERT_NE(slot->Get(), nullptr);
  EXPECT_EQ(slot->Get()->modules, std::vector<ModuleKind>{ModuleKind::kMm});

  // A clone that only inherited modules publishes nothing; one that loaded
  // more on demand grows the template, keeping what it already had.
  auto clone = Wfd::CloneFromSnapshot(SmallWfd(), slot->Get());
  ASSERT_TRUE(clone.ok());
  EXPECT_FALSE(slot->Offer(**clone));
  ASSERT_TRUE((*clone)->libos().EnsureLoaded(ModuleKind::kFdtab).ok());
  EXPECT_TRUE(slot->Offer(**clone));
  const std::vector<ModuleKind> grown = {ModuleKind::kMm, ModuleKind::kFdtab,
                                         ModuleKind::kFatfs};
  EXPECT_EQ(slot->Get()->modules, grown);
  EXPECT_NE(slot->Get()->disk, nullptr);

  // After an invalidation, a clone's inherited modules stay out: only what
  // it paid for comes back.
  auto later = Wfd::CloneFromSnapshot(SmallWfd(), slot->Get());
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(slot->Invalidate());
  EXPECT_EQ(slot->Get(), nullptr);
  EXPECT_FALSE(slot->Offer(**later));
  ASSERT_TRUE((*later)->libos().EnsureLoaded(ModuleKind::kTime).ok());
  EXPECT_TRUE(slot->Offer(**later));
  EXPECT_EQ(slot->Get()->modules, std::vector<ModuleKind>{ModuleKind::kTime});
}

TEST(SnapshotStoreTest, ConcurrentCloneOfferAndInvalidate) {
  // Cloners (the miss path), publishers (post-run offers) and an
  // invalidator (reset failure) hammer one slot — the shape of the
  // clone-while-publishing race, run under TSan in CI.
  SnapshotStore store;
  auto slot = store.SlotFor(SmallWfd());
  ASSERT_NE(slot, nullptr);
  std::vector<std::unique_ptr<Wfd>> publishers;
  for (int i = 0; i < 2; ++i) {
    auto wfd = Wfd::Create(SmallWfd());
    ASSERT_TRUE(wfd.ok());
    ASSERT_TRUE((*wfd)->libos().EnsureLoaded(ModuleKind::kFdtab).ok());
    publishers.push_back(std::move(*wfd));
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> clones{0};

  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        if (auto snap = slot->Get()) {
          auto clone = Wfd::CloneFromSnapshot(SmallWfd(), std::move(snap));
          if (clone.ok() && (*clone)->libos().IsLoaded(ModuleKind::kFatfs)) {
            clones.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& wfd : publishers) {
    threads.emplace_back([&, publisher = wfd.get()] {
      while (!stop.load()) {
        slot->Offer(*publisher);
        std::this_thread::yield();
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      slot->Invalidate();
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(clones.load(), 0u);
}

TEST(SharedTemplateTest, SameGeometryWorkflowsNeverSeeEachOthersBytes) {
  // A writes a secret file and a heap pattern; B (another workflow of the
  // same geometry, on another shard) clone-boots from the template A's
  // first run published, and sees neither. Nor does A's own next clone.
  static std::atomic<size_t> pattern_offset{0};
  FunctionRegistry::Global().Register(
      "snap.secret", [](FunctionContext& ctx) -> asbase::Status {
        Libos& libos = ctx.as().wfd().libos();
        if (ctx.params()["mode"].as_string() == "write") {
          AS_RETURN_IF_ERROR(WriteFile(libos, "/secret.txt", "hunter2"));
          AS_ASSIGN_OR_RETURN(void* block, libos.HeapAllocate(4096));
          std::memset(block, 0x5a, 4096);
          pattern_offset.store(static_cast<uint8_t*>(block) -
                               static_cast<uint8_t*>(
                                   libos.heap_arena()->data()));
          ctx.SetResult("wrote");
          return asbase::OkStatus();
        }
        const bool file_seen = libos.Stat("/secret.txt").ok();
        AS_RETURN_IF_ERROR(libos.EnsureLoaded(ModuleKind::kMm));
        const uint8_t* heap =
            static_cast<const uint8_t*>(libos.heap_arena()->data());
        const size_t offset = pattern_offset.load();
        const bool heap_seen = std::all_of(
            heap + offset + 64, heap + offset + 4096,
            [](uint8_t byte) { return byte == 0x5a; });
        ctx.SetResult(std::string(file_seen ? "file " : "") +
                      (heap_seen ? "heap" : "") +
                      (file_seen || heap_seen ? "" : "clean"));
        return asbase::OkStatus();
      });

  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;  // every invocation boots (clone or full)
  options.pin_shard = 0;
  router.RegisterWorkflow(OneStage("secret-a", "snap.secret"), options);
  options.pin_shard = 1;
  router.RegisterWorkflow(OneStage("secret-b", "snap.secret"), options);
  ASSERT_NE(router.ShardOf("secret-a"), router.ShardOf("secret-b"));

  asbase::Json write;
  write.Set("mode", "write");
  asbase::Json check;
  check.Set("mode", "check");
  auto a_first = router.Invoke("secret-a", write);
  ASSERT_TRUE(a_first.ok()) << a_first.status().ToString();
  EXPECT_FALSE(a_first->clone_start);
  EXPECT_EQ(a_first->run.result, "wrote");

  auto b_first = router.Invoke("secret-b", check);
  ASSERT_TRUE(b_first.ok()) << b_first.status().ToString();
  EXPECT_TRUE(b_first->clone_start) << "the shards share one template";
  EXPECT_EQ(b_first->run.result, "clean");

  auto a_later = router.Invoke("secret-a", check);
  ASSERT_TRUE(a_later.ok()) << a_later.status().ToString();
  EXPECT_TRUE(a_later->clone_start);
  EXPECT_EQ(a_later->run.result, "clean");
}

TEST(SharedTemplateTest, EightTenantsPayOneFullBoot) {
  RegisterFileWriter();
  RouterOptions router_options;
  router_options.shards = 2;
  AsVisorRouter router(router_options);
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 1;
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back("boots-" + std::to_string(i));
    router.RegisterWorkflow(OneStage(names.back(), "snap.write_file"),
                            options);
  }
  std::vector<uint64_t> full0, clones0, creates0;
  for (const std::string& name : names) {
    full0.push_back(ShardCounterValue(
        router, "alloy_visor_snapshot_fallback_boots_total", name));
    clones0.push_back(ShardCounterValue(
        router, "alloy_visor_snapshot_clones_total", name));
    creates0.push_back(ShardCounterValue(
        router, "alloy_visor_snapshot_creates_total", name));
  }
  for (const std::string& name : names) {
    auto result = router.Invoke(name, asbase::Json{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->run.result, "ok");
  }
  uint64_t full = 0;
  uint64_t clones = 0;
  uint64_t creates = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    full += ShardCounterValue(
                router, "alloy_visor_snapshot_fallback_boots_total",
                names[i]) -
            full0[i];
    clones += ShardCounterValue(router, "alloy_visor_snapshot_clones_total",
                                names[i]) -
              clones0[i];
    creates += ShardCounterValue(router, "alloy_visor_snapshot_creates_total",
                                 names[i]) -
               creates0[i];
  }
  EXPECT_EQ(full, 1u) << "one full boot per router and geometry";
  EXPECT_EQ(clones, 7u);
  EXPECT_EQ(creates, 1u);
}

TEST(SharedTemplateTest, FatfsWorkflowUpgradesAHeapOnlyTemplate) {
  RegisterFileWriter();
  FunctionRegistry::Global().Register(
      "snap.heap_only", [](FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().wfd().libos().HeapAllocate(64).status());
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  AsVisor visor;
  AsVisor::WorkflowOptions options;
  options.wfd = SmallWfd();
  options.pool_size = 0;
  visor.RegisterWorkflow(OneStage("upgrade-heap", "snap.heap_only"), options);
  visor.RegisterWorkflow(OneStage("upgrade-fs", "snap.write_file"), options);
  const uint64_t creates0 =
      CounterValue("alloy_visor_snapshot_creates_total", "upgrade-fs");

  auto heap_run = visor.Invoke("upgrade-heap", asbase::Json{});
  ASSERT_TRUE(heap_run.ok()) << heap_run.status().ToString();
  EXPECT_FALSE(heap_run->clone_start);

  // The fatfs workflow clones the heap-only template, then pays for fdtab
  // and fatfs itself — which grows the template.
  auto fs_first = visor.Invoke("upgrade-fs", asbase::Json{});
  ASSERT_TRUE(fs_first.ok()) << fs_first.status().ToString();
  EXPECT_TRUE(fs_first->clone_start);
  EXPECT_GT(fs_first->module_load_nanos, 0);
  EXPECT_EQ(CounterValue("alloy_visor_snapshot_creates_total", "upgrade-fs"),
            creates0 + 1);

  for (int i = 0; i < 2; ++i) {
    auto later = visor.Invoke("upgrade-fs", asbase::Json{});
    ASSERT_TRUE(later.ok()) << later.status().ToString();
    EXPECT_TRUE(later->clone_start);
    EXPECT_EQ(later->module_load_nanos, 0)
        << "the upgraded template already holds fdtab and fatfs";
  }
}

}  // namespace
}  // namespace alloy
