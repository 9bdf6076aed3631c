// Unit + property tests for the WFD heap allocator, arena and slot registry.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory_resource>
#include <vector>

#include "src/alloc/arena.h"
#include "src/alloc/buffer_pool.h"
#include "src/alloc/linked_list_allocator.h"
#include "src/alloc/reservation.h"
#include "src/alloc/slot_registry.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace asalloc {
namespace {

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : arena_(kHeapSize) {
    heap_.Init(arena_.data(), arena_.size());
  }

  static constexpr size_t kHeapSize = 1 << 20;  // 1 MiB
  Arena arena_;
  LinkedListAllocator heap_;
};

TEST_F(AllocatorTest, FreshHeapIsOneFreeBlock) {
  auto stats = heap_.stats();
  EXPECT_EQ(stats.heap_bytes, arena_.size());
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_EQ(stats.free_bytes, arena_.size());
  EXPECT_EQ(stats.largest_free_block,
            arena_.size() - LinkedListAllocator::kHeaderSize);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(AllocatorTest, AllocateGivesWritableAlignedMemory) {
  void* p = heap_.Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
  std::memset(p, 0xAB, 100);
  heap_.Deallocate(p);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(AllocatorTest, DistinctAllocationsDoNotOverlap) {
  char* a = static_cast<char*>(heap_.Allocate(64));
  char* b = static_cast<char*>(heap_.Allocate(64));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a + 64 <= b || b + 64 <= a);
  std::memset(a, 1, 64);
  std::memset(b, 2, 64);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 2);
}

TEST_F(AllocatorTest, HonorsLargeAlignment) {
  for (size_t align : {32u, 64u, 256u, 4096u}) {
    void* p = heap_.Allocate(24, align);
    ASSERT_NE(p, nullptr) << align;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
    EXPECT_TRUE(heap_.CheckInvariants()) << align;
  }
}

TEST_F(AllocatorTest, FreeingEverythingCoalescesToOneBlock) {
  std::vector<void*> ptrs;
  for (int i = 0; i < 64; ++i) {
    ptrs.push_back(heap_.Allocate(100 + i * 7));
  }
  // Free in an interleaved order to exercise both coalesce directions.
  for (size_t i = 0; i < ptrs.size(); i += 2) {
    heap_.Deallocate(ptrs[i]);
  }
  for (size_t i = 1; i < ptrs.size(); i += 2) {
    heap_.Deallocate(ptrs[i]);
  }
  auto stats = heap_.stats();
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_EQ(stats.free_bytes, arena_.size());
  EXPECT_EQ(stats.largest_free_block,
            arena_.size() - LinkedListAllocator::kHeaderSize);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(AllocatorTest, ExhaustionReturnsNull) {
  void* big = heap_.Allocate(kHeapSize);  // header doesn't fit
  EXPECT_EQ(big, nullptr);
  void* almost = heap_.Allocate(kHeapSize - 64);
  EXPECT_NE(almost, nullptr);
  EXPECT_EQ(heap_.Allocate(4096), nullptr);
  heap_.Deallocate(almost);
  EXPECT_NE(heap_.Allocate(4096), nullptr);
}

TEST_F(AllocatorTest, ResetDropsAllAllocations) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(heap_.Allocate(1000), nullptr);
  }
  heap_.Reset();
  auto stats = heap_.stats();
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_EQ(stats.live_allocations, 0u);
  EXPECT_EQ(stats.total_allocations, 10u);  // history survives Reset
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(AllocatorTest, StatsTrackLiveness) {
  void* a = heap_.Allocate(128);
  void* b = heap_.Allocate(256);
  auto stats = heap_.stats();
  EXPECT_EQ(stats.live_allocations, 2u);
  EXPECT_GE(stats.used_bytes, 128u + 256u);
  heap_.Deallocate(a);
  heap_.Deallocate(b);
  stats = heap_.stats();
  EXPECT_EQ(stats.live_allocations, 0u);
  EXPECT_EQ(stats.total_frees, 2u);
}

// True when every page of [begin, end) is resident (or, with `want`
// false, when none is).
bool PagesResident(const void* begin, const void* end, bool want) {
  const size_t page = Arena::PageSize();
  const uintptr_t first = reinterpret_cast<uintptr_t>(begin) / page * page;
  const uintptr_t last = reinterpret_cast<uintptr_t>(end);
  const size_t pages = (last - first + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  if (mincore(reinterpret_cast<void*>(first), pages * page, vec.data()) != 0) {
    return false;
  }
  return std::all_of(vec.begin(), vec.end(), [want](unsigned char byte) {
    return ((byte & 1) != 0) == want;
  });
}

TEST_F(AllocatorTest, ReleaseFreePagesDropsFreeInteriorAndKeepsLiveBytes) {
  const size_t page = Arena::PageSize();
  struct Block {
    uint8_t* ptr;
    size_t size;
  };
  // Big blocks separated by small ones, so freeing every other big block
  // leaves free blocks that cannot coalesce with each other.
  std::vector<Block> big;
  std::vector<Block> small;
  for (size_t i = 0; i < 8; ++i) {
    const size_t size = 3 * page + page / 2 + i * 48;
    big.push_back({static_cast<uint8_t*>(heap_.Allocate(size)), size});
    small.push_back({static_cast<uint8_t*>(heap_.Allocate(40)), 40});
    ASSERT_NE(big.back().ptr, nullptr);
    ASSERT_NE(small.back().ptr, nullptr);
    std::memset(big.back().ptr, static_cast<int>(i + 1), size);
    std::memset(small.back().ptr, static_cast<int>(0x80 + i), 40);
  }
  for (size_t i = 1; i < big.size(); i += 2) {
    heap_.Deallocate(big[i].ptr);
  }
  const size_t released = heap_.ReleaseFreePages();
  EXPECT_GE(released, 4 * 2 * page);
  EXPECT_TRUE(heap_.CheckInvariants());

  for (size_t i = 0; i < big.size(); ++i) {
    const Block& block = big[i];
    if (i % 2 == 0) {
      EXPECT_TRUE(std::all_of(block.ptr, block.ptr + block.size,
                              [i](uint8_t b) { return b == i + 1; }))
          << "live block " << i << " lost its bytes";
      EXPECT_TRUE(PagesResident(block.ptr, block.ptr + block.size, true));
    } else {
      // Whole pages past the free-list node (header + next pointer, which
      // ends inside the first payload word) are gone.
      const uintptr_t page_mask = ~static_cast<uintptr_t>(page - 1);
      const auto* first = reinterpret_cast<uint8_t*>(
          (reinterpret_cast<uintptr_t>(block.ptr) + 16 + page - 1) &
          page_mask);
      const auto* end = reinterpret_cast<uint8_t*>(
          reinterpret_cast<uintptr_t>(block.ptr + block.size) & page_mask);
      ASSERT_LT(first, end);
      EXPECT_TRUE(PagesResident(first, end, false))
          << "free block " << i << " kept its interior pages";
    }
  }
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_TRUE(std::all_of(small[i].ptr, small[i].ptr + 40,
                            [i](uint8_t b) { return b == 0x80 + i; }));
  }

  // Every header is intact: the survivors free cleanly and coalesce back
  // into one block, and the released pages are usable again.
  void* reused = heap_.Allocate(2 * page);
  ASSERT_NE(reused, nullptr);
  std::memset(reused, 0x5a, 2 * page);
  heap_.Deallocate(reused);
  for (size_t i = 0; i < big.size(); i += 2) {
    heap_.Deallocate(big[i].ptr);
  }
  for (const Block& block : small) {
    heap_.Deallocate(block.ptr);
  }
  EXPECT_TRUE(heap_.CheckInvariants());
  EXPECT_EQ(heap_.stats().free_bytes, arena_.size());
}

TEST_F(AllocatorTest, ReleaseFreePagesMakesNoSyscallUntilTheMarkMoves) {
  const size_t page = Arena::PageSize();
  // A heap nothing was handed out from: no syscall, and nothing to scan
  // past the first free-list node.
  EXPECT_EQ(heap_.ReleaseFreePages(), 0u);
  EXPECT_LT(heap_.TouchedBytes(), page);

  void* block = heap_.Allocate(8 * page);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0xee, 8 * page);
  EXPECT_GT(heap_.TouchedBytes(), 8 * page);
  heap_.Deallocate(block);
  EXPECT_EQ(heap_.ReleaseFreePages(), 8 * page);
  // The mark fell back to the base: only the page holding the free-list
  // node stays resident, and a second release finds nothing to do.
  EXPECT_LT(heap_.TouchedBytes(), page);
  EXPECT_EQ(arena_.ResidentBytes(), page);
  EXPECT_EQ(heap_.ReleaseFreePages(), 0u);

  // A hole between live blocks is released once; with nothing handed out
  // or returned since, the next release skips it without a syscall.
  void* low = heap_.Allocate(64);
  void* hole = heap_.Allocate(4 * page);
  void* high = heap_.Allocate(64);
  ASSERT_NE(high, nullptr);
  std::memset(hole, 0x11, 4 * page);
  heap_.Deallocate(hole);
  EXPECT_GE(heap_.ReleaseFreePages(), 3 * page);
  EXPECT_EQ(heap_.ReleaseFreePages(), 0u);
  heap_.Deallocate(low);
  heap_.Deallocate(high);

  // Reset() drops allocations without moving the mark down.
  ASSERT_NE(heap_.Allocate(3 * page), nullptr);
  heap_.Reset();
  EXPECT_GT(heap_.TouchedBytes(), 3 * page);
  EXPECT_GT(heap_.ReleaseFreePages(), 0u);
  EXPECT_LT(heap_.TouchedBytes(), page);
}

using AllocatorDeathTest = AllocatorTest;

TEST_F(AllocatorDeathTest, DoubleFreeAborts) {
  void* p = heap_.Allocate(64);
  heap_.Deallocate(p);
  EXPECT_DEATH(heap_.Deallocate(p), "bad free");
}

// Property test: a random interleaving of allocs and frees never corrupts the
// free list, never hands out overlapping memory, and preserves block
// contents.
class AllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorPropertyTest, RandomOpsPreserveInvariants) {
  Arena arena(1 << 20);
  LinkedListAllocator heap;
  heap.Init(arena.data(), arena.size());
  asbase::Rng rng(GetParam());

  struct Live {
    char* ptr;
    size_t size;
    uint8_t fill;
  };
  std::vector<Live> live;

  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.Below(100) < 55;
    if (do_alloc) {
      size_t size = 1 + rng.Below(2000);
      size_t align = size_t{16} << rng.Below(5);  // 16..256
      char* p = static_cast<char*>(heap.Allocate(size, align));
      if (p == nullptr) {
        continue;  // heap full; fine
      }
      ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
      // No overlap with any live allocation.
      for (const auto& other : live) {
        ASSERT_TRUE(p + size <= other.ptr || other.ptr + other.size <= p);
      }
      uint8_t fill = static_cast<uint8_t>(rng.Next());
      std::memset(p, fill, size);
      live.push_back({p, size, fill});
    } else {
      size_t index = rng.Below(live.size());
      Live victim = live[index];
      // Contents survived neighbours' churn.
      for (size_t i = 0; i < victim.size; ++i) {
        ASSERT_EQ(static_cast<uint8_t>(victim.ptr[i]), victim.fill);
      }
      heap.Deallocate(victim.ptr);
      live[index] = live.back();
      live.pop_back();
    }
    if (step % 256 == 0) {
      // Releasing free pages must leave every live block (checked on its
      // free above) and every free-list node alone.
      heap.ReleaseFreePages();
      ASSERT_TRUE(heap.CheckInvariants()) << "step " << step;
      for (const auto& entry : live) {
        ASSERT_LE(entry.ptr + entry.size,
                  static_cast<char*>(arena.data()) + heap.TouchedBytes());
      }
    }
  }
  for (const auto& entry : live) {
    heap.Deallocate(entry.ptr);
  }
  auto stats = heap.stats();
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_TRUE(heap.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(1, 7, 42, 1337, 0xA110C));

// ---------------------------------------------------------------- Arena

TEST(ArenaTest, MapsZeroedMemory) {
  Arena arena(10000);
  ASSERT_TRUE(arena.valid());
  EXPECT_GE(arena.size(), 10000u);
  EXPECT_EQ(arena.size() % Arena::PageSize(), 0u);
  auto* bytes = static_cast<unsigned char*>(arena.data());
  for (size_t i = 0; i < arena.size(); i += 4096) {
    EXPECT_EQ(bytes[i], 0u);
  }
}

TEST(ArenaTest, MoveTransfersOwnership) {
  Arena a(4096);
  void* data = a.data();
  Arena b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), data);
}

TEST(ArenaTest, ResidentBytesGrowsWithTouch) {
  Arena arena(64 * 4096);
  size_t before = arena.ResidentBytes();
  std::memset(arena.data(), 1, arena.size());
  size_t after = arena.ResidentBytes();
  EXPECT_GE(after, before);
  EXPECT_GE(after, arena.size() / 2);  // most pages now resident
}

TEST(ArenaTest, ResidentBytesScansOnlyThePrefix) {
  // More pages than one mincore batch, to cover the batch boundary.
  const size_t page = Arena::PageSize();
  Arena arena(1024 * page);
  auto* bytes = static_cast<uint8_t*>(arena.data());
  for (size_t index : {0u, 255u, 256u, 700u, 1023u}) {
    bytes[index * page] = 1;
  }
  EXPECT_EQ(arena.ResidentBytes(), 5 * page);
  EXPECT_EQ(arena.ResidentBytes(256 * page), 2 * page);
  EXPECT_EQ(arena.ResidentBytes(256 * page + 1), 3 * page);
  EXPECT_EQ(arena.ResidentBytes(0), 0u);
}

// ---------------------------------------------------------------- SlotRegistry

TEST(SlotRegistryTest, RegisterThenAcquireRemoves) {
  SlotRegistry registry;
  ASSERT_TRUE(registry.Register("Conference", {0x1000, 64, 99}).ok());
  EXPECT_EQ(registry.size(), 1u);

  auto got = registry.Acquire("Conference", 99);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->addr, 0x1000u);
  EXPECT_EQ(got->size, 64u);
  // Single-consumer: a second acquire fails.
  EXPECT_EQ(registry.Acquire("Conference", 99).status().code(),
            asbase::ErrorCode::kNotFound);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(SlotRegistryTest, FingerprintMismatchRejected) {
  SlotRegistry registry;
  ASSERT_TRUE(registry.Register("s", {0x2000, 16, 42}).ok());
  auto got = registry.Acquire("s", 43);
  EXPECT_EQ(got.status().code(), asbase::ErrorCode::kInvalidArgument);
  // The buffer stays registered after a rejected acquire.
  EXPECT_TRUE(registry.Peek("s").ok());
}

TEST(SlotRegistryTest, DuplicateRegisterRejected) {
  SlotRegistry registry;
  ASSERT_TRUE(registry.Register("s", {1, 1, 1}).ok());
  EXPECT_EQ(registry.Register("s", {2, 2, 2}).code(),
            asbase::ErrorCode::kAlreadyExists);
}

TEST(SlotRegistryTest, FanOutUsesDistinctSlots) {
  SlotRegistry registry;
  ASSERT_TRUE(registry.Register("out-0", {0x100, 8, 7}).ok());
  ASSERT_TRUE(registry.Register("out-1", {0x200, 8, 7}).ok());
  EXPECT_EQ(registry.Acquire("out-0", 7)->addr, 0x100u);
  EXPECT_EQ(registry.Acquire("out-1", 7)->addr, 0x200u);
}

TEST(SlotRegistryTest, RemoveAndClear) {
  SlotRegistry registry;
  ASSERT_TRUE(registry.Register("a", {1, 1, 1}).ok());
  ASSERT_TRUE(registry.Register("b", {2, 2, 2}).ok());
  EXPECT_TRUE(registry.Remove("a").ok());
  EXPECT_EQ(registry.Remove("a").code(), asbase::ErrorCode::kNotFound);
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(SlotRegistryTest, FingerprintNameIsStableAndDiscriminating) {
  EXPECT_EQ(FingerprintName("MyFuncData"), FingerprintName("MyFuncData"));
  EXPECT_NE(FingerprintName("MyFuncData"), FingerprintName("MyFuncDatb"));
  EXPECT_NE(FingerprintName(""), FingerprintName("x"));
}

// ------------------------------------------------------------ TX pins

TEST(SlotRegistryTest, PinForTxLifecycle) {
  SlotRegistry registry;
  EXPECT_FALSE(registry.IsPinnedForTx(0x3000));
  EXPECT_TRUE(registry.CheckReleasable(0x3000)) << "unpinned is releasable";

  auto pin = registry.PinForTx(0x3000, 64);
  ASSERT_NE(pin, nullptr);
  EXPECT_TRUE(registry.IsPinnedForTx(0x3000));
  EXPECT_EQ(registry.TxPinnedBuffers(), 1u);

  // Retransmit path: the same buffer can be pinned again (refcounted).
  auto pin2 = registry.PinForTx(0x3000, 64);
  EXPECT_EQ(registry.TxPinnedBuffers(), 1u) << "same buffer, one entry";
  pin.reset();
  EXPECT_TRUE(registry.IsPinnedForTx(0x3000)) << "second pin still live";
  pin2.reset();
  EXPECT_FALSE(registry.IsPinnedForTx(0x3000));
  EXPECT_EQ(registry.TxPinnedBuffers(), 0u);
  EXPECT_TRUE(registry.CheckReleasable(0x3000));
}

TEST(SlotRegistryTest, PinnedReleaseIsLoudlyVisible) {
  SlotRegistry::set_abort_on_pinned_release(false);
  SlotRegistry registry;
  auto pin = registry.PinForTx(0x4000, 128);
  // Freeing a buffer the netstack still references: not releasable, and the
  // violation counter must tick so it shows up on dashboards.
  asobs::Counter& violations = asobs::Registry::Global().GetCounter(
      "alloy_asbuffer_pinned_release_total");
  const uint64_t before = violations.value();
  EXPECT_FALSE(registry.CheckReleasable(0x4000));
  EXPECT_EQ(violations.value(), before + 1);
  pin.reset();
  EXPECT_TRUE(registry.CheckReleasable(0x4000));
  SlotRegistry::set_abort_on_pinned_release(true);
}

TEST(SlotRegistryTest, PinsOutliveTheRegistry) {
  // Connection teardown can release pins after the WFD (and its registry)
  // is gone; the handle must stay safe to drop.
  std::shared_ptr<const void> pin;
  {
    SlotRegistry registry;
    pin = registry.PinForTx(0x5000, 32);
  }
  pin.reset();  // must not touch freed registry state
}

// ---------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, TakeGivesDistinctWritableBlocks) {
  BufferPool pool(4096, 4);
  auto a = pool.Take();
  auto b = pool.Take();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  std::memset(a.get(), 0x11, pool.block_bytes());
  std::memset(b.get(), 0x22, pool.block_bytes());
  EXPECT_EQ(a.get()[0], 0x11);
  EXPECT_EQ(b.get()[0], 0x22);
}

TEST(BufferPoolTest, ReleasedBlocksAreRecycled) {
  BufferPool pool(4096, 4);
  auto block = pool.Take();
  uint8_t* raw = block.get();
  block.reset();
  EXPECT_EQ(pool.free_blocks(), 1u);
  auto again = pool.Take();
  EXPECT_EQ(again.get(), raw) << "freed block should be reused, not malloc'd";
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(BufferPoolTest, FreeListIsBounded) {
  BufferPool pool(4096, 2);
  std::vector<BufferPool::BlockRef> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.push_back(pool.Take());
  }
  blocks.clear();
  EXPECT_EQ(pool.free_blocks(), 2u) << "excess blocks go back to the OS";
}

TEST(BufferPoolTest, BlockRefsOutliveThePool) {
  // RX chunks handed to a reader may outlive the stack (and pool) that
  // produced them; the deleter must degrade to a plain free.
  BufferPool::BlockRef survivor;
  {
    BufferPool pool(4096, 4);
    survivor = pool.Take();
    std::memset(survivor.get(), 0x7E, 4096);
  }
  EXPECT_EQ(survivor.get()[4095], 0x7E);
  survivor.reset();  // must not touch the destroyed freelist
}

// A memory resource that counts what reaches it.
class CountingResource : public std::pmr::memory_resource {
 public:
  size_t live = 0;

 private:
  void* do_allocate(size_t bytes, size_t align) override {
    ++live;
    return std::pmr::new_delete_resource()->allocate(bytes, align);
  }
  void do_deallocate(void* p, size_t bytes, size_t align) override {
    --live;
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
  }
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }
};

TEST(PageResourceTest, ServesFromItsPagesThenFallsBackUpstream) {
  Arena pages(4096);
  CountingResource upstream;
  PageResource resource(pages.data(), pages.size(), &upstream);
  const auto in_pages = [&](const void* p) {
    return p >= pages.data() &&
           p < static_cast<const char*>(pages.data()) + pages.size();
  };
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(resource.allocate(240));
  }
  for (void* block : blocks) {
    EXPECT_TRUE(in_pages(block));
  }
  EXPECT_EQ(upstream.live, 0u);
  // Sixteen 256-byte blocks fill the page: the next one comes from
  // upstream, and each is freed where it came from.
  void* spilled = resource.allocate(240);
  EXPECT_FALSE(in_pages(spilled));
  EXPECT_EQ(upstream.live, 1u);
  resource.deallocate(spilled, 240);
  EXPECT_EQ(upstream.live, 0u);
  for (void* block : blocks) {
    resource.deallocate(block, 240);
  }
  EXPECT_TRUE(in_pages(resource.allocate(4000))) << "freed blocks coalesce";
}

// Pages go back once the touched region has grown by more than a page, not
// for churn within one: that would fault the same page in and out.
TEST(PageResourceTest, ReleasesGrowthNotChurn) {
  const size_t page = Arena::PageSize();
  Arena pages(16 * page);
  PageResource resource(pages.data(), pages.size());
  void* keep = resource.allocate(64);
  void* big = resource.allocate(4 * page);
  std::memset(big, 0x5A, 4 * page);
  resource.deallocate(big, 4 * page);
  EXPECT_GE(resource.ReleaseFreePages(), 3 * page);
  for (int i = 0; i < 4; ++i) {
    void* node = resource.allocate(page / 2);
    std::memset(node, 0x11, page / 2);
    resource.deallocate(node, page / 2);
    EXPECT_EQ(resource.ReleaseFreePages(), 0u) << "round " << i;
  }
  resource.deallocate(keep, 64);
}

TEST(ReservationTest, LaysOutSystemDiskAndHeapInOneMapping) {
  const size_t page = Arena::PageSize();
  Reservation* reservation = Reservation::Map(100, 3 * page + 1, 5 * page);
  ASSERT_NE(reservation, nullptr);
  const auto* base = static_cast<const uint8_t*>(reservation->data());
  EXPECT_EQ(reservation->disk(), base + page) << "system rounds up to a page";
  EXPECT_EQ(reservation->disk_bytes(), 4 * page);
  EXPECT_EQ(reservation->heap(), base + 5 * page);
  EXPECT_EQ(reservation->heap_bytes(), 5 * page);
  EXPECT_EQ(reservation->bytes(), 10 * page);
  // Nothing but the control block's page is touched yet.
  EXPECT_EQ(reservation->ResidentSystemBytes(), page);
  std::memset(reservation->disk(), 0xD1, reservation->disk_bytes());
  std::memset(reservation->heap(), 0xEA, reservation->heap_bytes());
  void* object = reservation->system()->allocate(64);
  EXPECT_GT(object, reservation->data());
  EXPECT_LT(object, static_cast<const void*>(reservation->disk()));
  reservation->system()->deallocate(object, 64);
  Reservation::Unmap(reservation);
}

}  // namespace
}  // namespace asalloc
