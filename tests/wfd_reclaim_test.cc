// Reclaim tests: a WFD's memory is one reservation (asalloc::Reservation)
// that holds the WFD's own objects, its disk chunks and its heap, so
// destroying a WFD gives back everything it allocated:
//   - clone-boot, write a 4 KiB file, destroy, 1,000 times over: the malloc
//     heap ends where it started and VmRSS stays flat;
//   - a live clone maps its reservation and nothing else, and holds nothing
//     on the malloc heap.
// The malloc, VmRSS and maps-line bounds are skipped under sanitizers,
// whose allocators, shadow memory and mappings they would measure; the
// cycles and the address-space check still run.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/asstd/asstd.h"
#include "src/core/wfd.h"

namespace alloy {
namespace {

WfdOptions SmallWfd() {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

// The pristine template of SmallWfd's geometry, with fatfs loaded.
std::shared_ptr<const WfdSnapshot> FatTemplate() {
  auto wfd = Wfd::Create(SmallWfd());
  if (!wfd.ok()) {
    return nullptr;
  }
  AsStd as(wfd->get());
  const std::vector<uint8_t> byte(1, 'x');
  if (!as.WriteWholeFile("/boot.bin", byte).ok()) {
    return nullptr;
  }
  auto snapshot = (*wfd)->CaptureSnapshot();
  return snapshot.ok() ? *snapshot : nullptr;
}

// A clone that wrote a 4 KiB file, as a zipf_tenants request does.
std::unique_ptr<Wfd> WritingClone(
    const std::shared_ptr<const WfdSnapshot>& snapshot) {
  auto clone = Wfd::CloneFromSnapshot(SmallWfd(), snapshot);
  if (!clone.ok()) {
    ADD_FAILURE() << clone.status().ToString();
    return nullptr;
  }
  AsStd as(clone->get());
  const std::vector<uint8_t> page(4096, 0x5A);
  const asbase::Status written = as.WriteWholeFile("/tenant.bin", page);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return std::move(*clone);
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

// This process's anonymous mappings, from /proc/self/maps: the lines and
// the address space they cover. Lines with a path are left out: files, and
// [heap] and [stack], whose sizes move with brk and the call depth.
struct Mappings {
  size_t lines = 0;
  size_t bytes = 0;
};

Mappings AnonymousMappings() {
  std::ifstream maps("/proc/self/maps");
  Mappings out;
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream fields(line);
    std::string range, perms, offset, device, path;
    uint64_t inode = 0;
    fields >> range >> perms >> offset >> device >> inode >> path;
    if (inode != 0 || !path.empty()) {
      continue;
    }
    const size_t dash = range.find('-');
    const uint64_t begin = std::stoull(range.substr(0, dash), nullptr, 16);
    const uint64_t end = std::stoull(range.substr(dash + 1), nullptr, 16);
    ++out.lines;
    out.bytes += end - begin;
  }
  return out;
}

TEST(WfdReclaimTest, ThousandDestroyedClonesLeaveNoHeapBehind) {
  const std::shared_ptr<const WfdSnapshot> snapshot = FatTemplate();
  ASSERT_NE(snapshot, nullptr);
  // First uses (metric series, the volume's I/O counters) are paid here.
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(WritingClone(snapshot), nullptr);
  }
  const size_t heap_before = mallinfo2().uordblks;
  const int64_t rss_before = VmRssKib();
  ASSERT_GT(rss_before, 0) << "cannot read VmRSS from /proc/self/status";
  for (int i = 0; i < 1000; ++i) {
    std::unique_ptr<Wfd> clone = WritingClone(snapshot);
    ASSERT_NE(clone, nullptr);
    ASSERT_EQ(clone->libos().ResidentDiskBytes(), 4096u);
  }
  const int64_t heap_delta =
      static_cast<int64_t>(mallinfo2().uordblks) -
      static_cast<int64_t>(heap_before);
  const int64_t rss_growth_kib = VmRssKib() - rss_before;
#ifndef ALLOY_SANITIZED
  // When its LibOS state was malloc'd, each destroyed clone left ~3.4 KiB
  // of holes between longer-lived allocations.
  EXPECT_LE(std::abs(heap_delta), 1024)
      << "1,000 destroyed clones moved the malloc heap by " << heap_delta
      << " B";
  EXPECT_LT(rss_growth_kib, 256)
      << "1,000 destroyed clones left " << rss_growth_kib << " KiB resident";
#endif
  std::printf("[ reclaim  ] 1000 clones: malloc heap %+lld B, VmRSS %+lld KiB\n",
              static_cast<long long>(heap_delta),
              static_cast<long long>(rss_growth_kib));
}

// Each live clone adds exactly its reservation to the address space, and
// nothing to the malloc heap. The kernel merges adjacent anonymous mappings
// with the same flags into one /proc/self/maps line, so the lines added are
// at most one per clone; the bytes added are exact.
TEST(WfdReclaimTest, EachLiveCloneIsOneMapping) {
  const std::shared_ptr<const WfdSnapshot> snapshot = FatTemplate();
  ASSERT_NE(snapshot, nullptr);
  constexpr size_t kClones = 100;
  std::vector<std::unique_ptr<Wfd>> clones;
  clones.reserve(kClones);
  // No warm-up round: nothing outside a clone's reservation grows with the
  // number of live WFDs (the MPK telemetry links its runtimes in place).
  const Mappings before = AnonymousMappings();
  [[maybe_unused]] const size_t heap_before = mallinfo2().uordblks;
  size_t reserved = 0;
  for (size_t i = 0; i < kClones; ++i) {
    clones.push_back(WritingClone(snapshot));
    ASSERT_NE(clones.back(), nullptr);
    reserved += clones.back()->reservation().bytes();
  }
#ifndef ALLOY_SANITIZED
  const int64_t heap_delta = static_cast<int64_t>(mallinfo2().uordblks) -
                             static_cast<int64_t>(heap_before);
  EXPECT_LT(std::abs(heap_delta), 1024)
      << kClones << " live clones hold " << heap_delta << " B of malloc heap";
#endif
  const Mappings live = AnonymousMappings();
  EXPECT_EQ(live.bytes - before.bytes, reserved)
      << "the clones mapped something besides their reservations";
  clones.clear();
  const Mappings after = AnonymousMappings();
  EXPECT_EQ(after.bytes, before.bytes);
#ifndef ALLOY_SANITIZED
  // ASan's own mappings split and merge around the reservations.
  EXPECT_GE(live.lines, before.lines + 1);
  EXPECT_LE(live.lines, before.lines + kClones);
  EXPECT_EQ(after.lines, before.lines);
#endif
}

}  // namespace
}  // namespace alloy
