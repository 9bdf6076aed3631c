// Resident-memory regression test for on-demand module loading. It is a
// binary of its own so that the first module load of the process is the one
// measured: a module load must leave nothing module-sized resident behind it,
// neither a process-lifetime image nor a heap temporary that raises malloc's
// trim threshold.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/core/asstd/asstd.h"
#include "src/core/wfd.h"

namespace alloy {
namespace {

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

TEST(LibosDensityTest, ModuleLoadsLeaveNothingModuleSizedResident) {
  WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;  // 8 MiB disk
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  const std::string text = "x";
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());

  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  for (int i = 0; i < 4; ++i) {
    auto wfd = Wfd::Create(options);
    ASSERT_TRUE(wfd.ok()) << wfd.status().ToString();
    AsStd as(wfd->get());
    // The first file write loads fatfs (3 MiB modelled image) and fdtab.
    ASSERT_TRUE(as.WriteWholeFile("/density.txt", bytes).ok());
    ASSERT_TRUE((*wfd)->libos().IsLoaded(ModuleKind::kFatfs));
  }
  const int64_t growth_kib = VmRssKib() - before;
  EXPECT_LT(growth_kib, 1024)
      << "4 WFDs that each loaded fatfs + fdtab and were destroyed left "
      << growth_kib << " KiB resident";
}

}  // namespace
}  // namespace alloy
