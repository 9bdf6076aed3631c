// Resident-memory regression test for an idle sharded visor. It is a binary
// of its own so that nothing else in the process has already paged in the
// memory it measures: a shard that has served no request must not hold its
// flight ring (ALLOY_FLIGHT_RING records of 152 B each) resident.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "src/core/visor/visor_router.h"

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

TEST(VisorDensityTest, IdleShardsHoldNoFlightRing) {
  // Warm up whatever one router pays once per process (the metrics
  // registry, its series), so the measured router pays only its own.
  {
    RouterOptions options;
    options.shards = 1;
    AsVisorRouter warmup(options);
  }
  RouterOptions options;
  options.shards = 4;
  const int64_t before = VmRssKib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  auto router = std::make_unique<AsVisorRouter>(options);
  const int64_t growth_kib = VmRssKib() - before;
  ASSERT_EQ(router->shard_count(), 4u);
  EXPECT_EQ(router->shard(0).flight().capacity(), 1024u);
  // Four zero-filled 1024-record rings would be 608 KiB.
  EXPECT_LT(growth_kib, 64) << "constructing 4 idle shards made " << growth_kib
                            << " KiB resident";
}

}  // namespace
}  // namespace alloy
