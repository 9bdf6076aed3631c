#include "src/core/visor/snapshot_store.h"

#include <algorithm>

#include "src/common/env.h"
#include "src/common/logging.h"

namespace alloy {
namespace {

uint32_t Bit(ModuleKind kind) { return 1u << static_cast<unsigned>(kind); }

}  // namespace

std::shared_ptr<const WfdSnapshot> SnapshotStore::Slot::Get() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

bool SnapshotStore::Slot::Offer(Wfd& wfd) {
  const uint32_t paid = wfd.libos().PaidModules();
  if ((paid & ~modules_.load(std::memory_order_acquire)) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t have = modules_.load(std::memory_order_relaxed);
  if ((paid & ~have) == 0) {
    return false;  // a concurrent run published these modules first
  }
  auto captured = wfd.CaptureSnapshot(max_image_bytes_);
  if (!captured.ok()) {
    AS_LOG(kInfo) << "snapshot capture declined ("
                  << captured.status().ToString()
                  << "); this geometry keeps full-boot cold starts";
    modules_.store(~0u, std::memory_order_release);
    return false;
  }
  // The union of the current template and what this WFD paid for. A
  // module the WFD only inherited from an older template stays out, so a
  // template never holds a module no WFD of this line loaded.
  auto merged = std::make_shared<WfdSnapshot>(
      snapshot_ != nullptr ? *snapshot_ : **captured);
  if (snapshot_ == nullptr) {
    merged->modules.clear();
    merged->disk = nullptr;
    merged->fat = {};
    merged->image_bytes = 0;
  }
  for (ModuleKind kind : (*captured)->modules) {
    if ((paid & ~have & Bit(kind)) != 0) {
      merged->modules.push_back(kind);
    }
  }
  std::sort(merged->modules.begin(), merged->modules.end());
  if ((paid & ~have & Bit(ModuleKind::kFatfs)) != 0) {
    merged->disk = (*captured)->disk;
    merged->fat = (*captured)->fat;
    merged->image_bytes = (*captured)->image_bytes;
  }
  snapshot_ = std::move(merged);
  modules_.store(have | paid, std::memory_order_release);
  return true;
}

bool SnapshotStore::Slot::Invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool had = snapshot_ != nullptr;
  snapshot_ = nullptr;
  modules_.store(0, std::memory_order_release);
  return had;
}

SnapshotStore::SnapshotStore()
    : max_image_bytes_(static_cast<size_t>(
          asbase::EnvInt64("ALLOY_SNAPSHOT_MAX_BYTES", 0))) {}

std::shared_ptr<SnapshotStore::Slot> SnapshotStore::SlotFor(
    const WfdOptions& options) {
  if (options.use_ramfs || options.disk != nullptr) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<Slot>& slot = slots_[{options.heap_bytes,
                                        options.disk_blocks,
                                        options.on_demand}];
  if (slot == nullptr) {
    slot = std::make_shared<Slot>(max_image_bytes_);
  }
  return slot;
}

}  // namespace alloy
