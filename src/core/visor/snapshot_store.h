// Clone templates keyed by WFD geometry (DESIGN.md §14).
//
// A SnapshotStore holds one pristine WfdSnapshot per WFD geometry
// {heap_bytes, disk_blocks, on_demand}. Every workflow whose WFDs share a
// geometry shares the template, so a host of identical tenants pays one full
// boot, not one per tenant. An AsVisorRouter owns one store shared by all of
// its shards (those ScaleTo adds included); a standalone AsVisor owns its
// own. No template outlives its store's owner.
//
// A key's template only grows: after a successful run, a WFD that paid for
// (really loaded) a module the template lacks publishes the union. Every
// module in a template was therefore loaded by some WFD of that geometry,
// and a clone loads on demand whatever its workflow needs beyond it.

#ifndef SRC_CORE_VISOR_SNAPSHOT_STORE_H_
#define SRC_CORE_VISOR_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/core/wfd.h"

namespace alloy {

class SnapshotStore {
 public:
  // One geometry's template.
  class Slot {
   public:
    explicit Slot(size_t max_image_bytes) : max_image_bytes_(max_image_bytes) {}

    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    // The current template, or null before the first publish (or after an
    // invalidation).
    std::shared_ptr<const WfdSnapshot> Get() const;

    // Call after a successful run of `wfd`. When the WFD paid for a module
    // the template lacks, adds it (and, for fatfs, the WFD's pristine disk)
    // and returns true. One atomic load when it did not, so every
    // invocation can call it. A capture refused for its size stops the
    // slot from trying again until the next Invalidate.
    bool Offer(Wfd& wfd);

    // Drops the template (a WFD failed to reset). Returns whether one was
    // present.
    bool Invalidate();

   private:
    const size_t max_image_bytes_;
    mutable std::mutex mutex_;
    std::shared_ptr<const WfdSnapshot> snapshot_;  // guarded by mutex_
    // Module bitmask (1 << kind) of snapshot_; every bit once a capture was
    // refused, so Offer's fast path declines.
    std::atomic<uint32_t> modules_{0};
  };

  // Reads ALLOY_SNAPSHOT_MAX_BYTES (0 = no cap), once.
  SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // The slot for `options`' geometry; null when the WFD cannot clone-boot
  // (ramfs, external disk).
  std::shared_ptr<Slot> SlotFor(const WfdOptions& options);

 private:
  const size_t max_image_bytes_;
  std::mutex mutex_;
  std::map<std::tuple<size_t, uint64_t, bool>, std::shared_ptr<Slot>>
      slots_;  // guarded by mutex_
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_SNAPSHOT_STORE_H_
