// A WFD's memory as one mapping (DESIGN.md §14).
//
// Everything a WFD owns lives in one anonymous MAP_NORESERVE mapping, laid
// out as [system | disk | heap]:
//   system  this control block, then a PageResource that serves the WFD's
//           own objects: the Wfd, its LibOS and modules, the FAT volume and
//           its cached sectors, the MemDisk and its bitmap, the MPK runtime
//           and the trampoline;
//   disk    the private 4 KiB chunks of the WFD's MemDisk;
//   heap    the WFD heap (the mm module's arena).
// Pages commit only when touched. The disk range sits next to the system
// pages because a clone's first file writes land in the disk's first
// chunks, so both are mapped by the same page-table page. Destroying the
// WFD returns all of it in one munmap: nothing the WFD allocated stays
// behind as a hole in the malloc heap, where the long-lived allocations
// around it would keep its page resident.

#ifndef SRC_ALLOC_RESERVATION_H_
#define SRC_ALLOC_RESERVATION_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <mutex>

#include "src/alloc/linked_list_allocator.h"

namespace asalloc {

// A std::pmr::memory_resource over a LinkedListAllocator on pages someone
// else owns, guarded by a mutex: the instances of a fan-out stage share
// their WFD's system pages. When those are full it falls back to
// `upstream`, whose blocks it tells apart by address when they are freed.
class PageResource final : public std::pmr::memory_resource {
 public:
  PageResource(void* base, size_t size,
               std::pmr::memory_resource* upstream =
                   std::pmr::get_default_resource());

  // LinkedListAllocator::TouchedBytes, under the lock.
  size_t TouchedBytes() const;
  // LinkedListAllocator::ReleaseFreePages, once the allocator's touched
  // bytes have grown by more than a page since the last release (0: no
  // syscall). A WFD's per-invocation churn stays within a page; releasing
  // it would fault the same page in and out on every invocation.
  size_t ReleaseFreePages();

 private:
  void* do_allocate(size_t bytes, size_t align) override;
  void do_deallocate(void* p, size_t bytes, size_t align) override;
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  const uintptr_t begin_;
  const uintptr_t end_;
  std::pmr::memory_resource* const upstream_;
  mutable std::mutex mutex_;
  LinkedListAllocator allocator_;
  size_t touched_at_release_ = 0;
};

class Reservation {
 public:
  // Maps one reservation, each range rounded up to whole pages; nullptr
  // when the mmap fails. The control block lives in its first page.
  static Reservation* Map(size_t system_bytes, size_t disk_bytes,
                          size_t heap_bytes);
  // Destroys the control block and unmaps the whole reservation. Every
  // object placed in system() must be gone.
  static void Unmap(Reservation* reservation);

  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;

  std::pmr::memory_resource* system() { return &system_; }
  uint8_t* disk() const { return base_ + system_bytes_; }
  size_t disk_bytes() const { return disk_bytes_; }
  uint8_t* heap() const { return disk() + disk_bytes_; }
  size_t heap_bytes() const { return heap_bytes_; }
  const void* data() const { return base_; }
  size_t bytes() const { return system_bytes_ + disk_bytes_ + heap_bytes_; }

  // Resident system pages (mincore), from the control block up to the end
  // of what the system allocator has touched.
  size_t ResidentSystemBytes() const;
  // Hands the system allocator's free whole pages back to the kernel
  // (PageResource::ReleaseFreePages).
  size_t ReleaseFreeSystemPages() { return system_.ReleaseFreePages(); }

 private:
  Reservation(uint8_t* base, size_t system_bytes, size_t disk_bytes,
              size_t heap_bytes);
  ~Reservation() = default;

  // Where the system allocator's pages start: just past this block.
  static size_t SystemOffset();

  uint8_t* const base_;
  const size_t system_bytes_;
  const size_t disk_bytes_;
  const size_t heap_bytes_;
  PageResource system_;
};

}  // namespace asalloc

#endif  // SRC_ALLOC_RESERVATION_H_
