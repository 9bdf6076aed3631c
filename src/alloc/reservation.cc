#include "src/alloc/reservation.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "src/alloc/arena.h"

namespace asalloc {

PageResource::PageResource(void* base, size_t size,
                           std::pmr::memory_resource* upstream)
    : begin_(reinterpret_cast<uintptr_t>(base)),
      end_(begin_ + size),
      upstream_(upstream) {
  allocator_.Init(base, size);
}

size_t PageResource::TouchedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocator_.TouchedBytes();
}

size_t PageResource::ReleaseFreePages() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (allocator_.TouchedBytes() <= touched_at_release_ + Arena::PageSize()) {
    return 0;
  }
  const size_t released = allocator_.ReleaseFreePages();
  touched_at_release_ = allocator_.TouchedBytes();
  return released;
}

void* PageResource::do_allocate(size_t bytes, size_t align) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (void* block = allocator_.Allocate(bytes, align)) {
      return block;
    }
  }
  return upstream_->allocate(bytes, align);
}

void PageResource::do_deallocate(void* p, size_t bytes, size_t align) {
  const uintptr_t addr = reinterpret_cast<uintptr_t>(p);
  if (addr < begin_ || addr >= end_) {
    upstream_->deallocate(p, bytes, align);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  allocator_.Deallocate(p);
}

size_t Reservation::SystemOffset() {
  constexpr size_t kAlign = LinkedListAllocator::kAlign;
  return (sizeof(Reservation) + kAlign - 1) / kAlign * kAlign;
}

Reservation::Reservation(uint8_t* base, size_t system_bytes,
                         size_t disk_bytes, size_t heap_bytes)
    : base_(base),
      system_bytes_(system_bytes),
      disk_bytes_(disk_bytes),
      heap_bytes_(heap_bytes),
      system_(base + SystemOffset(), system_bytes - SystemOffset()) {}

Reservation* Reservation::Map(size_t system_bytes, size_t disk_bytes,
                              size_t heap_bytes) {
  const size_t page = Arena::PageSize();
  auto pages = [page](size_t bytes) { return (bytes + page - 1) / page * page; };
  system_bytes = pages(
      std::max(system_bytes, SystemOffset() + LinkedListAllocator::kMinBlock));
  disk_bytes = pages(disk_bytes);
  heap_bytes = pages(heap_bytes);
  void* mapped = ::mmap(nullptr, system_bytes + disk_bytes + heap_bytes,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapped == MAP_FAILED) {
    return nullptr;
  }
  return new (mapped) Reservation(static_cast<uint8_t*>(mapped), system_bytes,
                                  disk_bytes, heap_bytes);
}

void Reservation::Unmap(Reservation* reservation) {
  if (reservation == nullptr) {
    return;
  }
  void* base = reservation->base_;
  const size_t bytes = reservation->bytes();
  reservation->~Reservation();
  ::munmap(base, bytes);
}

size_t Reservation::ResidentSystemBytes() const {
  // The first page holds this control block, so it is always resident: a
  // WFD whose objects fit beside it (a parked clone's do) costs no mincore.
  const size_t page = Arena::PageSize();
  const size_t touched = SystemOffset() + system_.TouchedBytes();
  return touched <= page ? page : ResidentBytes(base_, touched);
}

}  // namespace asalloc
