// First-fit free-list heap allocator with address-ordered coalescing.
//
// C++ port of the `linked_list_allocator` crate the Rust implementation uses
// as the WFD heap (§7.1). Each WFD owns one instance over its heap arena;
// AsBuffer allocations and LibOS-internal allocations come from here, which is
// what makes "easy recovery by heap units if functions crash" possible — the
// whole heap is dropped with the WFD.
//
// Not thread-safe by itself; `mm` wraps it with the WFD heap lock.

#ifndef SRC_ALLOC_LINKED_LIST_ALLOCATOR_H_
#define SRC_ALLOC_LINKED_LIST_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>

namespace asalloc {

class LinkedListAllocator {
 public:
  LinkedListAllocator() = default;

  LinkedListAllocator(const LinkedListAllocator&) = delete;
  LinkedListAllocator& operator=(const LinkedListAllocator&) = delete;

  // Takes over (but does not own) [base, base + size). base must be 16-byte
  // aligned and size a multiple of 16 and >= kMinBlock.
  void Init(void* base, size_t size);

  // Returns nullptr when no block fits. align must be a power of two;
  // alignments below 16 are rounded up to 16.
  void* Allocate(size_t size, size_t align = 16);

  // ptr must be a live pointer returned by Allocate(). Coalesces with
  // adjacent free blocks.
  void Deallocate(void* ptr);

  // Drops every allocation and returns the heap to one free block. The
  // pages the dropped blocks touched stay resident until ReleaseFreePages.
  void Reset();

  // Hands every whole page inside a free block below the high-water mark
  // back to the kernel (madvise(MADV_DONTNEED): it refaults as zeros), then
  // lowers the mark to the end of the highest live block. Block headers and
  // free-list nodes are never touched. Returns the bytes released; 0 means
  // no syscall was made, which is always the case when no block was handed
  // out or returned since the last release.
  size_t ReleaseFreePages();

  // Bytes from the heap base that may hold touched pages: up to the
  // high-water mark plus the free-list node that starts there. A residency
  // scan can stop here.
  size_t TouchedBytes() const;

  struct Stats {
    size_t heap_bytes = 0;
    size_t used_bytes = 0;   // includes per-block header overhead
    size_t free_bytes = 0;
    size_t live_allocations = 0;
    size_t total_allocations = 0;
    size_t total_frees = 0;
    size_t largest_free_block = 0;  // payload capacity of the biggest block
  };
  Stats stats() const;

  bool initialized() const { return base_ != 0; }

  // Validates free-list invariants (address order, in-bounds, no adjacency).
  // Used by tests; returns false on corruption.
  bool CheckInvariants() const;

  static constexpr size_t kAlign = 16;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kMinBlock = 32;  // header + minimal payload

 private:
  // Every block (free or used) starts with a Header. Free blocks additionally
  // store the free-list link in the first payload word.
  struct Header {
    uint64_t size;   // whole block including header
    uint64_t magic;  // kUsedMagic / kFreeMagic, catches double free
  };
  struct FreeNode {
    Header header;
    FreeNode* next;
  };

  static constexpr uint64_t kUsedMagic = 0xA110C8ED'0000F00DULL;
  static constexpr uint64_t kFreeMagic = 0xF4EEB10C'0000BEEFULL;

  static Header* HeaderOf(void* payload) {
    return reinterpret_cast<Header*>(static_cast<char*>(payload) -
                                     kHeaderSize);
  }

  uintptr_t base_ = 0;
  size_t size_ = 0;
  FreeNode* free_list_ = nullptr;  // address-ordered
  Stats stats_;
  // High-water mark, as an offset from base_: the end of the highest block
  // handed out, lowered by ReleaseFreePages to the highest live block's end.
  size_t high_water_ = 0;
  bool changed_since_release_ = false;
};

}  // namespace asalloc

#endif  // SRC_ALLOC_LINKED_LIST_ALLOCATOR_H_
