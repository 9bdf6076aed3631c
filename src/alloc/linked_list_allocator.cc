#include "src/alloc/linked_list_allocator.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/alloc/arena.h"
#include "src/common/logging.h"

namespace asalloc {
namespace {

uintptr_t AlignUp(uintptr_t value, size_t align) {
  return (value + align - 1) & ~(static_cast<uintptr_t>(align) - 1);
}

uintptr_t AlignDown(uintptr_t value, size_t align) {
  return value & ~(static_cast<uintptr_t>(align) - 1);
}

}  // namespace

void LinkedListAllocator::Init(void* base, size_t size) {
  uintptr_t addr = reinterpret_cast<uintptr_t>(base);
  AS_CHECK(addr % kAlign == 0) << "heap base must be 16-byte aligned";
  AS_CHECK(size % kAlign == 0 && size >= kMinBlock) << "bad heap size";
  base_ = addr;
  size_ = size;
  stats_ = Stats{};
  stats_.heap_bytes = size;
  stats_.free_bytes = size;
  free_list_ = reinterpret_cast<FreeNode*>(base);
  free_list_->header.size = size;
  free_list_->header.magic = kFreeMagic;
  free_list_->next = nullptr;
  high_water_ = 0;
  changed_since_release_ = false;
}

void* LinkedListAllocator::Allocate(size_t size, size_t align) {
  AS_CHECK(initialized());
  if (align < kAlign) {
    align = kAlign;
  }
  AS_CHECK((align & (align - 1)) == 0) << "alignment must be a power of two";
  if (size == 0) {
    size = 1;
  }
  // Whole-block size: header + payload, rounded to granularity.
  const size_t need =
      AlignUp(kHeaderSize + size, kAlign) < kMinBlock
          ? kMinBlock
          : AlignUp(kHeaderSize + size, kAlign);

  FreeNode** link = &free_list_;
  while (FreeNode* node = *link) {
    const uintptr_t block_start = reinterpret_cast<uintptr_t>(node);
    const uintptr_t block_end = block_start + node->header.size;

    // Earliest payload position inside this block satisfying `align`, leaving
    // either no prefix or a prefix big enough to stay a free block.
    uintptr_t payload = AlignUp(block_start + kHeaderSize, align);
    uintptr_t used_start = payload - kHeaderSize;
    if (used_start != block_start && used_start - block_start < kMinBlock) {
      payload = AlignUp(block_start + kMinBlock + kHeaderSize, align);
      used_start = payload - kHeaderSize;
    }
    if (used_start + need > block_end) {
      link = &node->next;
      continue;
    }

    FreeNode* next = node->next;

    // Prefix free block (when alignment forced an offset).
    const size_t prefix = used_start - block_start;
    FreeNode** reinsert_link = link;
    if (prefix > 0) {
      node->header.size = prefix;
      // node stays in the list; new blocks go after it.
      reinsert_link = &node->next;
    } else {
      *link = next;  // unlink the node; the whole front becomes the used block
    }

    // Suffix free block (when the block is bigger than needed).
    size_t used_size = need;
    const size_t suffix = block_end - (used_start + need);
    if (suffix >= kMinBlock) {
      FreeNode* tail = reinterpret_cast<FreeNode*>(used_start + need);
      tail->header.size = suffix;
      tail->header.magic = kFreeMagic;
      tail->next = next;
      *reinsert_link = tail;
    } else {
      used_size += suffix;  // absorb the sliver
      *reinsert_link = next;
    }
    if (prefix > 0) {
      // node->next was overwritten above via reinsert_link when no suffix;
      // when there is a suffix, tail already chains to next. Either way the
      // list is consistent now.
    }

    Header* header = reinterpret_cast<Header*>(used_start);
    header->size = used_size;
    header->magic = kUsedMagic;
    high_water_ = std::max(high_water_, used_start + used_size - base_);
    changed_since_release_ = true;
    stats_.used_bytes += used_size;
    stats_.free_bytes -= used_size;
    ++stats_.live_allocations;
    ++stats_.total_allocations;
    return reinterpret_cast<void*>(payload);
  }
  return nullptr;
}

void LinkedListAllocator::Deallocate(void* ptr) {
  AS_CHECK(ptr != nullptr);
  Header* header = HeaderOf(ptr);
  AS_CHECK(header->magic == kUsedMagic) << "bad free: not a live allocation";
  const uintptr_t start = reinterpret_cast<uintptr_t>(header);
  AS_CHECK(start >= base_ && start + header->size <= base_ + size_)
      << "bad free: outside heap";

  const size_t size = header->size;
  stats_.used_bytes -= size;
  stats_.free_bytes += size;
  --stats_.live_allocations;
  ++stats_.total_frees;
  changed_since_release_ = true;

  // Insert in address order.
  FreeNode* node = reinterpret_cast<FreeNode*>(header);
  node->header.magic = kFreeMagic;
  FreeNode** link = &free_list_;
  while (*link && reinterpret_cast<uintptr_t>(*link) < start) {
    link = &(*link)->next;
  }
  node->next = *link;
  *link = node;

  // Coalesce with successor.
  if (node->next &&
      start + node->header.size == reinterpret_cast<uintptr_t>(node->next)) {
    node->header.size += node->next->header.size;
    node->next = node->next->next;
  }
  // Coalesce with predecessor.
  if (link != &free_list_) {
    FreeNode* prev =
        reinterpret_cast<FreeNode*>(reinterpret_cast<char*>(link) -
                                    offsetof(FreeNode, next));
    if (reinterpret_cast<uintptr_t>(prev) + prev->header.size == start) {
      prev->header.size += node->header.size;
      prev->next = node->next;
    }
  }
}

void LinkedListAllocator::Reset() {
  AS_CHECK(initialized());
  const size_t total_allocations = stats_.total_allocations;
  const size_t total_frees = stats_.total_frees;
  const size_t high_water = high_water_;
  Init(reinterpret_cast<void*>(base_), size_);
  stats_.total_allocations = total_allocations;
  stats_.total_frees = total_frees;
  high_water_ = high_water;
  changed_since_release_ = true;
}

size_t LinkedListAllocator::ReleaseFreePages() {
  AS_CHECK(initialized());
  if (!changed_since_release_) {
    return 0;
  }
  changed_since_release_ = false;
  const size_t page = Arena::PageSize();
  const uintptr_t mark = base_ + high_water_;
  size_t released = 0;
  const FreeNode* last = nullptr;
  for (const FreeNode* node = free_list_; node; node = node->next) {
    last = node;
    // Whole pages after the node, up to the mark's page: pages past it were
    // never handed out since the mark was last lowered.
    const uintptr_t start = reinterpret_cast<uintptr_t>(node);
    const uintptr_t first = AlignUp(start + sizeof(FreeNode), page);
    const uintptr_t end = AlignDown(
        std::min(start + node->header.size, AlignUp(mark, page)), page);
    if (first < end &&
        madvise(reinterpret_cast<void*>(first), end - first,
                MADV_DONTNEED) == 0) {
      released += end - first;
    }
  }
  // Blocks tile the heap, so a free block reaching its end starts where the
  // highest live block ends (or at the base, when nothing is live).
  if (last != nullptr &&
      reinterpret_cast<uintptr_t>(last) + last->header.size == base_ + size_) {
    high_water_ = reinterpret_cast<uintptr_t>(last) - base_;
  }
  return released;
}

size_t LinkedListAllocator::TouchedBytes() const {
  return std::min(size_, high_water_ + sizeof(FreeNode));
}

LinkedListAllocator::Stats LinkedListAllocator::stats() const {
  Stats out = stats_;
  out.largest_free_block = 0;
  for (const FreeNode* node = free_list_; node; node = node->next) {
    const size_t payload = node->header.size - kHeaderSize;
    if (payload > out.largest_free_block) {
      out.largest_free_block = payload;
    }
  }
  return out;
}

bool LinkedListAllocator::CheckInvariants() const {
  uintptr_t prev_end = 0;
  const FreeNode* prev = nullptr;
  size_t free_total = 0;
  for (const FreeNode* node = free_list_; node; node = node->next) {
    const uintptr_t start = reinterpret_cast<uintptr_t>(node);
    if (node->header.magic != kFreeMagic) {
      return false;
    }
    if (start < base_ || start + node->header.size > base_ + size_) {
      return false;
    }
    if (prev && start <= reinterpret_cast<uintptr_t>(prev)) {
      return false;  // not address ordered
    }
    if (prev && prev_end == start) {
      return false;  // adjacent free blocks should have been coalesced
    }
    free_total += node->header.size;
    prev = node;
    prev_end = start + node->header.size;
  }
  return free_total == stats_.free_bytes;
}

}  // namespace asalloc
