// Page-aligned memory arenas backing WFD heaps and MPK partitions.
//
// Arenas are mmap'd so that (a) protection keys can be bound at page
// granularity and (b) destroying the WFD returns the memory to the host in
// one munmap, matching the paper's "as-visor destroys the WFD and reclaims
// the associated resources".

#ifndef SRC_ALLOC_ARENA_H_
#define SRC_ALLOC_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace asalloc {

class Arena {
 public:
  Arena() = default;
  // Maps `size` bytes (rounded up to pages) of zeroed anonymous memory.
  explicit Arena(size_t size);
  ~Arena();

  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  // Bytes of resident pages (via mincore) among the first `prefix` bytes,
  // rounded up to whole pages. Used by the resource-usage benches (Fig 17b)
  // and the warm pool's charge; a caller that knows where touched memory
  // ends passes that to skip scanning the rest.
  size_t ResidentBytes(size_t prefix = SIZE_MAX) const;

  static size_t PageSize();

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace asalloc

#endif  // SRC_ALLOC_ARENA_H_
