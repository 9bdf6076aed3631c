// Page-aligned memory arenas backing WFD heaps and MPK partitions.
//
// Arenas are page-aligned so that protection keys can be bound at page
// granularity. A standalone arena maps its own pages; a WFD's heap arena is
// a view of the heap range of the WFD's reservation (reservation.h), which
// destroying the WFD returns to the host in one munmap, matching the paper's
// "as-visor destroys the WFD and reclaims the associated resources".

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
  // A view of `size` page-aligned bytes that someone else maps and unmaps.
  static Arena View(void* data, size_t size);
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
  bool owned_ = false;  // unmapped by this arena's destructor
};

// Bytes of resident pages (via mincore) in [data, data + bytes), rounded out
// to whole pages; data must be page-aligned.
size_t ResidentBytes(const void* data, size_t bytes);

}  // namespace asalloc

#endif  // SRC_ALLOC_ARENA_H_
