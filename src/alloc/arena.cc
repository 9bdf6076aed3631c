#include "src/alloc/arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace asalloc {

size_t Arena::PageSize() {
  static const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

Arena::Arena(size_t size) {
  const size_t page = PageSize();
  size_ = (size + page - 1) / page * page;
  void* mapped = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AS_CHECK(mapped != MAP_FAILED) << "mmap of " << size_ << " bytes failed";
  data_ = mapped;
  owned_ = true;
}

Arena Arena::View(void* data, size_t size) {
  Arena view;
  view.data_ = data;
  view.size_ = size;
  return view;
}

Arena::~Arena() {
  if (owned_) {
    munmap(data_, size_);
  }
}

Arena::Arena(Arena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      owned_(std::exchange(other.owned_, false)) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    if (owned_) {
      munmap(data_, size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    owned_ = std::exchange(other.owned_, false);
  }
  return *this;
}

size_t Arena::ResidentBytes(size_t prefix) const {
  return data_ == nullptr ? 0
                          : asalloc::ResidentBytes(data_,
                                                   std::min(prefix, size_));
}

size_t ResidentBytes(const void* data, size_t bytes) {
  const size_t page = Arena::PageSize();
  const size_t pages = (bytes + page - 1) / page;
  unsigned char vec[256];
  size_t resident = 0;
  for (size_t first = 0; first < pages; first += sizeof(vec)) {
    const size_t count = std::min(sizeof(vec), pages - first);
    if (mincore(const_cast<char*>(static_cast<const char*>(data)) +
                    first * page,
                count * page, vec) != 0) {
      return 0;
    }
    for (size_t i = 0; i < count; ++i) {
      resident += vec[i] & 1;
    }
  }
  return resident * page;
}

}  // namespace asalloc
