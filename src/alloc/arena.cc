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
}

Arena::~Arena() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

Arena::Arena(Arena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      munmap(data_, size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

size_t Arena::ResidentBytes(size_t prefix) const {
  if (data_ == nullptr) {
    return 0;
  }
  const size_t page = PageSize();
  const size_t pages = (std::min(prefix, size_) + page - 1) / page;
  unsigned char vec[256];
  size_t resident = 0;
  for (size_t first = 0; first < pages; first += sizeof(vec)) {
    const size_t count = std::min(sizeof(vec), pages - first);
    if (mincore(static_cast<char*>(data_) + first * page, count * page, vec) !=
        0) {
      return 0;
    }
    for (size_t i = 0; i < count; ++i) {
      resident += vec[i] & 1;
    }
  }
  return resident * page;
}

}  // namespace asalloc
