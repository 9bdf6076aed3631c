// Objects placed in a std::pmr::memory_resource chosen at `new`.
//
// A class deriving from ResourceObject is created either with
//   new (resource) T(...)   in `resource`'s memory, or
//   new T(...)              in the default resource's,
// and `delete` (a unique_ptr's included) hands it back to whichever resource
// it came from: a 16-byte header in front of the object records the
// resource and the block size. A WFD places its LibOS state this way in the
// system pages of its own reservation (DESIGN.md §14), so destroying the
// WFD leaves nothing on the malloc heap; standalone users (tests, benches)
// write `new T` or std::make_unique and get the default resource.

#ifndef SRC_COMMON_RESOURCE_OBJECT_H_
#define SRC_COMMON_RESOURCE_OBJECT_H_

#include <cstddef>
#include <memory_resource>

namespace asbase {

class ResourceObject {
 public:
  static void* operator new(std::size_t size,
                            std::pmr::memory_resource* resource) {
    void* block = resource->allocate(size + kHeaderBytes, kAlign);
    *static_cast<Header*>(block) = Header{resource, size + kHeaderBytes};
    return static_cast<char*>(block) + kHeaderBytes;
  }
  static void* operator new(std::size_t size) {
    return operator new(size, std::pmr::get_default_resource());
  }
  static void operator delete(void* object) {
    if (object == nullptr) {
      return;
    }
    Header* header = reinterpret_cast<Header*>(static_cast<char*>(object) -
                                               kHeaderBytes);
    header->resource->deallocate(header, header->bytes, kAlign);
  }
  // Frees the block when a constructor run by `new (resource) T` throws.
  static void operator delete(void* object, std::pmr::memory_resource*) {
    operator delete(object);
  }

 private:
  struct Header {
    std::pmr::memory_resource* resource;
    std::size_t bytes;
  };
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kAlign = 16;
  static_assert(sizeof(Header) == kHeaderBytes);
};

}  // namespace asbase

#endif  // SRC_COMMON_RESOURCE_OBJECT_H_
