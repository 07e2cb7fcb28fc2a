#include "util/arena.hpp"

#include <algorithm>
#include <cassert>

namespace crmd::util {

void* MonotonicArena::allocate(std::size_t size, std::size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0 && "align: power of two");
  if (size == 0) {
    size = 1;
  }
  auto addr = reinterpret_cast<std::uintptr_t>(cursor_);
  std::uintptr_t aligned = (addr + (align - 1)) & ~(align - 1);
  if (cursor_ == nullptr ||
      aligned + size > reinterpret_cast<std::uintptr_t>(end_)) {
    // A fresh block from operator new[] is aligned for
    // __STDCPP_DEFAULT_NEW_ALIGNMENT__; over-allocate to honor more.
    const std::size_t slack =
        align > __STDCPP_DEFAULT_NEW_ALIGNMENT__ ? align : 0;
    grow(size + slack);
    addr = reinterpret_cast<std::uintptr_t>(cursor_);
    aligned = (addr + (align - 1)) & ~(align - 1);
  }
  cursor_ = reinterpret_cast<std::byte*>(aligned + size);
  bytes_allocated_ += size;
  return reinterpret_cast<void*>(aligned);
}

void MonotonicArena::grow(std::size_t min_bytes) {
  const std::size_t bytes = std::max(min_bytes, next_block_bytes_);
  // Left uninitialized: every object is constructed in place, and a block's
  // untouched tail then costs no resident memory.
  blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
  cursor_ = blocks_.back().get();
  end_ = cursor_ + bytes;
  bytes_reserved_ += bytes;
  next_block_bytes_ = std::min(bytes * 2, kMaxBlockBytes);
}

}  // namespace crmd::util
