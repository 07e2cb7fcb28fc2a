#include "util/arena.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace crmd::util {

namespace {

// Set when this thread's block cache is destroyed: an arena that dies
// later (a thread-local or static object's member) frees its own blocks.
thread_local bool spare_gone = false;

}  // namespace

MonotonicArena::MonotonicArena(MonotonicArena&& other) noexcept
    : blocks_(std::exchange(other.blocks_, {})),
      cursor_(std::exchange(other.cursor_, nullptr)),
      end_(std::exchange(other.end_, nullptr)),
      next_block_bytes_(other.next_block_bytes_),
      bytes_allocated_(std::exchange(other.bytes_allocated_, 0)),
      bytes_reserved_(std::exchange(other.bytes_reserved_, 0)) {}

MonotonicArena& MonotonicArena::operator=(MonotonicArena&& other) noexcept {
  if (this != &other) {
    MonotonicArena old(std::move(*this));  // caches our blocks as it dies
    blocks_ = std::exchange(other.blocks_, {});
    cursor_ = std::exchange(other.cursor_, nullptr);
    end_ = std::exchange(other.end_, nullptr);
    next_block_bytes_ = other.next_block_bytes_;
    bytes_allocated_ = std::exchange(other.bytes_allocated_, 0);
    bytes_reserved_ = std::exchange(other.bytes_reserved_, 0);
  }
  return *this;
}

MonotonicArena::~MonotonicArena() {
  if (blocks_.empty()) {
    return;
  }
  if (std::vector<Block>* spare = spare_blocks()) {
    // Reversed, so the block the next arena asks for first is last.
    std::reverse(blocks_.begin(), blocks_.end());
    *spare = std::move(blocks_);  // frees the blocks cached before
  }
}

std::vector<MonotonicArena::Block>* MonotonicArena::spare_blocks() noexcept {
  struct Spare {
    std::vector<Block> blocks;
    ~Spare() { spare_gone = true; }
  };
  if (spare_gone) {
    return nullptr;
  }
  thread_local Spare spare;
  return &spare.blocks;
}

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
  Block block;
  std::vector<Block>* spare = spare_blocks();
  // Arenas grow through the same block sizes, and the cache lists a dead
  // arena's blocks last-needed first, so a reusable block is the last one.
  if (spare != nullptr && !spare->empty() && spare->back().bytes == bytes) {
    block = std::move(spare->back());
    spare->pop_back();
  } else {
    // Left uninitialized: every object is constructed in place, and a
    // block's untouched tail then costs no resident memory.
    block = {std::make_unique_for_overwrite<std::byte[]>(bytes), bytes};
  }
  cursor_ = block.data.get();
  end_ = cursor_ + bytes;
  blocks_.push_back(std::move(block));
  bytes_reserved_ += bytes;
  next_block_bytes_ = std::min(bytes * 2, kMaxBlockBytes);
}

}  // namespace crmd::util
