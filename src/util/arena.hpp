#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

/// \file arena.hpp
/// Monotonic bump allocator for per-simulation object lifetimes.
///
/// A simulation constructs one protocol object per job up front, walks them
/// for the lifetime of the run, and throws them all away together. That
/// pattern is exactly what a monotonic arena serves: allocation is a pointer
/// bump into geometrically growing blocks, objects of one simulation are
/// packed contiguously (instead of scattered across the heap by per-job
/// `new`), and the whole population is released in one shot when the arena
/// dies.
///
/// Contract:
///  - `allocate`/`create` never free individually; memory is reclaimed only
///    by destroying (or moving-from) the arena.
///  - The arena does NOT run destructors of created objects. Callers that
///    create non-trivially-destructible objects must invoke the destructor
///    themselves before the arena goes away (the simulator destroys each
///    protocol at retire time, which also releases the protocol's own heap
///    members early).
///  - Not thread-safe; one arena belongs to one simulation, and simulations
///    are confined to one worker thread each (see obs/run_traced.hpp).
///  - A dying arena hands its blocks to a cache local to its thread, which
///    holds one arena's blocks at a time (a later arena's replace them) and
///    frees them at thread exit. `grow` takes an exact-size block from that
///    cache before it asks the heap, so the runs of a worker thread reuse
///    pages that are already resident instead of faulting in fresh ones —
///    blocks of a megabyte sit near glibc's mmap threshold, where each free
///    returns the pages to the kernel. A moved-from or never-used arena
///    leaves the cache alone.

namespace crmd::util {

/// Bump allocator with geometrically growing blocks.
class MonotonicArena {
 public:
  /// `first_block_bytes` sizes the initial block; later blocks double up to
  /// `kMaxBlockBytes`. Nothing is allocated until the first request.
  explicit MonotonicArena(std::size_t first_block_bytes = 16 * 1024) noexcept
      : next_block_bytes_(first_block_bytes) {}

  /// Takes over `other`'s blocks; `other` is left holding none.
  MonotonicArena(MonotonicArena&& other) noexcept;
  MonotonicArena& operator=(MonotonicArena&& other) noexcept;
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;
  /// Hands the blocks to this thread's cache (see the file contract).
  ~MonotonicArena();

  /// Returns `size` bytes aligned to `align` (a power of two). Oversized
  /// requests get a dedicated block; alignment above
  /// __STDCPP_DEFAULT_NEW_ALIGNMENT__ is honored by over-allocating.
  void* allocate(std::size_t size, std::size_t align);

  /// Constructs a T in the arena. The caller owns the *destructor* (see the
  /// file contract); the arena owns the memory.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    return ::new (mem) T(std::forward<Args>(args)...);
  }

  /// Total bytes handed out so far (not counting block slack).
  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return bytes_allocated_;
  }

  /// Total bytes reserved from the upstream heap.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return bytes_reserved_;
  }

 private:
  static constexpr std::size_t kMaxBlockBytes = 1u << 20;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t bytes = 0;
  };

  /// Starts a fresh block of at least `min_bytes`.
  void grow(std::size_t min_bytes);

  /// This thread's cached blocks, first-needed last; null once the thread
  /// has begun freeing its thread-local objects.
  static std::vector<Block>* spare_blocks() noexcept;

  std::vector<Block> blocks_;
  std::byte* cursor_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t next_block_bytes_;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace crmd::util
