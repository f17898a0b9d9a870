#ifndef TASQ_COMMON_ARENA_H_
#define TASQ_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace tasq {

/// Bump-pointer arena for request-scoped allocation (ROADMAP item 5: the
/// cold submit path allocated ~41 heap allocations/request before PR 9;
/// with the serving layer's BatchScratch arena-backed it pays a single
/// block refill in steady state, pinned by tests/hot_path_test.cc).
///
/// Lifetime model — enforced statically by `tasq_check.py own`:
///
///   - Every pointer handed out by Alloc/New/NewObject/NewArray is valid
///     until the *owning arena's* next Reset() (or destruction). Storing
///     one into anything that outlives that Reset is the arena-escape
///     defect class; copy out or own the arena instead.
///   - Reset() is O(live blocks), not O(allocations): it rewinds the bump
///     pointer and *keeps* every block it ever grew, so a steady-state
///     request loop allocates zero heap after warmup. Destructors of
///     New<T>-placed objects are deliberately never run — New<T> is
///     restricted to trivially destructible T by static_assert
///     (arena-nontrivial-dtor is the analyzer backstop for types it
///     cannot see). NewObject<T> lifts that restriction by registering
///     the destructor to run, newest first, at Reset/destruction.
///   - Not thread-safe: one arena belongs to one logical request/batch
///     at a time (the serving drain loop owns its BatchScratch arena the
///     same way it owns the rest of the scratch).
///
/// The default block is 64 KiB; oversized requests get a dedicated block
/// (and are counted, so benchmarks can see sizing mistakes). Alignment
/// is per-allocation, defaulting to alignof(std::max_align_t).
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes) {
    TASQ_CHECK(block_bytes_ > 0);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { RunDtors(); }

  /// `bytes` of storage aligned to `align`. Never returns null; a zero
  /// byte count yields a unique (still aligned) pointer into the block.
  void* Alloc(size_t bytes, size_t align = alignof(std::max_align_t)) {
    TASQ_DCHECK(align != 0 && (align & (align - 1)) == 0);
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      Refill(bytes, align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Constructs a trivially destructible T in the arena. The destructor
  /// is never run — that restriction is what makes Reset O(1) per
  /// object; use NewObject for anything that owns memory.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "Arena::New skips destructors; use Arena::NewObject for "
                  "types that need one");
    return ::new (Alloc(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Constructs any T in the arena and registers its destructor to run
  /// at Reset/destruction (newest first). The registration itself is
  /// arena-allocated, so it adds no heap traffic.
  template <typename T, typename... Args>
  T* NewObject(Args&&... args) {
    T* object = ::new (Alloc(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
    if (!std::is_trivially_destructible<T>::value) {
      auto* node = static_cast<DtorNode*>(
          Alloc(sizeof(DtorNode), alignof(DtorNode)));
      node->object = object;
      node->dtor = [](void* p) { static_cast<T*>(p)->~T(); };
      node->next = dtor_head_;
      dtor_head_ = node;
    }
    return object;
  }

  /// `count` default-initialized trivially-destructible Ts. Arithmetic
  /// types come back zeroed (the callers are feature buffers, where a
  /// stale lane is a silent wrong answer).
  template <typename T>
  T* NewArray(size_t count) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "Arena::NewArray skips destructors");
    T* data = static_cast<T*>(Alloc(sizeof(T) * count, alignof(T)));
    if (std::is_arithmetic<T>::value && count > 0) {
      std::memset(static_cast<void*>(data), 0, sizeof(T) * count);
    }
    return data;
  }

  /// Rewinds to empty, keeping every block for reuse: the steady-state
  /// request loop refills nothing. Runs registered destructors (newest
  /// first), invalidates every outstanding pointer.
  void Reset() {
    RunDtors();
    cursor_ = blocks_.empty()
                  ? uintptr_t{0}
                  : reinterpret_cast<uintptr_t>(blocks_.front().get());
    limit_ = blocks_.empty() ? uintptr_t{0}
                             : cursor_ + block_sizes_.front();
    next_block_ = blocks_.empty() ? 0 : 1;
    bytes_used_ = 0;
  }

  /// Bytes handed out since construction/Reset (excludes alignment pad).
  size_t bytes_used() const { return bytes_used_; }
  /// Heap blocks ever acquired; flat across iterations == zero heap
  /// traffic in steady state.
  size_t block_count() const { return blocks_.size(); }

 private:
  struct DtorNode {
    // own: arena points at an object placed in this arena's blocks
    void* object;
    void (*dtor)(void*);
    // own: arena next registration node, also arena-placed
    DtorNode* next;
  };

  void RunDtors() {
    // own: DtorNode chain lives in this arena's own blocks by design
    for (DtorNode* node = dtor_head_; node != nullptr; node = node->next) {
      node->dtor(node->object);
    }
    dtor_head_ = nullptr;
  }

  void Refill(size_t bytes, size_t align) {
    // Reuse an already-grown block when the request fits; otherwise grow
    // by one block sized for the request (oversized requests get a
    // dedicated block rather than inflating every future block).
    size_t need = bytes + align;
    while (next_block_ < blocks_.size()) {
      size_t have = block_sizes_[next_block_];
      if (have >= need) {
        cursor_ = reinterpret_cast<uintptr_t>(blocks_[next_block_].get());
        limit_ = cursor_ + have;
        ++next_block_;
        return;
      }
      ++next_block_;  // Too small for this request; skip, keep for later.
    }
    size_t block = need > block_bytes_ ? need : block_bytes_;
    // own: the unique_ptr in blocks_ owns this allocation
    blocks_.push_back(std::unique_ptr<char[]>(new char[block]));
    block_sizes_.push_back(block);
    cursor_ = reinterpret_cast<uintptr_t>(blocks_.back().get());
    limit_ = cursor_ + block;
    next_block_ = blocks_.size();
  }

  const size_t block_bytes_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<size_t> block_sizes_;
  size_t next_block_ = 0;  // First block not yet handed to the cursor.
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_used_ = 0;
  // own: arena DtorNodes are placed in this arena's own blocks
  DtorNode* dtor_head_ = nullptr;
};

/// Std-allocator adapter over an Arena: plugs arena storage into standard
/// containers. Deallocate is a no-op (bump arenas don't free), so prefer
/// reserve()-then-fill usage; a geometric-growth push_back loop wastes
/// the abandoned copies until the next Reset.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t count) {
    return static_cast<T*>(arena_->Alloc(sizeof(T) * count, alignof(T)));
  }
  void deallocate(T*, size_t) {}  // Bump arena: freed at Reset().

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return !(*this == other);
  }

 private:
  // own: borrowed the container user keeps the arena alive
  Arena* arena_;
};

/// A vector whose storage lives in an arena. The element type must be
/// trivially destructible (the vector's own destructor still runs, but
/// abandoned grow-copies do not). Construct, reserve, fill, drop.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace tasq

#endif  // TASQ_COMMON_ARENA_H_
