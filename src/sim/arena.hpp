#pragma once
// Bump-pointer arena for per-run simulation objects (DESIGN.md §8).
//
// A checker or campaign run builds a full universe — engine, bus, nodes,
// protocol stacks — uses it for one trajectory, and throws it away.
// Allocating those objects individually makes teardown a long chain of
// frees and the next run a long chain of mallocs.  The arena turns both
// into pointer arithmetic: make<T>() carves aligned storage out of
// fixed-size blocks, reset() destroys everything in reverse construction
// order and *retains* the blocks, so a campaign worker's second run
// allocates out of warm, already-owned memory.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace canely::sim {

class Arena {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { reset(); }

  /// Construct a T in arena storage.  The object lives until reset();
  /// it is never freed individually.  Non-trivially-destructible types
  /// register a finalizer; trivially-destructible ones cost nothing at
  /// teardown.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    T* obj = ::new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          Finalizer{obj, [](void* q) { static_cast<T*>(q)->~T(); }});
    }
    return obj;
  }

  /// Destroy every object (reverse construction order — dependents die
  /// before their dependencies, mirroring stack unwind) and rewind the
  /// bump pointer.  Blocks are kept for the next run.
  void reset() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->destroy(it->obj);
    }
    finalizers_.clear();
    block_ = 0;
    used_ = 0;
  }

  /// Total bytes of block storage currently owned (retained across
  /// reset()) — observability for tests and metrics.
  [[nodiscard]] std::size_t bytes_retained() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  [[nodiscard]] std::size_t live_finalizers() const {
    return finalizers_.size();
  }

 private:
  struct Finalizer {
    void* obj;
    void (*destroy)(void*);
  };
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size;
  };

  void* allocate(std::size_t size, std::size_t align) {
    while (true) {
      if (block_ < blocks_.size()) {
        Block& b = blocks_[block_];
        const auto base = reinterpret_cast<std::uintptr_t>(b.mem.get());
        const std::uintptr_t p =
            (base + used_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
        if (p + size <= base + b.size) {
          used_ = p + size - base;
          return reinterpret_cast<void*>(p);
        }
        ++block_;  // does not fit: spill into the next block
        used_ = 0;
        continue;
      }
      // Oversize requests get a block of their own size.
      const std::size_t want = std::max(kBlockBytes, size + align);
      blocks_.push_back(Block{std::make_unique<std::byte[]>(want), want});
    }
  }

  std::vector<Block> blocks_;
  std::vector<Finalizer> finalizers_;
  std::size_t block_{0};  ///< index of the block being bumped
  std::size_t used_{0};   ///< bytes consumed in that block
};

}  // namespace canely::sim
