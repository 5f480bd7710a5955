#ifndef TSG_BASE_ARENA_H_
#define TSG_BASE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/aligned.h"

namespace tsg::base {

/// Chunked bump allocator for per-step scratch: autodiff tape nodes, pooled
/// Matrix temporaries, and gradient buffers. Allocation is a pointer bump into
/// the current 64-byte-aligned chunk (AlignedBuffer); Reset() rewinds every
/// chunk without releasing it, so after a warm-up step the arena serves the
/// same allocation pattern with zero heap traffic. Chunks grow geometrically
/// (min 64 KiB, doubling) so even a cold step performs O(log size) heap
/// allocations.
///
/// Not thread-safe: each training thread owns its arena (the autodiff tape
/// keeps one per thread). Memory returned by Allocate is uninitialized.
class Arena {
 public:
  static constexpr size_t kAlignment = AlignedBuffer<std::byte>::kAlignment;
  static constexpr size_t kMinChunkBytes = size_t{64} * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bumps out `bytes` of uninitialized storage aligned to kAlignment (64).
  /// Never returns nullptr; zero-byte requests get a valid unique pointer.
  void* Allocate(size_t bytes);

  double* AllocateDoubles(size_t count) {
    return static_cast<double*>(Allocate(count * sizeof(double)));
  }

  /// Rewinds every chunk to empty, keeping the storage for reuse. O(#chunks).
  void Reset();

  /// After this call, new chunk acquisitions count as steady-state allocations
  /// (steady_state_chunk_allocs). The tape flips this once the first full
  /// training step has completed, so warm-up growth is excluded from the
  /// zero-alloc accounting.
  void MarkSteadyState() { steady_state_ = true; }

  /// High-water mark, over the arena's lifetime, of the bytes handed out
  /// between two Reset() calls.
  size_t bytes_peak() const { return bytes_peak_; }
  /// Chunk allocations that happened after MarkSteadyState() — the quantity
  /// the zero-allocation contract says must stay 0.
  int64_t steady_state_chunk_allocs() const { return steady_state_chunk_allocs_; }

 private:
  struct Chunk {
    AlignedBuffer<std::byte> storage;
    size_t capacity = 0;
    size_t used = 0;
  };

  /// Makes `chunks_[next_chunk_]` able to hold `bytes`, acquiring a new chunk
  /// when the current one is exhausted.
  void* AllocateSlow(size_t bytes);

  std::vector<Chunk> chunks_;
  size_t next_chunk_ = 0;  // index of the chunk currently being bumped
  size_t bytes_used_ = 0;  // bytes handed out since the last Reset()
  size_t bytes_peak_ = 0;
  int64_t steady_state_chunk_allocs_ = 0;
  bool steady_state_ = false;
};

}  // namespace tsg::base

#endif  // TSG_BASE_ARENA_H_
