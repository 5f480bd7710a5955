#include "base/arena.h"

#include <algorithm>

#include "base/check.h"

namespace tsg::base {

namespace {

constexpr size_t RoundUp(size_t n, size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::Allocate(size_t bytes) {
  bytes = RoundUp(std::max(bytes, size_t{1}), kAlignment);
  if (next_chunk_ < chunks_.size()) {
    Chunk& c = chunks_[next_chunk_];
    if (c.used + bytes <= c.capacity) {
      void* p = c.storage.data() + c.used;
      c.used += bytes;
      bytes_used_ += bytes;
      bytes_peak_ = std::max(bytes_peak_, bytes_used_);
      return p;
    }
  }
  return AllocateSlow(bytes);
}

void* Arena::AllocateSlow(size_t bytes) {
  // Advance past exhausted chunks; reuse a retained chunk when one fits, so a
  // warm arena never touches the heap even if the request order shifts a bit.
  while (next_chunk_ < chunks_.size()) {
    Chunk& c = chunks_[next_chunk_];
    if (c.used + bytes <= c.capacity) break;
    ++next_chunk_;
  }
  if (next_chunk_ == chunks_.size()) {
    size_t capacity = std::max(kMinChunkBytes, bytes);
    if (!chunks_.empty()) {
      capacity = std::max(capacity, chunks_.back().capacity * 2);
    }
    Chunk c;
    c.storage = AlignedBuffer<std::byte>(capacity);
    c.capacity = capacity;
    chunks_.push_back(std::move(c));
    if (steady_state_) ++steady_state_chunk_allocs_;
  }
  Chunk& c = chunks_[next_chunk_];
  TSG_CHECK_LE(c.used + bytes, c.capacity);
  void* p = c.storage.data() + c.used;
  c.used += bytes;
  bytes_used_ += bytes;
  bytes_peak_ = std::max(bytes_peak_, bytes_used_);
  return p;
}

void Arena::Reset() {
  for (Chunk& c : chunks_) c.used = 0;
  next_chunk_ = 0;
  bytes_used_ = 0;
}

}  // namespace tsg::base
