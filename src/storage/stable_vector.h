// Append-only containers with stable element addresses, the storage
// substrate that lets transactional writers grow a live delta part
// while concurrent snapshot readers scan it without copying or locking:
//
//   StableVector<T>  chunked vector for column data (dict / codes /
//                    nulls). Appends never move existing elements —
//                    storage is a fixed top-level array of chunk
//                    pointers with geometrically growing chunks, so no
//                    realloc ever invalidates a reader's view. Writers
//                    append under the table's state_mu; readers access
//                    only indexes below a bound captured under that
//                    same mutex, so the mutex's release/acquire pair
//                    orders the element writes before the reads and
//                    plain loads are race-free.
//
//   StampStore       lock-free chunked array of 64-bit MVCC stamps
//                    (created / deleted words, see common/mvcc.h),
//                    indexed by global row id. Chunks are allocated
//                    lazily via pointer-CAS and zero-initialized, so
//                    the deleted store's zero default ("not deleted")
//                    costs nothing: a table that never sees a delete
//                    never allocates a deleted chunk.
//
// Both use the same chunk geometry: chunk k holds 2^(k+10) elements
// (1024 in chunk 0), so the top-level array of 54 pointers addresses
// more rows than a 64-bit id can name while a small table touches one
// cache line of metadata.
#ifndef HANA_STORAGE_STABLE_VECTOR_H_
#define HANA_STORAGE_STABLE_VECTOR_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

namespace hana::storage {

inline constexpr size_t kChunkBaseShift = 10;  // chunk 0: 1024 elements
inline constexpr size_t kMaxChunks = 54;

constexpr size_t ChunkCapacity(size_t chunk) {
  return size_t{1} << (chunk + kChunkBaseShift);
}
constexpr size_t ChunkIndexOf(size_t i) {
  return static_cast<size_t>(
             std::bit_width(i + (size_t{1} << kChunkBaseShift))) -
         1 - kChunkBaseShift;
}
constexpr size_t ChunkOffsetOf(size_t i, size_t chunk) {
  return i + (size_t{1} << kChunkBaseShift) - ChunkCapacity(chunk);
}

template <typename T>
class StableVector {
 public:
  StableVector() = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  StableVector(StableVector&&) = default;
  StableVector& operator=(StableVector&&) = default;

  /// Appends one element. Writer-side only: callers synchronize
  /// externally (the table's state_mu) and publish the new size to
  /// readers through that same synchronization.
  void Append(T value) {
    size_t chunk = ChunkIndexOf(size_);
    if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<T[]>(ChunkCapacity(chunk));
    chunks_[chunk][ChunkOffsetOf(size_, chunk)] = std::move(value);
    ++size_;
  }

  /// Element count as seen by the writer (or any reader holding the
  /// writer's synchronization). Concurrent readers must bound their
  /// accesses by a snapshot-captured count instead.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    size_t chunk = ChunkIndexOf(i);
    return chunks_[chunk][ChunkOffsetOf(i, chunk)];
  }
  T& operator[](size_t i) {
    size_t chunk = ChunkIndexOf(i);
    return chunks_[chunk][ChunkOffsetOf(i, chunk)];
  }

  /// Forward const iteration over [0, size()); for immutable (frozen)
  /// parts and writer-side code only, like size().
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const StableVector* v, size_t i) : v_(v), i_(i) {}
    reference operator*() const { return (*v_)[i_]; }
    pointer operator->() const { return &(*v_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const StableVector* v_ = nullptr;
    size_t i_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::array<std::unique_ptr<T[]>, kMaxChunks> chunks_;
  size_t size_ = 0;
};

/// Lock-free positional store of MVCC stamp words, zero by default.
/// Readers and writers may race freely: every element access is atomic,
/// and an unallocated chunk reads as all-zero.
class StampStore {
 public:
  StampStore() = default;
  StampStore(const StampStore&) = delete;
  StampStore& operator=(const StampStore&) = delete;
  ~StampStore() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_acquire);
  }

  uint64_t Load(size_t i) const {
    // atomic: acquire chunk-pointer load pairs with EnsureChunk's
    // release publication (see chunks_ member comment).
    const std::atomic<uint64_t>* chunk =
        chunks_[ChunkIndexOf(i)].load(std::memory_order_acquire);
    if (chunk == nullptr) return 0;
    return chunk[ChunkOffsetOf(i, ChunkIndexOf(i))].load(
        std::memory_order_acquire);
  }

  void Store(size_t i, uint64_t value) {
    size_t chunk = ChunkIndexOf(i);
    EnsureChunk(chunk)[ChunkOffsetOf(i, chunk)].store(
        value, std::memory_order_release);
  }

  /// Single-element compare-exchange; `expected` is updated on failure
  /// as usual. Allocates the chunk on demand (the common `expected ==
  /// 0` case still needs a real slot to claim).
  bool CompareExchange(size_t i, uint64_t& expected, uint64_t desired) {
    size_t chunk = ChunkIndexOf(i);
    return EnsureChunk(chunk)[ChunkOffsetOf(i, chunk)]
        .compare_exchange_strong(expected, desired, std::memory_order_acq_rel,
                                 std::memory_order_acquire);
  }

  /// Publishes `n` as the element count. Written under the table's
  /// state_mu after the corresponding column data; the release store
  /// pairs with size()'s acquire so lock-free readers that bound
  /// themselves by size() see initialized rows.
  void ExtendTo(size_t n) { size_.store(n, std::memory_order_release); }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Returns the stamp array slice backing rows [i, i + *span) — or
  /// nullptr with the same *span if the chunk is unallocated, meaning
  /// every stamp in the span is zero. Lets scans test whole runs
  /// against the zero fast path without per-row Load calls.
  // atomic: returns a pointer into the element array; callers load
  // elements with acquire like Load() (see chunks_ member comment).
  const std::atomic<uint64_t>* Span(size_t i, size_t limit,
                                    size_t* span) const {
    size_t chunk = ChunkIndexOf(i);
    size_t offset = ChunkOffsetOf(i, chunk);
    size_t in_chunk = ChunkCapacity(chunk) - offset;
    *span = in_chunk < limit ? in_chunk : limit;
    // atomic: acquire chunk-pointer load (see chunks_ member comment).
    const std::atomic<uint64_t>* base =
        chunks_[chunk].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + offset;
  }

 private:
  // atomic: lazy chunk allocation — pointer-CAS publication, loser
  // frees its allocation (see chunks_ member comment).
  std::atomic<uint64_t>* EnsureChunk(size_t chunk) {
    // atomic: acquire chunk-pointer load (see chunks_ member comment).
    std::atomic<uint64_t>* existing =
        chunks_[chunk].load(std::memory_order_acquire);
    if (existing != nullptr) return existing;
    // atomic: zero-initialized element array; publication below.
    auto* fresh = new std::atomic<uint64_t>[ChunkCapacity(chunk)]();
    if (chunks_[chunk].compare_exchange_strong(existing, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another writer won the allocation race
    return existing;
  }

  // Chunk pointers are published with release after the chunk's
  // zero-initialization and read with acquire, so a reader that sees a
  // pointer sees zeroed elements; element words are individually atomic
  // (release stamps / acquire loads) because transactional commit
  // atomic: stamps race with snapshot scans by design (see above).
  mutable std::array<std::atomic<std::atomic<uint64_t>*>, kMaxChunks> chunks_{};
  // atomic: row count published with release after the row's column data
  // under state_mu; acquire readers use it as a scan bound.
  std::atomic<size_t> size_{0};
};

}  // namespace hana::storage

#endif  // HANA_STORAGE_STABLE_VECTOR_H_
