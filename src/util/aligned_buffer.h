// Cache-line / sector aligned heap buffers for I/O paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace e2lshos::util {

/// \brief Owning buffer with configurable alignment (default 512 bytes,
/// the minimum sector size for NVMe reads used throughout the paper).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(size_t size, size_t alignment = 512) { Reset(size, alignment); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        alignment_(other.alignment_) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      alignment_ = other.alignment_;
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Free(); }

  /// Reallocate to `size` bytes with `alignment`; contents are zeroed.
  void Reset(size_t size, size_t alignment = 512) {
    Free();
    alignment_ = alignment;
    if (size == 0) return;
    // aligned_alloc requires size to be a multiple of alignment.
    const size_t padded = (size + alignment - 1) / alignment * alignment;
    data_ = static_cast<uint8_t*>(std::aligned_alloc(alignment, padded));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(data_, 0, padded);
    size_ = size;
  }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t alignment() const { return alignment_; }

 private:
  void Free() {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t alignment_ = 512;
};

/// \brief std::allocator with a fixed over-alignment, for vectors that
/// SIMD kernels load in whole cache lines.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Alignment>&) const { return false; }
};

}  // namespace e2lshos::util
