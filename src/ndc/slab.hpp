#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ndc::runtime {

/// Append-only storage in fixed chunks that are never freed or moved
/// during a run, so references stay valid. A chunk stays below glibc's
/// 128 KiB initial mmap threshold: a larger block would be mmapped and,
/// once freed, raise the dynamic threshold and with it the heap's peak RSS.
/// Elements start value-initialized.
template <typename T, std::size_t kPerChunk>
class Slab {
 public:
  static_assert(sizeof(T) * kPerChunk < 128 * 1024,
                "a slab chunk must stay below glibc's initial mmap threshold");
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return chunks_[i / kPerChunk][i % kPerChunk]; }
  const T& operator[](std::size_t i) const { return chunks_[i / kPerChunk][i % kPerChunk]; }
  T& Append() {
    if (size_ % kPerChunk == 0) chunks_.push_back(std::make_unique<T[]>(kPerChunk));
    return (*this)[size_++];
  }
  void Clear() {
    chunks_.clear();
    size_ = 0;
  }
  std::size_t Bytes() const { return chunks_.size() * kPerChunk * sizeof(T); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ndc::runtime
