// Append-only array in pages that never move.
//
// PagedVec grows like a std::vector but never copies an element: it adds a
// page instead.  Pages start small (~1 KiB) and double up to ~64 KiB, then
// stay that size, so
//   - a reference to an element stays valid for the container's lifetime;
//   - a tiny solve touches about a kilobyte, not a doubling vector's last
//     big block;
//   - no single allocation crosses glibc's default mmap threshold (128 KiB).
//     Freeing a larger, mmap'd block raises that threshold, so later large
//     blocks come from the heap, where freed memory is often kept instead
//     of returned to the system.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace sekitei {

template <class T>
class PagedVec {
 public:
  [[nodiscard]] T& operator[](std::size_t i) {
    const auto [p, off] = locate(i);
    return pages_[p][off];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const auto [p, off] = locate(i);
    return pages_[p][off];
  }

  void push_back(const T& v) {
    if (size_ == capacity_) add_page();
    (*this)[size_++] = v;
  }
  void pop_back() { --size_; }

  /// Grows to `n` elements, each new one a copy of `fill` (never shrinks).
  void grow_to(std::size_t n, const T& fill) {
    while (size_ < n) push_back(fill);
  }

  /// Drops every element but keeps the pages for reuse.
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  // Page p < kGrowPages holds kFirst << p elements; every later page kMax.
  static constexpr std::size_t kFirst =
      std::bit_floor(std::max<std::size_t>(1, 1024 / sizeof(T)));
  static constexpr std::size_t kMax =
      std::max(kFirst, std::bit_floor(std::max<std::size_t>(1, 65536 / sizeof(T))));
  static constexpr int kFirstShift = std::countr_zero(kFirst);
  static constexpr int kMaxShift = std::countr_zero(kMax);
  static constexpr std::size_t kGrowPages = kMaxShift - kFirstShift + 1;
  static constexpr std::size_t kGrowTotal = 2 * kMax - kFirst;  // elements in the growing pages

  [[nodiscard]] static std::pair<std::size_t, std::size_t> locate(std::size_t i) {
    if (i < kGrowTotal) {
      // Page p starts at kFirst * (2^p - 1).
      const std::size_t q = (i >> kFirstShift) + 1;
      const std::size_t p = std::bit_width(q) - 1;
      return {p, i - ((std::size_t{1} << p) - 1) * kFirst};
    }
    const std::size_t j = i - kGrowTotal;
    return {kGrowPages + (j >> kMaxShift), j & (kMax - 1)};
  }

  void add_page() {
    const std::size_t p = pages_.size();
    const std::size_t n = p < kGrowPages ? kFirst << p : kMax;
    pages_.push_back(std::make_unique_for_overwrite<T[]>(n));
    capacity_ += n;
  }

  std::vector<std::unique_ptr<T[]>> pages_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace sekitei
