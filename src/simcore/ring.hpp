// FIFO ring buffer of whole elements: the queue behind every qdisc band,
// WDRR flow slot and ingress port, WDRR's round of slots, and the event
// queue's delay lanes. One power-of-two allocation that doubles as it
// grows and is kept across clear(), so steady-state enqueue and dequeue
// allocate nothing. Storage is allocated uninitialized: a slot is written
// by push_back before anything reads it, so filling it first would be work
// no reader sees.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/check.hpp"

namespace tls::sim {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "Ring copies elements bytewise and never destroys them");

 public:
  Ring() = default;
  Ring(Ring&& o) noexcept { swap(o); }
  Ring& operator=(Ring&& o) noexcept {
    Ring(std::move(o)).swap(*this);
    return *this;
  }
  ~Ring() { if (data_) std::allocator<T>().deallocate(data_, capacity_); }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Elements the storage holds before the next push_back doubles it.
  std::size_t capacity() const { return capacity_; }
  const T& front() const {
    TLS_DCHECK(size_ > 0, "front() on an empty Ring");
    return data_[head_];
  }
  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    std::construct_at(slot(size_), v);
    ++size_;
  }
  T take_front() {
    T v = front();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return v;
  }
  void clear() { head_ = size_ = 0; }

  /// Appends every element to `out` in service order (drain support).
  void append_to(std::vector<T>& out) const {
    for (std::size_t k = 0; k < size_; ++k) out.push_back(*slot(k));
  }

 private:
  T* slot(std::size_t k) const {
    return data_ + ((head_ + k) & (capacity_ - 1));
  }

  void grow() {
    Ring next;
    next.capacity_ = capacity_ == 0 ? 16 : 2 * capacity_;
    next.data_ = std::allocator<T>().allocate(next.capacity_);
    for (; next.size_ < size_; ++next.size_) {
      std::construct_at(next.data_ + next.size_, *slot(next.size_));
    }
    swap(next);  // next now holds, and frees, the old storage
  }

  void swap(Ring& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(capacity_, o.capacity_);
    std::swap(head_, o.head_);
    std::swap(size_, o.size_);
  }

  T* data_ = nullptr;
  std::size_t capacity_ = 0;  // a power of two, or 0 before the first push
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tls::sim
