// Fixed-capacity FIFO ring stored inline.
//
// The host model of a statically dimensioned MCU queue: a UART's hardware
// RX FIFO, the event router's two queues (Section 4.2).  The storage is an
// array inside the owning object, so a queue costs no heap at all, empty or
// full, and never reallocates.  What a full queue does (drop the newest
// entry, count an overrun) is the owner's rule: it checks full() before
// push_back.

#ifndef SRC_COMMON_FIXED_RING_H_
#define SRC_COMMON_FIXED_RING_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <utility>

namespace micropnp {

template <typename T, size_t N>
class FixedRing {
  static_assert(N > 0, "a ring holds at least one entry");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == N; }

  T& front() {
    assert(!empty());
    return items_[head_];
  }

  void push_back(T value) {
    assert(!full());
    items_[(head_ + size_) % N] = std::move(value);
    ++size_;
  }
  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) % N;
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::array<T, N> items_{};
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace micropnp

#endif  // SRC_COMMON_FIXED_RING_H_
