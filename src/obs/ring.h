// lz::obs — the bounded ring behind the event trace, the span tracer and
// the time-series sampler.
//
// A fixed-capacity, mutex-guarded ring: push() overwrites the oldest entry
// once the ring is full and counts the overwrite as a drop, items() copies
// the survivors out oldest-first. Producers are armed runs only (every
// emitter checks its own armed flag first), so a mutex is cheap enough and
// keeps the ring trivially TSan-clean under the SMP machine. The lock-free
// per-core flight recorder (flight.h) is the one ring that cannot use this:
// it is read from a signal handler.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "support/types.h"

namespace lz::obs {

template <typename T>
class Ring {
 public:
  // (Re)allocate `capacity` slots (at least one) and drop everything.
  void reset(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.assign(capacity ? capacity : 1, T{});
    head_ = count_ = 0;
    dropped_ = 0;
  }

  // Drop every entry and the drop count; keeps the capacity.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.assign(slots_.size(), T{});
    head_ = count_ = 0;
    dropped_ = 0;
  }

  // Append `v`, overwriting the oldest entry when full. Returns true when
  // an entry was overwritten. A never-reset ring (capacity 0) ignores it.
  bool push(T v) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.empty()) return false;
    slots_[head_] = std::move(v);
    head_ = (head_ + 1) % slots_.size();
    if (count_ < slots_.size()) {
      ++count_;
      return false;
    }
    ++dropped_;
    return true;
  }

  // Surviving entries, oldest first (at most capacity() of them).
  std::vector<T> items() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> out;
    if (count_ == 0) return out;
    out.reserve(count_);
    const std::size_t start = (head_ + slots_.size() - count_) % slots_.size();
    for (std::size_t i = 0; i < count_; ++i)
      out.push_back(slots_[(start + i) % slots_.size()]);
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }
  // Entries overwritten by wraparound since the last reset()/clear().
  u64 dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<T> slots_;
  std::size_t head_ = 0;  // next write index
  std::size_t count_ = 0;
  u64 dropped_ = 0;
};

}  // namespace lz::obs
