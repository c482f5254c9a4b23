#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "qos/priority.hpp"

namespace mpct::qos {

/// Per-class dispatch weights for the weighted-fair queue.  A weight is
/// the number of items a class may dequeue in one deficit-round-robin
/// visit while other classes have work waiting; zero is clamped to one
/// (a zero-weight class would never drain).
struct WfqWeights {
  std::uint32_t interactive = 8;
  std::uint32_t batch = 3;
  std::uint32_t background = 1;

  std::uint32_t of(PriorityClass cls) const {
    switch (cls) {
      case PriorityClass::Interactive: return interactive == 0 ? 1 : interactive;
      case PriorityClass::Batch:       return batch == 0 ? 1 : batch;
      case PriorityClass::Background:  return background == 0 ? 1 : background;
    }
    return 1;
  }
};

/// Weighted-fair bounded MPMC queue: one bounded FIFO subqueue per
/// PriorityClass, drained by deficit round robin.  The one task queue
/// of the serving stack — the engine's worker pool and the cluster
/// proxy's workers both drain one — so a flood of Batch sweeps cannot
/// starve Interactive classifies at either tier.  With only one class in
/// use it is a plain bounded FIFO:
///
/// - try_push(cls, item) never blocks; it returns false (leaving the
///   item untouched) when that class's subqueue is full or the queue is
///   closed.
/// - pop(out) blocks until an item is available or the queue is closed;
///   it returns false only when the queue is closed *and* empty —
///   items pushed before close() are always drained.
/// - Within a class, items pop in push order (FIFO).  Across classes,
///   a DRR cursor grants each non-empty class `weight` consecutive
///   dequeues per visit; empty classes are skipped without consuming a
///   turn (work-conserving), and a class's deficit resets when it
///   empties so idle time never banks future bursts.
///
/// Capacity is per class: each subqueue holds up to `capacity` items,
/// so admission for one class is independent of the others' backlog.
template <typename T>
class WfqQueue {
 public:
  explicit WfqQueue(std::size_t capacity, WfqWeights weights = {})
      : capacity_(capacity == 0 ? 1 : capacity), weights_(weights) {}

  WfqQueue(const WfqQueue&) = delete;
  WfqQueue& operator=(const WfqQueue&) = delete;

  /// Attempt to enqueue without blocking.  On failure the item is left
  /// untouched so the caller still owns its state (promise, callback).
  bool try_push(PriorityClass cls, T& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::deque<T>& queue = queues_[index(cls)];
      if (closed_ || queue.size() >= capacity_) return false;
      queue.push_back(std::move(item));
      ++total_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue in DRR order; false only when closed and empty.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return total_ > 0 || closed_; });
    if (total_ == 0) return false;
    pop_locked(out);
    return true;
  }

  /// Non-blocking dequeue in DRR order.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (total_ == 0) return std::nullopt;
    std::optional<T> out(std::in_place);
    pop_locked(*out);
    return out;
  }

  /// Remove every queued item matching @p pred (across all classes,
  /// preserving FIFO order of the survivors) and move the matches into
  /// @p removed.  Returns the number removed.  This is the server-side
  /// cancellation fast path: a cancelled request that is still queued
  /// is real reclaimed capacity, not just an ignored response.
  template <typename Pred>
  std::size_t remove_all_if(Pred pred, std::vector<T>& removed) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (std::deque<T>& queue : queues_) {
      std::deque<T> kept;
      for (T& item : queue) {
        if (pred(item)) {
          removed.push_back(std::move(item));
          ++count;
        } else {
          kept.push_back(std::move(item));
        }
      }
      queue.swap(kept);
    }
    total_ -= count;
    return count;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  std::size_t size(PriorityClass cls) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queues_[index(cls)].size();
  }

  /// True when @p count more items of @p cls would still fit.
  bool has_room(PriorityClass cls, std::size_t count) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !closed_ && queues_[index(cls)].size() + count <= capacity_;
  }

  /// Per-class capacity (the whole queue's when one class is in use).
  std::size_t capacity() const { return capacity_; }

  /// Queue fill of the fullest class, in [0, 1] — the admission
  /// controller's queue-side pressure signal.
  double max_fill() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t fullest = 0;
    for (const std::deque<T>& queue : queues_) {
      fullest = queue.size() > fullest ? queue.size() : fullest;
    }
    return static_cast<double>(fullest) / static_cast<double>(capacity_);
  }

 private:
  static std::size_t index(PriorityClass cls) {
    return static_cast<std::size_t>(cls);
  }

  /// Caller holds mutex_ and guarantees total_ > 0.
  void pop_locked(T& out) {
    for (std::size_t scanned = 0; scanned < kPriorityClassCount; ++scanned) {
      std::deque<T>& queue = queues_[cursor_];
      if (queue.empty()) {
        // An empty class forfeits its banked deficit: idle time must
        // not buy a later burst priority over classes that kept paying.
        credit_[cursor_] = 0;
        advance();
        continue;
      }
      if (credit_[cursor_] == 0) credit_[cursor_] = weights_.of(current());
      out = std::move(queue.front());
      queue.pop_front();
      --total_;
      --credit_[cursor_];
      if (credit_[cursor_] == 0 || queue.empty()) {
        credit_[cursor_] = 0;
        advance();
      }
      return;
    }
  }

  PriorityClass current() const { return static_cast<PriorityClass>(cursor_); }
  void advance() { cursor_ = (cursor_ + 1) % kPriorityClassCount; }

  const std::size_t capacity_;
  const WfqWeights weights_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::array<std::deque<T>, kPriorityClassCount> queues_;
  std::array<std::uint32_t, kPriorityClassCount> credit_{};
  std::size_t cursor_ = 0;
  std::size_t total_ = 0;
  bool closed_ = false;
};

}  // namespace mpct::qos
