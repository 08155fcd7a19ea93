// Bounded blocking queue with selectable backpressure.
//
// Two hand-offs use it: serve::IngestService (client submissions to the
// clustering worker) and net::HttpServer (accepted connections to the
// worker pool). Producers either block until space frees up or get an
// immediate rejection (load shedding) — the two backpressure policies a
// serving front end needs. close() wakes everyone: blocked producers
// return kClosed, consumers drain whatever is left and then see
// end-of-stream.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.h"

namespace neat {

/// Outcome of a push attempt.
enum class PushResult {
  kAccepted,  ///< Item enqueued.
  kRejected,  ///< Queue full and the caller asked not to wait.
  kClosed,    ///< Queue closed; item dropped.
};

template <class T>
class BoundedQueue {
 public:
  /// `capacity` must be >= 1 (throws neat::PreconditionError otherwise).
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    NEAT_EXPECT(capacity_ >= 1, "queue capacity must be at least 1");
  }

  /// Enqueues `item`. When full: blocks until space or close if `block`,
  /// returns kRejected immediately otherwise.
  PushResult push(T item, bool block) {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) {
      not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
    } else if (!closed_ && items_.size() >= capacity_) {
      return PushResult::kRejected;
    }
    if (closed_) return PushResult::kClosed;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  /// Dequeues the oldest item, blocking while the queue is empty and open.
  /// nullopt = closed and fully drained (end of stream).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Closes the queue: subsequent pushes fail, pops drain remaining items.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_{false};
};

}  // namespace neat
