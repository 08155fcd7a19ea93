// The bounded single-producer, single-consumer ring behind both lock-free
// capture paths of the observability layer: the profiler's per-thread
// sample rings (obs/prof) and the logger's per-thread record rings
// (obs/log).
//
// One thread produces and one consumes, so acquire/release cursors are
// enough: the producer claims a slot with a relaxed load of its own cursor
// and an acquire load of the consumer's, fills it, then publishes with a
// release store; the consumer reads only slots strictly before `head` and
// frees them with a release store of `tail`. Every producer-side operation
// is a plain atomic load or store — no locks, no allocation, no libc calls —
// so a push is async-signal-safe, and the consumer may drain while the
// producer keeps pushing. A full ring refuses the push (the caller drops
// and counts) instead of blocking or overwriting a slot the consumer may be
// reading.
//
// The tracer's per-thread span logs (obs/trace.h) do not use this ring: a
// full span log overwrites its oldest span and is read under a mutex, which
// is a different contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace neat::obs {

/// Bounded SPSC ring of `T` over caller-owned storage (`capacity` slots).
template <typename T>
struct SpscRing {
  std::atomic<std::uint64_t> head{0};  ///< Next slot to write (producer).
  std::atomic<std::uint64_t> tail{0};  ///< Next slot to read (consumer).
  T* slots{nullptr};                   ///< `capacity` entries, owned elsewhere.
  std::size_t capacity{0};
  std::uint32_t tid{0};                ///< Id of the producing thread.

  /// Claims the next write slot, or nullptr when the ring is full. The
  /// producer fills the slot, then calls publish(). Signal-handler safe.
  T* begin_push() {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) >= capacity) return nullptr;
    return &slots[h % capacity];
  }

  /// Makes the slot returned by begin_push() visible to the consumer.
  void publish() {
    head.store(head.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  /// Consumes the oldest entry into `out`; false when empty. Safe while the
  /// producer keeps pushing: the consumer never touches the slot `head`
  /// points at.
  bool pop(T& out) {
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    if (t == head.load(std::memory_order_acquire)) return false;
    out = slots[t % capacity];
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
};

}  // namespace neat::obs
