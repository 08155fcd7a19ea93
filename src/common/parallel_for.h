// The one worker-pool idiom of the pipeline: a dynamically claimed,
// chunked loop over [0, n). Phase 1 fragments trajectories with it and
// Phase 3 evaluates its candidate flow pairs with it.
//
// The worker callable runs once per worker and pulls chunks from a shared
// ChunkCursor until none are left, so per-worker state (a search context, a
// trace span, private counters) lives on its own stack for its whole
// lifetime. Which chunks a worker gets depends on timing; callers that need
// thread-count-independent results write each index's result into its own
// slot, or sum order-independent counters. Threads are started per call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

namespace neat {

/// A half-open index range [begin, end).
struct IndexRange {
  std::size_t begin{0};
  std::size_t end{0};
};

/// Hands out consecutive chunks of [0, n) to the workers of one
/// parallel_for; every index is handed out exactly once. Thread safe.
class ChunkCursor {
 public:
  /// `chunk` values of 0 are treated as 1.
  ChunkCursor(std::size_t n, std::size_t chunk) : n_(n), chunk_(std::max<std::size_t>(1, chunk)) {}

  ChunkCursor(const ChunkCursor&) = delete;
  ChunkCursor& operator=(const ChunkCursor&) = delete;

  /// Claims the next unclaimed chunk, or nullopt once [0, n) is exhausted
  /// (or the loop was stopped).
  [[nodiscard]] std::optional<IndexRange> next() {
    const std::size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= n_) return std::nullopt;
    return IndexRange{begin, std::min(n_, begin + chunk_)};
  }

  /// Hands out no further chunks (after a worker failed).
  void stop() { next_.store(n_, std::memory_order_relaxed); }

 private:
  const std::size_t n_;
  const std::size_t chunk_;
  std::atomic<std::size_t> next_{0};
};

/// Workers parallel_for(n, threads, ...) runs: `threads`, but no more than
/// there are indices, and at least one.
[[nodiscard]] inline unsigned parallel_workers(std::size_t n, unsigned threads) {
  return static_cast<unsigned>(std::clamp<std::size_t>(n, 1, std::max(1u, threads)));
}

/// Calls `worker(w, cursor)` once for every w in [0, parallel_workers(n,
/// threads)); the workers share one ChunkCursor over [0, n) in chunks of
/// `chunk` indices. With one worker it runs inline on the calling thread;
/// otherwise every worker gets its own thread. Does nothing when n is 0.
///
/// All threads are joined before parallel_for returns or throws. A worker
/// that throws stops the cursor, so the others finish their current chunk
/// and return; the exception of the lowest-numbered failed worker is then
/// rethrown on the calling thread.
template <typename Worker>
void parallel_for(std::size_t n, unsigned threads, std::size_t chunk, const Worker& worker) {
  if (n == 0) return;
  ChunkCursor cursor(n, chunk);
  const unsigned workers = parallel_workers(n, threads);
  if (workers == 1) {
    worker(0u, cursor);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          worker(w, cursor);
        } catch (...) {
          errors[w] = std::current_exception();
          cursor.stop();
        }
      });
    }
  } catch (...) {
    // A thread failed to start: stop the started workers and join them.
    cursor.stop();
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace neat
