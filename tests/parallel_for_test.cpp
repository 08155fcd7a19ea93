// Tests for the shared worker-pool helper (common/parallel_for.h): every
// index is handed out exactly once at any thread count and chunk size,
// worker exceptions surface on the calling thread only after every worker
// has been joined, and one worker runs inline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.h"

namespace neat {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                      std::size_t{64}, std::size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<unsigned> workers_run{0};
        parallel_for(n, threads, chunk, [&](unsigned worker, ChunkCursor& cursor) {
          EXPECT_LT(worker, parallel_workers(n, threads));
          workers_run.fetch_add(1);
          while (const std::optional<IndexRange> r = cursor.next()) {
            EXPECT_LT(r->begin, r->end);
            EXPECT_LE(r->end - r->begin, std::max<std::size_t>(1, chunk));
            for (std::size_t i = r->begin; i < r->end; ++i) hits[i].fetch_add(1);
          }
        });
        EXPECT_EQ(workers_run.load(), parallel_workers(n, threads));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "index " << i << " of " << n << " at " << threads << " threads, chunk "
              << chunk;
        }
      }
    }
  }
}

TEST(ParallelFor, WorkerCountIsCappedByIndices) {
  EXPECT_EQ(parallel_workers(0, 8), 1u);
  EXPECT_EQ(parallel_workers(3, 0), 1u);
  EXPECT_EQ(parallel_workers(3, 1), 1u);
  EXPECT_EQ(parallel_workers(3, 8), 3u);
  EXPECT_EQ(parallel_workers(1000, 8), 8u);
}

TEST(ParallelFor, EmptyRangeRunsNoWorker) {
  bool ran = false;
  parallel_for(0, 4, 1, [&](unsigned, ChunkCursor&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, OneWorkerRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned threads : {0u, 1u}) {
    std::size_t seen = 0;
    parallel_for(10, threads, 4, [&](unsigned worker, ChunkCursor& cursor) {
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      while (const std::optional<IndexRange> r = cursor.next()) seen += r->end - r->begin;
    });
    EXPECT_EQ(seen, 10u);
  }
  // A single index needs no second thread either.
  parallel_for(1, 8, 1, [&](unsigned, ChunkCursor&) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, InlineWorkerExceptionPropagates) {
  EXPECT_THROW(parallel_for(5, 1, 1,
                            [](unsigned, ChunkCursor&) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(ParallelFor, WorkerExceptionIsRethrownAfterEveryWorkerJoined) {
  for (const unsigned threads : {2u, 8u}) {
    std::atomic<unsigned> started{0};
    std::atomic<unsigned> finished{0};
    try {
      parallel_for(1000, threads, 1, [&](unsigned worker, ChunkCursor& cursor) {
        started.fetch_add(1);
        if (worker == 0) {
          static_cast<void>(cursor.next());
          throw std::runtime_error("worker 0 failed");
        }
        // The other workers are still busy when worker 0 throws; the
        // rethrow must wait for them.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        while (cursor.next()) {
        }
        finished.fetch_add(1);
      });
      FAIL() << "the worker exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker 0 failed");
      EXPECT_EQ(started.load(), threads);
      EXPECT_EQ(finished.load(), threads - 1) << "rethrown before every worker joined";
    }
  }
}

}  // namespace
}  // namespace neat
