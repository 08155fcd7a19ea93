// Tests for the shared worker-pool helper (common/parallel_for.h): every
// index is handed out exactly once at any thread count and chunk size, no
// worker starts without a chunk to claim, worker exceptions surface on the
// calling thread only after every worker has been joined, and one worker
// runs inline.
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
          EXPECT_LT(worker, parallel_workers(n, threads, chunk));
          workers_run.fetch_add(1);
          while (const std::optional<IndexRange> r = cursor.next()) {
            EXPECT_LT(r->begin, r->end);
            EXPECT_LE(r->end - r->begin, std::max<std::size_t>(1, chunk));
            for (std::size_t i = r->begin; i < r->end; ++i) hits[i].fetch_add(1);
          }
        });
        EXPECT_EQ(workers_run.load(), parallel_workers(n, threads, chunk));
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
  EXPECT_EQ(parallel_workers(0, 8, 1), 1u);
  EXPECT_EQ(parallel_workers(3, 0, 1), 1u);
  EXPECT_EQ(parallel_workers(3, 1, 1), 1u);
  EXPECT_EQ(parallel_workers(3, 8, 1), 3u);
  EXPECT_EQ(parallel_workers(3, 8, 0), 3u);  // chunk 0 counts as 1
  EXPECT_EQ(parallel_workers(1000, 8, 1), 8u);
}

TEST(ParallelFor, WorkerCountIsCappedByChunks) {
  EXPECT_EQ(parallel_workers(28, 4, 64), 1u);
  EXPECT_EQ(parallel_workers(64, 4, 64), 1u);
  EXPECT_EQ(parallel_workers(65, 4, 64), 2u);
  EXPECT_EQ(parallel_workers(129, 4, 64), 3u);
  EXPECT_EQ(parallel_workers(1000, 4, 64), 4u);
  // Phase 3's shape on a small input: 28 candidate pairs are one chunk of
  // 64, so 4 threads start no worker beyond the one that claims it, and
  // that one runs inline.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<unsigned> workers_run{0};
  std::size_t claimed = 0;
  parallel_for(28, 4, 64, [&](unsigned, ChunkCursor& cursor) {
    workers_run.fetch_add(1);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    while (const std::optional<IndexRange> r = cursor.next()) claimed += r->end - r->begin;
  });
  EXPECT_EQ(workers_run.load(), 1u);
  EXPECT_EQ(claimed, 28u);
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
