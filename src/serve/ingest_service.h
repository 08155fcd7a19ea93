// Write path of the serving subsystem.
//
// An IngestService owns the clustering state (an IncrementalClusterer) and a
// single background worker that drains trajectory batches from a bounded
// MPSC queue, re-clusters, and publishes a fresh immutable ClusterSnapshot
// into the SnapshotStore — queries running concurrently keep reading the
// previous snapshot until the atomic swap and are never blocked. Producers
// pick a backpressure policy: block until the worker catches up, or shed
// load (submit() returns false). A batch with invalid input (e.g. duplicate
// trajectory ids) is counted as failed and skipped; the service keeps
// serving the last good snapshot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/bounded_queue.h"
#include "core/incremental.h"
#include "serve/metrics.h"
#include "serve/snapshot.h"
#include "traj/dataset.h"

namespace neat::serve {

/// Tuning of the ingest path.
struct IngestOptions {
  /// How submit() behaves when the batch queue is full.
  enum class Backpressure {
    kBlock,   ///< Wait for the worker to free a slot.
    kReject,  ///< Return false immediately (load shedding).
  };

  std::size_t queue_capacity{8};
  Backpressure backpressure{Backpressure::kBlock};
  /// Options of the underlying IncrementalClusterer (sliding window, ...).
  IncrementalOptions incremental;
};

/// Background batch-ingest worker publishing snapshots to a SnapshotStore.
class IngestService {
 public:
  /// Keeps references to `net`, `store` and `metrics`; do not outlive them.
  /// The worker thread starts immediately. Throws neat::PreconditionError on
  /// invalid `config` or options.
  IngestService(const roadnet::RoadNetwork& net, Config config, SnapshotStore& store,
                Metrics& metrics, IngestOptions options = {});

  /// Stops the service (drains already-accepted batches first).
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Hands one batch to the worker. Returns true when accepted; false when
  /// rejected by backpressure or the service is stopped. Trajectory ids must
  /// be unique across all accepted batches (violations surface as a failed
  /// batch in the metrics, not an exception here — submission is async).
  ///
  /// `trace_id` correlates the batch's ingest span with the client request
  /// that produced it (0 mints a fresh obs::next_trace_id()); the id used is
  /// written to `*trace_id_out` when non-null, even on rejection, so callers
  /// can log/echo it.
  bool submit(traj::TrajectoryDataset batch, std::uint64_t trace_id = 0,
              std::uint64_t* trace_id_out = nullptr);

  /// Blocks until every batch accepted so far has been processed (published
  /// or counted failed).
  void flush();

  /// Graceful shutdown: stops accepting, drains the queue, publishes the
  /// remaining batches, joins the worker. Idempotent.
  void stop();

  /// Batches published as snapshots so far.
  [[nodiscard]] std::uint64_t batches_published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Batches accepted into the queue so far.
  [[nodiscard]] std::uint64_t batches_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Batches currently waiting in the queue (accepted, not yet picked up by
  /// the worker). Exported on /statusz as the ingest backlog.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  /// A batch tagged with the request-correlation id it travels under.
  struct PendingBatch {
    std::uint64_t trace_id{0};
    traj::TrajectoryDataset batch;
  };

  void run();
  void process_batch(PendingBatch pending);

  const roadnet::RoadNetwork& net_;
  SnapshotStore& store_;
  Metrics& metrics_;
  IngestOptions options_;
  IncrementalClusterer clusterer_;  ///< Touched only by the worker thread.
  BoundedQueue<PendingBatch> queue_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<bool> stopped_{false};
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::thread worker_;  ///< Last member: starts in the ctor body, after state.
};

}  // namespace neat::serve
