#include "serve/ingest_service.h"

#include <utility>

#include "common/stopwatch.h"
#include "obs/log/log.h"
#include "obs/trace.h"

namespace neat::serve {

IngestService::IngestService(const roadnet::RoadNetwork& net, Config config,
                             SnapshotStore& store, obs::Registry& registry,
                             IngestOptions options)
    : net_(net),
      store_(store),
      options_(options),
      batches_ok_(registry.counter("neat_serve_ingest_batches_total", {{"result", "ok"}})),
      batches_rejected_(
          registry.counter("neat_serve_ingest_batches_total", {{"result", "rejected"}})),
      batches_failed_(
          registry.counter("neat_serve_ingest_batches_total", {{"result", "failed"}})),
      trajectories_(registry.counter("neat_serve_ingested_trajectories_total")),
      ingest_seconds_(registry.histogram("neat_serve_ingest_duration_seconds")),
      snapshot_version_(registry.gauge("neat_serve_snapshot_version")),
      clusterer_(net, config, options.incremental),
      queue_(options.queue_capacity) {
  registry.set_help("neat_serve_ingest_batches_total",
                    "Ingest batches, by outcome (ok/rejected/failed).");
  registry.set_help("neat_serve_ingested_trajectories_total",
                    "Trajectories accepted into published snapshots.");
  registry.set_help("neat_serve_ingest_duration_seconds",
                    "Latency of ingest batches: clustering plus snapshot publish.");
  registry.set_help("neat_serve_snapshot_version",
                    "Version of the currently served cluster snapshot (0 = none yet).");
  worker_ = std::thread([this] { run(); });
}

IngestService::~IngestService() { stop(); }

bool IngestService::submit(traj::TrajectoryDataset batch, std::uint64_t trace_id,
                           std::uint64_t* trace_id_out) {
  if (trace_id == 0) trace_id = obs::next_trace_id();
  if (trace_id_out != nullptr) *trace_id_out = trace_id;
  if (stopped_.load(std::memory_order_acquire)) return false;
  const bool block = options_.backpressure == IngestOptions::Backpressure::kBlock;
  // Count the acceptance before the push lands so flush() can never observe
  // processed_ caught up while this batch is still invisible to it.
  accepted_.fetch_add(1, std::memory_order_acq_rel);
  const PushResult r = queue_.push(PendingBatch{trace_id, std::move(batch)}, block);
  if (r == PushResult::kAccepted) return true;
  accepted_.fetch_sub(1, std::memory_order_acq_rel);
  {
    const std::lock_guard<std::mutex> lock(flush_mu_);  // pairs with flush()'s wait
  }
  flush_cv_.notify_all();
  if (r == PushResult::kRejected) {
    batches_rejected_.add();
    NEAT_LOG(kWarn, "serve")
        .msg("ingest batch rejected: queue full")
        .kv("trace_id_req", trace_id)
        .kv("queue_capacity", options_.queue_capacity);
  }
  return false;
}

void IngestService::flush() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [this] {
    return processed_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
}

void IngestService::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    if (worker_.joinable()) worker_.join();
    return;
  }
  queue_.close();
  if (worker_.joinable()) worker_.join();
  flush_cv_.notify_all();
}

void IngestService::run() {
  obs::Tracer::global().set_thread_name("serve-ingest");
  while (auto pending = queue_.pop()) {
    process_batch(std::move(*pending));
  }
}

void IngestService::process_batch(PendingBatch pending) {
  obs::ScopedSpan span("serve.ingest_batch");
  span.arg("trace_id", pending.trace_id);
  // Ambient for the whole batch: pipeline log lines join the batch's trace.
  const obs::TraceIdScope trace_scope(pending.trace_id);
  const Stopwatch watch;
  const std::size_t n_trajectories = pending.batch.size();
  span.arg("trajectories", static_cast<std::uint64_t>(n_trajectories));
  try {
    clusterer_.add_batch(pending.batch);
    auto [flows, clusters] = clusterer_.snapshot_state();
    const std::uint64_t version = published_.load(std::memory_order_relaxed) + 1;
    store_.publish(
        ClusterSnapshot::build(net_, std::move(flows), std::move(clusters), version));
    published_.store(version, std::memory_order_release);
    batches_ok_.add();
    trajectories_.add(n_trajectories);
    ingest_seconds_.record(watch.elapsed_seconds());
    snapshot_version_.set(static_cast<double>(version));
    span.arg("version", version);
    NEAT_LOG(kInfo, "serve")
        .msg("snapshot published")
        .kv("version", version)
        .kv("trajectories", n_trajectories)
        .kv("duration_ms", watch.elapsed_seconds() * 1e3);
  } catch (const Error& e) {
    // Bad batch (duplicate ids, unknown segments, ...): drop it, keep
    // serving the previous snapshot.
    batches_failed_.add();
    NEAT_LOG(kWarn, "serve")
        .msg("ingest batch failed; previous snapshot kept")
        .kv("trajectories", n_trajectories)
        .kv("reason", e.what());
  }
  processed_.fetch_add(1, std::memory_order_acq_rel);
  {
    // Pairs with flush(): the empty critical section orders the counter
    // update before the notify so a flusher mid-predicate-check cannot
    // miss the wakeup.
    const std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
}

}  // namespace neat::serve
