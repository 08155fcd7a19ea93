#include "serve/metrics.h"

#include <chrono>

namespace neat::serve {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Registry* pick(obs::Registry* external, std::unique_ptr<obs::Registry>& owned) {
  if (external != nullptr) return external;
  owned = std::make_unique<obs::Registry>();
  return owned.get();
}

}  // namespace

Metrics::Metrics(obs::Registry* registry)
    : reg_(pick(registry, owned_)),
      query_latency_(reg_->histogram("neat_serve_query_duration_seconds")),
      ingest_latency_(reg_->histogram("neat_serve_ingest_duration_seconds")),
      nearest_flow_queries_(
          reg_->counter("neat_serve_queries_total", {{"kind", "nearest_flow"}})),
      segment_queries_(
          reg_->counter("neat_serve_queries_total", {{"kind", "segment_flows"}})),
      top_k_queries_(reg_->counter("neat_serve_queries_total", {{"kind", "top_k"}})),
      empty_snapshot_queries_(reg_->counter("neat_serve_empty_snapshot_queries_total")),
      batches_ingested_(reg_->counter("neat_serve_ingest_batches_total", {{"result", "ok"}})),
      batches_rejected_(
          reg_->counter("neat_serve_ingest_batches_total", {{"result", "rejected"}})),
      batches_failed_(
          reg_->counter("neat_serve_ingest_batches_total", {{"result", "failed"}})),
      trajectories_ingested_(reg_->counter("neat_serve_ingested_trajectories_total")),
      snapshot_version_(reg_->gauge("neat_serve_snapshot_version")),
      last_publish_gauge_(reg_->gauge("neat_serve_last_publish_timestamp_seconds")) {
  reg_->set_help("neat_serve_query_duration_seconds",
                 "Latency of flow-cluster queries (all kinds).");
  reg_->set_help("neat_serve_ingest_duration_seconds",
                 "Latency of ingest batches: clustering plus snapshot publish.");
  reg_->set_help("neat_serve_queries_total", "Queries answered, by query kind.");
  reg_->set_help("neat_serve_empty_snapshot_queries_total",
                 "Queries answered before any snapshot was published.");
  reg_->set_help("neat_serve_ingest_batches_total",
                 "Ingest batches, by outcome (ok/rejected/failed).");
  reg_->set_help("neat_serve_ingested_trajectories_total",
                 "Trajectories accepted into published snapshots.");
  reg_->set_help("neat_serve_snapshot_version",
                 "Version of the currently served cluster snapshot (0 = none yet).");
  reg_->set_help("neat_serve_last_publish_timestamp_seconds",
                 "Steady-clock time of the latest snapshot publish, in seconds.");
}

void Metrics::record_query(QueryKind kind, double seconds) {
  switch (kind) {
    case QueryKind::kNearestFlow: nearest_flow_queries_.add(); break;
    case QueryKind::kSegmentFlows: segment_queries_.add(); break;
    case QueryKind::kTopK: top_k_queries_.add(); break;
  }
  query_latency_.record(seconds);
}

void Metrics::record_empty_snapshot_query() { empty_snapshot_queries_.add(); }

void Metrics::record_ingest(std::size_t trajectories, double seconds,
                            std::uint64_t version) {
  batches_ingested_.add();
  trajectories_ingested_.add(trajectories);
  ingest_latency_.record(seconds);
  snapshot_version_.set(static_cast<double>(version));
  const std::int64_t now = steady_now_us();
  last_publish_us_.store(now, std::memory_order_relaxed);
  last_publish_gauge_.set(static_cast<double>(now) / 1e6);
}

void Metrics::record_rejected_batch() { batches_rejected_.add(); }

void Metrics::record_failed_batch() { batches_failed_.add(); }

double Metrics::snapshot_age_seconds() const {
  const std::int64_t at = last_publish_us_.load(std::memory_order_relaxed);
  if (at < 0) return -1.0;  // sentinel: nothing published yet
  return static_cast<double>(steady_now_us() - at) / 1e6;
}

std::uint64_t Metrics::snapshot_version() const {
  return static_cast<std::uint64_t>(snapshot_version_.value());
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.nearest_flow_queries = nearest_flow_queries_.value();
  s.segment_queries = segment_queries_.value();
  s.top_k_queries = top_k_queries_.value();
  s.queries_total = s.nearest_flow_queries + s.segment_queries + s.top_k_queries;
  s.empty_snapshot_queries = empty_snapshot_queries_.value();
  s.query_p50_s = query_latency_.quantile_seconds(0.50);
  s.query_p99_s = query_latency_.quantile_seconds(0.99);
  s.query_mean_s = query_latency_.mean_seconds();
  s.batches_ingested = batches_ingested_.value();
  s.batches_rejected = batches_rejected_.value();
  s.batches_failed = batches_failed_.value();
  s.trajectories_ingested = trajectories_ingested_.value();
  s.ingest_p50_s = ingest_latency_.quantile_seconds(0.50);
  s.ingest_mean_s = ingest_latency_.mean_seconds();
  s.snapshot_version = snapshot_version();
  s.snapshot_age_s = snapshot_age_seconds();
  return s;
}

}  // namespace neat::serve
