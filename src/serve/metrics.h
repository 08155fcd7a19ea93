// Built-in serving metrics (counters + fixed-bucket latency histograms).
//
// Since the unified observability layer landed, serve::Metrics is a typed
// facade over an obs::Registry: every counter/histogram lives in a registry
// under the `neat_serve_*` naming convention (DESIGN.md §"Observability"),
// so the same numbers are available as Prometheus text exposition. By
// default each Metrics owns a private registry (multiple serving stacks in
// one process stay isolated); pass one explicitly to aggregate into a
// shared registry such as obs::Registry::global().
//
// The mutation hot path is unchanged: every record is a relaxed atomic
// increment on a cached series reference, so recording from many query
// threads never serializes them. The latency histograms are the shared
// log2-bucket design (obs::Log2Histogram) — bucket i counts observations in
// [2^(i-1), 2^i) µs. The registry's Prometheus text is the one export
// format; snapshot() is the typed in-process read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/registry.h"

namespace neat::serve {

/// Lock-free latency histogram with fixed log2 buckets over microseconds —
/// the design now shared with the whole pipeline through obs::Log2Histogram.
using LatencyHistogram = obs::Log2Histogram;

/// One coherent read of every serving metric, for in-process callers.
struct MetricsSnapshot {
  std::uint64_t queries_total{0};
  std::uint64_t nearest_flow_queries{0};
  std::uint64_t segment_queries{0};
  std::uint64_t top_k_queries{0};
  std::uint64_t empty_snapshot_queries{0};
  double query_p50_s{0.0};
  double query_p99_s{0.0};
  double query_mean_s{0.0};
  std::uint64_t batches_ingested{0};
  std::uint64_t batches_rejected{0};
  std::uint64_t batches_failed{0};
  std::uint64_t trajectories_ingested{0};
  double ingest_p50_s{0.0};
  double ingest_mean_s{0.0};
  std::uint64_t snapshot_version{0};
  /// Seconds since the last publication; negative (-1) when no snapshot has
  /// ever been published, so "never" and "just now" are distinguishable.
  double snapshot_age_s{-1.0};
};

/// Shared metrics registry for one serving stack (QueryEngine + Ingest).
/// All methods are thread-safe.
class Metrics {
 public:
  enum class QueryKind { kNearestFlow, kSegmentFlows, kTopK };

  /// Backs the metrics with `registry` (not owned; must outlive this
  /// object), or with a private owned registry when null.
  explicit Metrics(obs::Registry* registry = nullptr);

  /// Records one finished query of `kind` taking `seconds`.
  void record_query(QueryKind kind, double seconds);

  /// Records a query answered while no snapshot was published yet.
  void record_empty_snapshot_query();

  /// Records one ingested batch: `trajectories` trips, `seconds` of
  /// clustering + publication work, resulting snapshot `version`.
  void record_ingest(std::size_t trajectories, double seconds, std::uint64_t version);

  /// Records a batch rejected by backpressure.
  void record_rejected_batch();

  /// Records a batch whose clustering failed (bad input); the service
  /// continues with the previous snapshot.
  void record_failed_batch();

  /// Seconds since the most recent snapshot publication; -1.0 before the
  /// first publish (sentinel: ages are otherwise never negative).
  [[nodiscard]] double snapshot_age_seconds() const;

  /// Version of the most recently published snapshot (0 = none yet).
  [[nodiscard]] std::uint64_t snapshot_version() const;

  /// The registry backing this object — use registry().to_prometheus() for
  /// a metrics text dump.
  [[nodiscard]] const obs::Registry& registry() const { return *reg_; }

  /// A coherent-enough point-in-time read of every gauge.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::unique_ptr<obs::Registry> owned_;  ///< Present when no registry was passed.
  obs::Registry* reg_;
  // Cached series references; all creation happens in the constructor.
  obs::Log2Histogram& query_latency_;
  obs::Log2Histogram& ingest_latency_;
  obs::Counter& nearest_flow_queries_;
  obs::Counter& segment_queries_;
  obs::Counter& top_k_queries_;
  obs::Counter& empty_snapshot_queries_;
  obs::Counter& batches_ingested_;
  obs::Counter& batches_rejected_;
  obs::Counter& batches_failed_;
  obs::Counter& trajectories_ingested_;
  obs::Gauge& snapshot_version_;
  obs::Gauge& last_publish_gauge_;  ///< Steady-clock publish time, seconds.
  std::atomic<std::int64_t> last_publish_us_{-1};  ///< steady-clock µs; -1 = never.
};

}  // namespace neat::serve
