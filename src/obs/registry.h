// Process-wide metric registry — the counter half of the observability layer
// (the span half lives in obs/trace.h).
//
// Metrics are named *families* (`neat_<subsystem>_<name>_<unit>`, see
// DESIGN.md §"Observability") of one kind — counter, gauge or histogram —
// fanned out into *series* by label sets, mirroring the Prometheus data
// model. Lookup/creation takes a mutex (cold path, callers cache the
// returned reference); every mutation afterwards is a single relaxed atomic
// on the returned object (hot path, wait-free), so recording from many
// threads never serializes them. Series references stay valid for the
// registry's lifetime.
//
// The histogram is a fixed log2-bucket design (obs::Log2Histogram): bucket i
// counts observations in [2^(i-1), 2^i) µs, so recording is one fetch_add
// and percentiles are bucket upper edges.
//
// Exported as Prometheus text exposition format via to_prometheus().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace neat::obs {

/// Monotonic counter. Thread-safe, wait-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }

  /// Raises the value to `total` when it is below it, for counters that
  /// mirror a monotonic total kept elsewhere (the kernel's page-fault
  /// counts). Lock-free; racing callers never count the same increment
  /// twice, and the value never moves backwards.
  void raise_to(std::uint64_t total) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < total &&
           !v_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins gauge. Thread-safe, wait-free.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Lock-free duration histogram with fixed log2 buckets over microseconds.
/// Bucket 0 counts observations below 1 µs; bucket i (i >= 1) counts
/// [2^(i-1), 2^i) µs; the last bucket absorbs everything above ~35 minutes.
/// Non-finite and negative observations are clamped (NaN/negative to 0,
/// +inf to the last bucket) so a bad duration can never corrupt the sum or
/// index out of the bucket array.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Records one observation. Thread-safe, wait-free.
  void record(double seconds);

  /// Total observations recorded.
  [[nodiscard]] std::uint64_t count() const;

  /// Sum of all observations in seconds (µs resolution).
  [[nodiscard]] double sum_seconds() const;

  /// Mean in seconds (0 when empty).
  [[nodiscard]] double mean_seconds() const;

  /// Value at quantile `q` in [0, 1], in seconds, as the upper edge of the
  /// bucket containing that quantile (0 when empty). Conservative: the true
  /// value is at most this.
  [[nodiscard]] double quantile_seconds(double q) const;

  /// Raw count of bucket `i`.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;

  /// Upper edge of bucket `i` in seconds (2^i µs).
  [[nodiscard]] static double bucket_upper_seconds(std::size_t i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// One `key="value"` dimension of a metric series.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) = default;
};

using Labels = std::vector<Label>;

/// A named collection of metric families. `Registry::global()` is the
/// process-wide instance the pipeline reports into; tests and embedded
/// serving stacks may construct private registries for isolation.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry.
  static Registry& global();

  /// The counter/gauge/histogram series of family `name` with this exact
  /// label set, created on first use. Returned references stay valid for
  /// the registry's lifetime; cache them on hot paths. Throws
  /// neat::PreconditionError when `name` is not a valid metric name or the
  /// family already exists with a different kind.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Log2Histogram& histogram(std::string_view name, Labels labels = {});

  /// Registers the `# HELP` text of family `name` (single line; embedded
  /// newlines are escaped on export). Families without registered help
  /// export a generated "NEAT metric <name>." line, so every family always
  /// carries both HELP and TYPE. May be called before or after the family
  /// is created.
  void set_help(std::string_view name, std::string_view help);

  /// Current value of a counter series, 0 when it does not exist (does not
  /// create it). For tests and bench delta snapshots.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            const Labels& labels = {}) const;

  /// Sum (seconds) of a histogram series, 0 when it does not exist.
  [[nodiscard]] double histogram_sum_seconds(std::string_view name,
                                             const Labels& labels = {}) const;

  /// Prometheus text exposition (version 0.0.4) of every series, families
  /// in creation order, each preceded by `# HELP` and `# TYPE` lines.
  /// Histograms export cumulative `_bucket{le=...}` lines plus `_sum` and
  /// `_count`.
  [[nodiscard]] std::string to_prometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    // Exactly one is non-null, matching the family kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Log2Histogram> histogram;
  };

  struct Family {
    std::string name;
    Kind kind;
    std::string help;  // empty = export the generated default
    std::vector<std::unique_ptr<Series>> series;  // creation order
  };

  Series& series(std::string_view name, Labels labels, Kind kind);
  [[nodiscard]] const Series* find(std::string_view name, const Labels& labels) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;  // creation order
  /// Help registered before its family exists, applied at creation.
  std::vector<std::pair<std::string, std::string>> pending_help_;
};

}  // namespace neat::obs
