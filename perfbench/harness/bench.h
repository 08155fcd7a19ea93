// Shared pieces of the whole-pipeline benchmark harness.
//
// The harness drives the library only through its public entry points. Every
// workload reports the same end-to-end metrics (untraced run) or the same
// per-layer metrics (traced run); perfbench/README.md defines them. In a
// traced run each layer call the harness makes is wrapped in a span on the
// harness's own obs::Tracer, and the spans are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/clusterer.h"
#include "obs/trace.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0.0};
  bool trace{false};
  std::string out_dir{".bench_out"};
  /// Self-test hook: sleep `delay_ms` around the harness's call into
  /// `delay_layer` (traj, store or serve), in traced and untraced runs alike.
  std::string delay_layer;
  double delay_ms{0.0};
  unsigned threads{1};  ///< Worker threads for Phase 1 and Phase 3 (nproc).
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank quantile `q` in (0, 1] of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Samples strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& v, double threshold);

/// What a correct clustering must reproduce: the phase output counts plus a
/// hash over every final cluster's participant list, in cluster order.
struct Digest {
  std::size_t base_clusters{0};
  std::size_t flows{0};
  std::size_t final_clusters{0};
  std::uint64_t participants_hash{0};

  friend bool operator==(const Digest&, const Digest&) = default;
  [[nodiscard]] std::string str() const;
};

[[nodiscard]] Digest digest_of(std::size_t base_clusters, std::size_t flows,
                               const std::vector<neat::FinalCluster>& finals);
[[nodiscard]] Digest digest_of(const neat::Result& r);

/// Collects a run's results: end-to-end or per-layer metrics, operation
/// counts, provenance, and (traced runs) the spans of the harness's tracer.
class Recorder {
 public:
  explicit Recorder(const Options& options);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool tracing() const { return options_.trace; }
  [[nodiscard]] neat::obs::Tracer& tracer() { return tracer_; }

  /// Sets an end-to-end metric (reported by untraced runs).
  void end_to_end(const std::string& name, double value, const std::string& unit);

  /// Sets a per-layer metric (reported by traced runs).
  void layer(const std::string& name, double value, const std::string& unit);

  /// Keeps the raw samples behind a metric for the result file.
  void samples(const std::string& name, const std::vector<double>& values);

  /// Records one provenance entry (nproc, thread counts, input sizes, ...).
  void provenance(const std::string& key, const std::string& value);
  void provenance(const std::string& key, double value);

  /// Counts an attempted operation, failed or not; a failure is also logged
  /// to stderr with `what`.
  void attempt(bool ok, const std::string& what = "");

  /// Adds operations counted elsewhere (the query load generators).
  void add_attempts(std::uint64_t attempted, std::uint64_t failed);

  /// Sleeps the configured self-test delay when `layer` is the slowed one.
  void maybe_delay(const char* layer) const;

  /// Prints every metric with its unit, writes the result file (and the span
  /// file of a traced run) under options().out_dir, and prints the final
  /// one-line JSON result. Returns the process exit code.
  int finish();

 private:
  Options options_;
  neat::obs::Tracer tracer_;
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
  std::vector<std::pair<std::string, std::string>> provenance_;  ///< Raw JSON values.
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Times `fn()` inside a span named `name` (static storage) on the
/// recorder's tracer, appending the wall seconds to `out` when non-null.
template <class Fn>
decltype(auto) timed(Recorder& rec, const char* name, std::vector<double>* out, Fn&& fn) {
  struct Guard {
    neat::obs::ScopedSpan span;
    Clock::time_point t0;
    std::vector<double>* out;
    ~Guard() {
      if (out != nullptr) out->push_back(seconds_since(t0));
    }
  } guard{neat::obs::ScopedSpan(name, rec.tracer()), Clock::now(), out};
  return fn();
}

// Workloads (batch.cpp).
void run_city_csv(Recorder& rec);
void run_corridor_columnar(Recorder& rec);

}  // namespace perfbench
