// Scoped-span pipeline tracer — the timeline half of the observability layer
// (the counter half lives in obs/registry.h).
//
// A span is one named wall-clock interval (steady-clock µs) on one thread,
// opened/closed by the RAII ScopedSpan. Each thread appends finished spans
// to its own log (per-thread mutex, uncontended except during export), so
// the natural nesting of C++ scopes becomes the thread-local span stack —
// Chrome's trace viewer reconstructs the hierarchy from interval
// containment per thread. Spans can carry key/value args (counters,
// cardinalities) that show up in the viewer's detail pane.
//
// Cost model: tracing is off by default; a disabled ScopedSpan is one
// relaxed atomic load in the constructor and a dead branch in the
// destructor, so leaving spans compiled into hot paths is free for
// practical purposes. When enabled, each span is two steady_clock reads
// plus one vector push.
//
// Memory model: each thread log is a bounded ring buffer
// (max_spans_per_thread(), default 64k spans) that overwrites its oldest
// span once full, so a long-lived server with tracing enabled holds the
// most recent spans at a fixed memory ceiling instead of growing without
// bound. Every overwrite bumps spans_dropped() and the process-wide
// `neat_obs_spans_dropped_total` registry counter.
//
// Export is Chrome trace_event JSON (the `{"traceEvents": [...]}` object
// form) loadable in chrome://tracing and https://ui.perfetto.dev, or the
// admin server's /tracez JSON (most recently finished spans first).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace neat::obs {

/// Collects spans from any number of threads. `Tracer::global()` is the
/// process-wide instance the pipeline reports into; tests may construct
/// private tracers. Thread logs outlive their threads, so spans from joined
/// workers are always part of the export.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer.
  static Tracer& global();

  /// Turns span collection on or off (off at construction). Spans already
  /// open keep their state; only constructor-time state matters per span.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Names the calling thread in the exported trace (e.g. "refine-worker-3").
  /// No-op when disabled.
  void set_thread_name(const std::string& name);

  /// Total spans currently held, across all threads (bounded by
  /// thread count × max_spans_per_thread()).
  [[nodiscard]] std::size_t span_count() const;

  /// Ring-buffer capacity of each per-thread span log. Lowering it does not
  /// shrink logs that already grew larger; they stop growing and recycle in
  /// place. Capacity 0 is clamped to 1.
  void set_max_spans_per_thread(std::size_t cap) {
    max_spans_.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t max_spans_per_thread() const {
    return max_spans_.load(std::memory_order_relaxed);
  }

  /// Spans overwritten because a thread log was full (cumulative; clear()
  /// does not reset it).
  [[nodiscard]] std::uint64_t spans_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Discards every recorded span (thread logs stay registered).
  void clear();

  /// Chrome trace_event JSON: complete ("ph":"X") events with ts/dur in µs
  /// plus thread_name metadata, wrapped as {"traceEvents": [...]}.
  [[nodiscard]] std::string to_chrome_json() const;

  /// The admin server's /tracez payload: the most recently finished
  /// `max_spans` spans across all threads (newest first) as
  /// {"spans":[{"name","thread","tid","ts_us","dur_us","args"}...],
  ///  "span_count":N,"spans_dropped":M}.
  [[nodiscard]] std::string to_tracez_json(std::size_t max_spans) const;

  /// Microseconds on the tracer's steady clock (process-start epoch).
  [[nodiscard]] static double now_us();

  // Implementation detail, public only for the thread-local log cache in
  // trace.cpp; not part of the supported API.
  struct SpanEvent {
    const char* name;       // static-storage span name
    double ts_us;           // start, µs since process start
    double dur_us;          // duration, µs
    std::string args_json;  // preformatted `"k":v` fragments, comma-joined
  };

  struct ThreadLog {
    std::mutex mu;
    std::uint32_t tid{0};
    std::string name;
    // Ring buffer: grows until max_spans_per_thread(), then `head` walks the
    // oldest slot and new spans overwrite it.
    std::vector<SpanEvent> events;
    std::size_t head{0};
  };

 private:
  friend class ScopedSpan;

  /// The calling thread's log for this tracer, registered on first use.
  ThreadLog& local_log();

  /// Appends `event` to the calling thread's log, recycling the oldest slot
  /// when the ring is full.
  void record(SpanEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> max_spans_{65536};
  std::atomic<std::uint64_t> dropped_{0};
  const std::uint64_t id_;  // distinguishes tracers in the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  std::atomic<std::uint32_t> next_tid_{1};
};

/// A process-unique request-correlation id (monotonic, never 0). Mint one
/// per client request / ingest batch, attach it to every span the request
/// touches (`span.arg("trace_id", id)`) and echo it in the response, so one
/// Perfetto / /tracez search follows one request end-to-end.
[[nodiscard]] std::uint64_t next_trace_id();

/// The ambient trace id of the calling thread (0 = none). Request planes
/// install the id they minted with a TraceIdScope for the duration of the
/// request, and every NEAT_LOG line emitted on the thread carries it
/// automatically — that is how a slow-request log line joins /tracez.
/// Reading is one trivial thread-local load (async-signal-safe).
[[nodiscard]] std::uint64_t current_trace_id();

/// Sets the calling thread's ambient trace id (prefer TraceIdScope).
void set_current_trace_id(std::uint64_t id);

/// RAII ambient trace id: installs `id` for the calling thread on
/// construction and restores the previous value on destruction, so nested
/// scopes (a request handler calling into ingest) unwind correctly.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id);
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: records [construction, destruction) on the calling thread of
/// `tracer`. Near-zero cost when the tracer is disabled. Spans must be
/// closed on the thread that opened them (automatic with scope-based use).
class ScopedSpan {
 public:
  /// `name` must have static storage duration (string literals).
  explicit ScopedSpan(const char* name, Tracer& tracer = Tracer::global());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a key/value argument shown in the trace viewer. No-op when
  /// the span is inactive (tracer disabled at construction).
  void arg(const char* key, std::uint64_t v);
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, double v);
  void arg(const char* key, const char* v);
  void arg(const char* key, const std::string& v);

  /// Whether this span is recording (tracer was enabled at construction).
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

 private:
  void arg_raw(const char* key, std::string value_json);

  Tracer* tracer_{nullptr};  // null when inactive
  const char* name_;
  double start_us_{0.0};
  std::string args_;
};

/// Appends `s` JSON-string-escaped (quotes not included): `"`, `\` and the
/// control characters, which become \n, \r, \t or \u00XX. The one escaper
/// of the exporters and the structured log.
void append_json_escaped(std::string& out, std::string_view s);

/// append_json_escaped() into a fresh string.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace neat::obs
