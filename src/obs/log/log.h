// Async structured logging — the third pillar of the observability layer
// (counters live in obs/registry.h, spans in obs/trace.h).
//
// A log statement formats into a fixed-size Record on the calling thread's
// lock-free SPSC ring (obs/spsc_ring.h, shared with the profiler) and
// returns; a background writer thread drains every ring, orders the batch
// by wall clock and emits one JSON line per record to the sink (stderr, a
// file, or a test callback). The hot path never allocates, locks or
// blocks:
//
//   * module lookup is a lock-free scan of an append-only table (a
//     handful of entries, so a few string compares);
//   * a statement below its module's level costs that scan plus one
//     relaxed atomic load — leaving NEAT_LOG(kDebug, ...) in hot paths is
//     free for practical purposes;
//   * an enabled statement formats message and key=value fields directly
//     into the claimed ring slot with std::to_chars — no iostreams, no
//     temporary strings;
//   * a full ring DROPS the record and bumps
//     `neat_obs_log_dropped_total{module}` — logging pressure can never
//     stall a request thread.
//
// Each emitted line is one standalone JSON object:
//
//   {"ts":"2026-08-08T12:00:00.123456Z","level":"info","module":"net",
//    "msg":"slow request","trace_id":7,"tid":3,"endpoint":"nearest",
//    "duration_ms":812.4}
//
// `trace_id` is pulled from obs::current_trace_id() automatically (omitted
// when 0), so one grep joins log lines against /tracez and /profilez.
// Repeated identical (module, level, message) records within
// `rate_limit_window` are suppressed and later summarized by a single line
// carrying `"suppressed":N`. The writer also counts every emitted line in
// `neat_obs_log_lines_total{level}`.
//
// Per-module levels are runtime-adjustable (the admin plane's GET/PUT
// /logz endpoint is a thin wrapper over set_level / logz_json), so a
// production process can be flipped to debug for one subsystem without a
// restart.
//
// Usage — the macro logs through Logger::global():
//
//   NEAT_LOG(kInfo, "net").msg("listening").kv("port", port);
//   NEAT_LOG(kWarn, "serve").msg("batch rejected").kv("capacity", cap);
//
// Tests construct private Loggers (own registry, capture sink) and log via
// Statement(logger, Level::kInfo, "mod") directly.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/log/record.h"
#include "obs/registry.h"

namespace neat::obs::log {

/// Severity ladder; kOff silences a module entirely.
enum class Level : std::uint8_t {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Lower-case level name ("trace" ... "error", "off").
[[nodiscard]] const char* level_name(Level level);

/// Parses a lower-case level name; nullopt on anything else.
[[nodiscard]] std::optional<Level> parse_level(std::string_view name);

class Logger;

/// One named subsystem of a Logger ("net", "serve", "core", ...), holding
/// its runtime-adjustable level and its cached drop counter. Modules are
/// created on first use and live for the logger's lifetime; every member a
/// statement touches is lock-free.
class Module {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }
  /// Whether a statement at `level` passes this module's filter.
  [[nodiscard]] bool enabled(Level level) const {
    return static_cast<std::uint8_t>(level) >=
           level_.load(std::memory_order_relaxed);
  }

 private:
  friend class Logger;
  friend class Statement;

  std::string name_;
  std::atomic<std::uint8_t> level_{static_cast<std::uint8_t>(Level::kInfo)};
  Counter* dropped_{nullptr};  ///< neat_obs_log_dropped_total{module=name}.
};

/// Tuning of a Logger. The global logger additionally honours the
/// NEAT_LOG_LEVEL, NEAT_LOG_RING_SLOTS and NEAT_LOG_POLL_MS environment
/// variables (the latter two exist to force tiny-ring / slow-drain runs in
/// CI without recompiling).
struct LoggerOptions {
  /// Level given to modules that have not been set explicitly.
  Level default_level{Level::kInfo};
  /// Slots of each per-thread record ring (clamped to >= 2).
  std::size_t ring_slots{1024};
  /// How long the writer sleeps between drain sweeps when idle.
  std::chrono::milliseconds poll_period{20};
  /// Window within which repeated identical (module, level, message)
  /// records are suppressed; 0 disables rate limiting.
  std::chrono::milliseconds rate_limit_window{1000};
  /// Registry for neat_obs_log_* series; null = Registry::global().
  Registry* registry{nullptr};
};

/// Receives each fully formatted JSON line (no trailing newline). Invoked
/// from the writer thread only, so a sink needs no internal locking.
using Sink = std::function<void(std::string_view line)>;

/// An async structured logger: per-thread rings in, JSON lines out.
/// `Logger::global()` is the process-wide instance NEAT_LOG reports into;
/// tests may construct private loggers. The constructor starts the writer
/// thread; the destructor drains every ring, flushes pending suppression
/// summaries and joins it. Threads must not log to a logger being
/// destroyed (automatic for the global instance).
class Logger {
 public:
  /// Loggers that can be alive at once. Each holds one process-wide slot
  /// from construction to destruction; a logger constructed while every
  /// slot is taken drops (and counts) each record sent to it.
  static constexpr std::uint32_t kMaxLiveLoggers = 8;

  explicit Logger(LoggerOptions options = {});
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The process-wide logger (options from the environment, see
  /// LoggerOptions). NEAT_LOG logs here.
  static Logger& global();

  /// The module named `name`, created at the default level on first use.
  /// The returned reference is valid for the logger's lifetime. Lock-free
  /// when the module exists; takes the registration mutex the first time.
  Module& module(const char* name);

  /// Sets `module`'s level (creating the module if needed).
  void set_level(std::string_view module, Level level);

  /// Sets the default level AND flips every existing module to it (the
  /// startup `--log-level` semantic; use set_level for one module).
  void set_default_level(Level level);

  [[nodiscard]] Level default_level() const {
    return static_cast<Level>(default_level_.load(std::memory_order_relaxed));
  }

  /// Replaces the sink; null restores the default (stderr). The change
  /// takes effect on the writer's next sweep.
  void set_sink(Sink sink);

  /// Routes output to `path` (truncating); false when the file cannot be
  /// opened (the current sink is kept). A set_sink() callback wins over
  /// the file.
  bool set_output_file(const std::string& path);

  /// Blocks until every record published before this call has been emitted
  /// (or suppressed) by the writer.
  void flush();

  /// Records dropped because a ring was full (sum over modules).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Records swallowed by rate limiting (later reported in summaries).
  [[nodiscard]] std::uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

  /// JSON lines emitted (suppression summaries included).
  [[nodiscard]] std::uint64_t lines() const {
    return lines_.load(std::memory_order_relaxed);
  }

  /// The /logz payload: {"default":"info","lines":N,"dropped":N,
  /// "suppressed":N,"modules":[{"module":"net","level":"info"},...]}.
  [[nodiscard]] std::string logz_json() const;

  // --- implementation surface for Statement and the signal-safe path.

  /// The calling thread's ring for this logger, registered on first use.
  /// Returns nullptr only when this logger holds no slot (kMaxLiveLoggers
  /// other loggers were alive when it was constructed).
  RecordRing* local_ring();

  /// Emits a preformatted message from an async-signal context: uses the
  /// calling thread's ring only if it already exists and no statement on
  /// this thread is mid-flight (the reentrancy guard), so it never locks
  /// or allocates. Returns false when the caller must fall back to its own
  /// signal-safe channel (write(2)). `module` must come from this logger.
  bool try_log_signal_safe(Level level, Module& module, const char* message) noexcept;

  /// Counts one dropped record against `module` (ring full).
  void count_drop(Module& module);

 private:
  friend class Statement;

  struct SuppressState {
    std::int64_t last_emit_ns{0};
    std::uint64_t suppressed{0};
    std::uint8_t level{0};
    const Module* module{nullptr};
  };

  void writer_loop();
  /// Drains every ring, orders by wall clock, emits. Returns records
  /// processed. `final_sweep` force-flushes pending suppression summaries.
  std::size_t sweep(bool final_sweep);
  void emit_record(const Record& record, std::string& line_buf);
  void emit_summary(const std::string& key, SuppressState& state, std::string& line_buf);
  void write_line(std::string_view line);
  Counter& line_counter(Level level);

  /// One thread's ring and the records it points into.
  struct ThreadRing {
    RecordRing ring;
    std::unique_ptr<Record[]> records;
  };

  LoggerOptions options_;
  Registry* registry_;  ///< Resolved (never null).
  /// Process-wide unique, never reused: tells this logger's thread-local
  /// entries apart from those of an earlier holder of the same slot.
  const std::uint64_t id_;
  /// Index of this logger's thread-local entry, held until destruction;
  /// kMaxLiveLoggers when every slot was taken.
  const std::uint32_t slot_;

  // Module table: append-only, published via count_ so statements scan it
  // lock-free; registration serializes on mu_.
  static constexpr std::size_t kMaxModules = 64;
  std::unique_ptr<Module> modules_[kMaxModules];
  std::atomic<std::size_t> module_count_{0};
  std::atomic<std::uint8_t> default_level_;

  mutable std::mutex mu_;  ///< Guards registration + rings_ + sink state.
  std::vector<std::unique_ptr<ThreadRing>> rings_;  ///< Freed with the logger.
  std::atomic<std::uint32_t> next_tid_{1};
  Sink sink_;                       ///< Guarded by mu_.
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out_file_;  ///< Guarded by mu_.

  std::atomic<std::uint64_t> pushed_{0};   ///< Records published to rings.
  std::atomic<std::uint64_t> drained_{0};  ///< Records the writer consumed.
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> suppressed_{0};
  std::atomic<std::uint64_t> lines_{0};

  Counter* suppressed_counter_{nullptr};
  Counter* level_counters_[5]{};  ///< neat_obs_log_lines_total{level}.

  std::unordered_map<std::string, SuppressState> suppress_;  ///< Writer only.

  std::mutex writer_mu_;
  std::condition_variable writer_cv_;   ///< Wakes the writer (flush/stop).
  std::condition_variable drained_cv_;  ///< Signals sweep completion.
  bool stop_{false};
  bool wake_{false};
  std::thread writer_;  ///< Last member: started after all state above.
};

/// One in-flight log statement: claims a ring slot on construction (when
/// the level passes and the ring has room), formats in place via msg()/
/// kv(), publishes on destruction. Inert statements (filtered or dropped)
/// make every method a no-op. Not copyable; intended as the full-expression
/// temporary NEAT_LOG produces.
class Statement {
 public:
  Statement(Logger& logger, Level level, const char* module);
  ~Statement();
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  /// Sets the message (the rate-limit key). Truncated at kMaxMessage.
  Statement& msg(std::string_view message);

  /// Appends a key/value field. Keys must be plain ASCII identifiers and
  /// must not collide with the envelope keys (ts, level, module, msg,
  /// trace_id, tid, suppressed, log_truncated). A pair that would overflow
  /// the record is dropped whole and the line is marked log_truncated.
  Statement& kv(const char* key, double v);
  Statement& kv(const char* key, bool v);
  Statement& kv(const char* key, const char* v);
  Statement& kv(const char* key, std::string_view v);
  Statement& kv(const char* key, const std::string& v) {
    return kv(key, std::string_view(v));
  }
  template <class T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  Statement& kv(const char* key, T v) {
    if constexpr (std::is_signed_v<T>) {
      return kv_i64(key, static_cast<std::int64_t>(v));
    } else {
      return kv_u64(key, static_cast<std::uint64_t>(v));
    }
  }

  /// Whether this statement is recording (passed the filter and claimed a
  /// slot).
  [[nodiscard]] bool active() const { return record_ != nullptr; }

 private:
  Statement& kv_u64(const char* key, std::uint64_t v);
  Statement& kv_i64(const char* key, std::int64_t v);
  /// Reserves room for a full `,"key":<worst_case>` unit; null when the
  /// record is inert or the unit cannot fit (marks truncation).
  char* reserve_field(const char* key, std::size_t worst_case_value);

  Record* record_{nullptr};
  RecordRing* ring_{nullptr};
  Logger* logger_{nullptr};
};

}  // namespace neat::obs::log

/// Logs one structured line through Logger::global():
///   NEAT_LOG(kInfo, "net").msg("listening").kv("port", port);
/// `level_` is a log::Level enumerator name; `module_` a (string-literal)
/// module name. A statement below the module's runtime level costs a
/// lock-free table scan plus one relaxed atomic load.
#define NEAT_LOG(level_, module_)                                     \
  ::neat::obs::log::Statement(::neat::obs::log::Logger::global(),     \
                              ::neat::obs::log::Level::level_, module_)
