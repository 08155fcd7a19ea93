#include "obs/log/log.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "common/error.h"
#include "obs/trace.h"

namespace neat::obs::log {

namespace {

// The calling thread's rings, one entry per logger slot. Every live Logger
// holds one of Logger::kMaxLiveLoggers process-wide slots and gives it back
// on destruction, so the table bounds the loggers alive at once, not every
// logger a thread has ever used. An entry belongs to the slot's current
// holder only while its `logger_id` matches: the next holder of a slot has
// a fresh id, so it never picks up the previous holder's (freed) ring.
// Trivially constructed/destroyed (plain zero-init), so access is a
// constant offset from the thread pointer with no TLS guard branch — the
// property the signal-safe path (try_log_signal_safe) depends on.
// `in_log` is the reentrancy guard: while a Statement on this thread is
// mid-push, a signal handler must not push to the same SPSC ring.
struct TlsEntry {
  std::uint64_t logger_id;
  RecordRing* ring;
};

struct TlsSlots {
  TlsEntry entries[Logger::kMaxLiveLoggers];
  std::uint32_t in_log;
};

thread_local TlsSlots t_slots;

/// Bit s is set while slot s is held by a live Logger.
std::atomic<std::uint32_t> g_live_slots{0};

/// Takes the lowest free slot, or returns kMaxLiveLoggers when none is free.
std::uint32_t acquire_slot() {
  constexpr std::uint32_t kAll = (1u << Logger::kMaxLiveLoggers) - 1;
  std::uint32_t used = g_live_slots.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t free = ~used & kAll;
    if (free == 0) return Logger::kMaxLiveLoggers;
    const std::uint32_t slot = static_cast<std::uint32_t>(std::countr_zero(free));
    if (g_live_slots.compare_exchange_weak(used, used | (1u << slot),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      return slot;
    }
  }
}

void release_slot(std::uint32_t slot) {
  if (slot < Logger::kMaxLiveLoggers) {
    g_live_slots.fetch_and(~(1u << slot), std::memory_order_acq_rel);
  }
}

std::uint64_t next_logger_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t wall_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Bytes `c` occupies inside a JSON string (see obs::append_json_escaped).
std::size_t escaped_len(char c) {
  switch (c) {
    case '"':
    case '\\':
    case '\n':
    case '\r':
    case '\t':
      return 2;
    default:
      return static_cast<unsigned char>(c) < 0x20 ? 6 : 1;
  }
}

/// `{"ts":"2026-08-08T12:00:00.123456Z"` — UTC wall clock with microseconds.
void append_timestamp(std::string& out, std::int64_t wall_ns) {
  const std::time_t secs = static_cast<std::time_t>(wall_ns / 1'000'000'000);
  const long micros = static_cast<long>((wall_ns % 1'000'000'000) / 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[48];
  const std::size_t n = std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  out.append(buf, n);
  std::snprintf(buf, sizeof(buf), ".%06ldZ", micros);
  out += buf;
}

/// Key separator inside suppression-map keys; cannot appear in module
/// names and is vanishingly unlikely in messages.
inline constexpr char kKeySep = '\x1f';

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace: return "trace";
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}

std::optional<Level> parse_level(std::string_view name) {
  if (name == "trace") return Level::kTrace;
  if (name == "debug") return Level::kDebug;
  if (name == "info") return Level::kInfo;
  if (name == "warn") return Level::kWarn;
  if (name == "error") return Level::kError;
  if (name == "off") return Level::kOff;
  return std::nullopt;
}

// --- Logger -----------------------------------------------------------

Logger::Logger(LoggerOptions options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry : &Registry::global()),
      id_(next_logger_id()),
      slot_(acquire_slot()),
      default_level_(static_cast<std::uint8_t>(options.default_level)),
      out_file_(nullptr, &std::fclose) {
  options_.ring_slots = std::max<std::size_t>(2, options_.ring_slots);
  if (options_.poll_period.count() <= 0) options_.poll_period = std::chrono::milliseconds(1);
  registry_->set_help("neat_obs_log_lines_total",
                      "Structured log lines emitted, by level (suppression "
                      "summaries count at the suppressed line's level).");
  registry_->set_help("neat_obs_log_dropped_total",
                      "Structured log records dropped because the producing "
                      "thread's ring was full, by module.");
  registry_->set_help("neat_obs_log_suppressed_total",
                      "Structured log records swallowed by rate limiting "
                      "(reported later in \"suppressed\":N summary lines).");
  suppressed_counter_ = &registry_->counter("neat_obs_log_suppressed_total");
  for (std::uint8_t l = 0; l < 5; ++l) {
    level_counters_[l] = &registry_->counter(
        "neat_obs_log_lines_total", {{"level", level_name(static_cast<Level>(l))}});
  }
  writer_ = std::thread([this] { writer_loop(); });
}

Logger::~Logger() {
  {
    const std::lock_guard<std::mutex> lock(writer_mu_);
    stop_ = true;
    wake_ = true;
  }
  writer_cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  release_slot(slot_);
}

Logger& Logger::global() {
  // Touching Registry::global() in the constructor pins its construction
  // before (and therefore destruction after) this logger, so the final
  // drain at exit can still bump counters. Env overrides exist so CI can
  // force a tiny-ring / slow-drain run without recompiling.
  static Logger logger([] {
    LoggerOptions opts;
    if (const char* v = std::getenv("NEAT_LOG_LEVEL")) {
      if (const auto level = parse_level(v)) opts.default_level = *level;
    }
    if (const char* v = std::getenv("NEAT_LOG_RING_SLOTS")) {
      const unsigned long slots = std::strtoul(v, nullptr, 10);
      if (slots >= 2) opts.ring_slots = static_cast<std::size_t>(slots);
    }
    if (const char* v = std::getenv("NEAT_LOG_POLL_MS")) {
      const unsigned long ms = std::strtoul(v, nullptr, 10);
      if (ms > 0) opts.poll_period = std::chrono::milliseconds(ms);
    }
    return opts;
  }());
  return logger;
}

Module& Logger::module(const char* name) {
  const std::string_view wanted(name);
  // Hot path: the table is append-only and published via module_count_, so
  // a scan without the mutex sees fully constructed modules.
  const std::size_t count = module_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    if (modules_[i]->name_ == wanted) return *modules_[i];
  }
  // Cold path: register under the mutex (double-checked).
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = module_count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (modules_[i]->name_ == wanted) return *modules_[i];
  }
  NEAT_EXPECT(n < kMaxModules, "too many log modules");
  auto mod = std::make_unique<Module>();
  mod->name_.assign(wanted);
  mod->level_.store(default_level_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  mod->dropped_ = &registry_->counter("neat_obs_log_dropped_total",
                                      {{"module", mod->name_}});
  modules_[n] = std::move(mod);
  module_count_.store(n + 1, std::memory_order_release);
  return *modules_[n];
}

void Logger::set_level(std::string_view module_name, Level level) {
  // module() wants a NUL-terminated name; the cold path is fine with the
  // temporary copy.
  const std::string name(module_name);
  Module& mod = module(name.c_str());
  mod.level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
}

void Logger::set_default_level(Level level) {
  default_level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
  const std::size_t count = module_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    modules_[i]->level_.store(static_cast<std::uint8_t>(level),
                              std::memory_order_relaxed);
  }
}

void Logger::set_sink(Sink sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

bool Logger::set_output_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out_file_.reset(f);
  return true;
}

void Logger::flush() {
  const std::uint64_t target = pushed_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(writer_mu_);
  wake_ = true;
  writer_cv_.notify_one();
  drained_cv_.wait(lock, [&] {
    return drained_.load(std::memory_order_acquire) >= target;
  });
}

RecordRing* Logger::local_ring() {
  if (slot_ >= kMaxLiveLoggers) return nullptr;
  TlsEntry& entry = t_slots.entries[slot_];
  if (entry.logger_id == id_) return entry.ring;
  auto owned = std::make_unique<ThreadRing>();
  owned->records = std::make_unique<Record[]>(options_.ring_slots);
  RecordRing* ring = &owned->ring;
  ring->slots = owned->records.get();
  ring->capacity = options_.ring_slots;
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::move(owned));
  }
  // A signal handler on this thread may read the entry between the two
  // stores. Storing the ring first means it never sees this logger's id
  // beside the slot's previous ring.
  entry.ring = ring;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  entry.logger_id = id_;
  return ring;
}

bool Logger::try_log_signal_safe(Level level, Module& module,
                                 const char* message) noexcept {
  if (!module.enabled(level)) return true;  // Filtered: nothing to write anywhere.
  TlsSlots& tls = t_slots;
  if (tls.in_log != 0) return false;  // Interrupted a statement mid-push.
  if (slot_ >= kMaxLiveLoggers || tls.entries[slot_].logger_id != id_) {
    return false;  // Registration would lock + allocate.
  }
  RecordRing* ring = tls.entries[slot_].ring;
  Record* r = ring->begin_push();
  if (r == nullptr) {
    count_drop(module);
    return true;  // Dropped-and-counted is the contract, not a failure.
  }
  r->wall_ns = wall_now_ns();
  r->trace_id = obs::current_trace_id();
  r->tid = ring->tid;
  r->level = static_cast<std::uint8_t>(level);
  r->truncated = 0;
  r->fields_len = 0;
  r->module = &module;
  std::size_t len = std::strlen(message);
  if (len > kMaxMessage) {
    len = kMaxMessage;
    r->truncated = 1;
  }
  std::memcpy(r->msg, message, len);
  r->msg_len = static_cast<std::uint16_t>(len);
  ring->publish();
  pushed_.fetch_add(1, std::memory_order_release);
  return true;
}

void Logger::count_drop(Module& module) {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  module.dropped_->add();
}

std::string Logger::logz_json() const {
  struct Entry {
    std::string name;
    Level level;
  };
  std::vector<Entry> entries;
  const std::size_t count = module_count_.load(std::memory_order_acquire);
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back({modules_[i]->name(), modules_[i]->level()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  std::string out = "{\"default\":\"";
  out += level_name(default_level());
  out += "\",\"lines\":";
  out += std::to_string(lines());
  out += ",\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"suppressed\":";
  out += std::to_string(suppressed());
  out += ",\"modules\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"module\":\"";
    append_json_escaped(out, entries[i].name);
    out += "\",\"level\":\"";
    out += level_name(entries[i].level);
    out += "\"}";
  }
  out += "]}";
  return out;
}

Counter& Logger::line_counter(Level level) {
  const std::uint8_t l = static_cast<std::uint8_t>(level);
  return *level_counters_[l < 5 ? l : 4];
}

void Logger::writer_loop() {
  std::string line_buf;
  line_buf.reserve(1024);
  for (;;) {
    bool stopping;
    {
      std::unique_lock<std::mutex> lock(writer_mu_);
      writer_cv_.wait_for(lock, options_.poll_period, [&] { return stop_ || wake_; });
      wake_ = false;
      stopping = stop_;
    }
    sweep(stopping);
    {
      const std::lock_guard<std::mutex> lock(writer_mu_);
      drained_cv_.notify_all();
    }
    if (stopping) return;
  }
}

std::size_t Logger::sweep(bool final_sweep) {
  // rings_ only grows while the logger lives, so the pointers stay valid
  // after the lock is dropped.
  std::vector<RecordRing*> rings;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& owned : rings_) rings.push_back(&owned->ring);
  }
  std::vector<Record> batch;
  Record r;
  for (RecordRing* ring : rings) {
    while (ring->pop(r)) batch.push_back(r);
  }
  // Records from different threads interleave by wall clock; within one
  // thread stable_sort preserves push order (equal timestamps possible at
  // nanosecond resolution under coarse clocks).
  std::stable_sort(batch.begin(), batch.end(), [](const Record& a, const Record& b) {
    return a.wall_ns < b.wall_ns;
  });
  std::string line_buf;
  for (const Record& rec : batch) emit_record(rec, line_buf);
  drained_.fetch_add(batch.size(), std::memory_order_release);

  // Expired suppression windows report their swallowed repeats; the final
  // sweep force-expires everything so no count is lost at shutdown.
  const std::int64_t window_ns =
      static_cast<std::int64_t>(options_.rate_limit_window.count()) * 1'000'000;
  const std::int64_t now_ns = wall_now_ns();
  for (auto it = suppress_.begin(); it != suppress_.end();) {
    SuppressState& state = it->second;
    if (state.suppressed > 0 &&
        (final_sweep || now_ns - state.last_emit_ns >= window_ns)) {
      emit_summary(it->first, state, line_buf);
    }
    // Prune long-idle entries so the map stays bounded by active keys.
    if (state.suppressed == 0 && now_ns - state.last_emit_ns > 10 * window_ns) {
      it = suppress_.erase(it);
    } else {
      ++it;
    }
  }
  return batch.size();
}

void Logger::emit_record(const Record& record, std::string& line_buf) {
  const Module* module = static_cast<const Module*>(record.module);
  const std::string_view msg(record.msg, record.msg_len);
  const std::int64_t window_ns =
      static_cast<std::int64_t>(options_.rate_limit_window.count()) * 1'000'000;
  SuppressState* state = nullptr;
  if (window_ns > 0) {
    std::string key = module->name();
    key += kKeySep;
    key += static_cast<char>('0' + record.level);
    key += kKeySep;
    key.append(msg);
    state = &suppress_[key];
    if (state->last_emit_ns != 0 &&
        record.wall_ns - state->last_emit_ns < window_ns) {
      state->suppressed += 1;
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      suppressed_counter_->add();
      return;
    }
    if (state->suppressed > 0) {
      // Close the previous window before the fresh line so the summary
      // reads in order.
      emit_summary(key, *state, line_buf);
    }
    state->last_emit_ns = record.wall_ns;
    state->level = record.level;
    state->module = module;
  }

  line_buf.clear();
  append_timestamp(line_buf += "{\"ts\":\"", record.wall_ns);
  line_buf += "\",\"level\":\"";
  line_buf += level_name(static_cast<Level>(record.level));
  line_buf += "\",\"module\":\"";
  append_json_escaped(line_buf, module->name());
  line_buf += "\",\"msg\":\"";
  append_json_escaped(line_buf, msg);
  line_buf += '"';
  if (record.trace_id != 0) {
    line_buf += ",\"trace_id\":";
    line_buf += std::to_string(record.trace_id);
  }
  line_buf += ",\"tid\":";
  line_buf += std::to_string(record.tid);
  line_buf.append(record.fields, record.fields_len);
  if (record.truncated != 0) line_buf += ",\"log_truncated\":true";
  line_buf += '}';

  lines_.fetch_add(1, std::memory_order_relaxed);
  line_counter(static_cast<Level>(record.level)).add();
  write_line(line_buf);
}

void Logger::emit_summary(const std::string& key, SuppressState& state,
                          std::string& line_buf) {
  // The key is module \x1f level \x1f msg; recover the message part.
  const std::size_t msg_at = key.find(kKeySep, key.find(kKeySep) + 1) + 1;
  const std::string_view msg = std::string_view(key).substr(msg_at);

  line_buf.clear();
  append_timestamp(line_buf += "{\"ts\":\"", wall_now_ns());
  line_buf += "\",\"level\":\"";
  line_buf += level_name(static_cast<Level>(state.level));
  line_buf += "\",\"module\":\"";
  append_json_escaped(line_buf, state.module->name());
  line_buf += "\",\"msg\":\"";
  append_json_escaped(line_buf, msg);
  line_buf += "\",\"suppressed\":";
  line_buf += std::to_string(state.suppressed);
  line_buf += '}';

  state.suppressed = 0;
  state.last_emit_ns = wall_now_ns();
  lines_.fetch_add(1, std::memory_order_relaxed);
  line_counter(static_cast<Level>(state.level)).add();
  write_line(line_buf);
}

void Logger::write_line(std::string_view line) {
  // Single writer thread; the lock only orders against sink swaps. Sinks
  // must not call back into methods that take mu_ (set_sink, set_level...).
  const std::lock_guard<std::mutex> lock(mu_);
  if (sink_) {
    sink_(line);
    return;
  }
  std::FILE* out = out_file_ != nullptr ? out_file_.get() : stderr;
  // One buffered write per line (then flush) keeps lines whole even when
  // stderr is shared with other writers.
  std::string with_newline(line);
  with_newline += '\n';
  std::fwrite(with_newline.data(), 1, with_newline.size(), out);
  std::fflush(out);
}

// --- Statement --------------------------------------------------------

Statement::Statement(Logger& logger, Level level, const char* module_name) {
  Module& module = logger.module(module_name);
  if (!module.enabled(level)) return;
  RecordRing* ring = logger.local_ring();
  if (ring == nullptr) {
    logger.count_drop(module);
    return;
  }
  // The guard must be up BEFORE begin_push: a signal handler logging via
  // try_log_signal_safe between our head load and our publish would claim
  // the same slot (two producers on an SPSC ring). Raised here, the
  // handler sees in_log and falls back to write(2) instead.
  t_slots.in_log = 1;
  Record* record = ring->begin_push();
  if (record == nullptr) {
    t_slots.in_log = 0;
    logger.count_drop(module);
    return;
  }
  record->wall_ns = wall_now_ns();
  record->trace_id = obs::current_trace_id();
  record->tid = ring->tid;
  record->level = static_cast<std::uint8_t>(level);
  record->truncated = 0;
  record->msg_len = 0;
  record->fields_len = 0;
  record->module = &module;
  record_ = record;
  ring_ = ring;
  logger_ = &logger;
}

Statement::~Statement() {
  if (record_ == nullptr) return;
  ring_->publish();
  logger_->pushed_.fetch_add(1, std::memory_order_release);
  t_slots.in_log = 0;
}

Statement& Statement::msg(std::string_view message) {
  if (record_ == nullptr) return *this;
  std::size_t len = message.size();
  if (len > kMaxMessage) {
    len = kMaxMessage;
    record_->truncated = 1;
  }
  std::memcpy(record_->msg, message.data(), len);
  record_->msg_len = static_cast<std::uint16_t>(len);
  return *this;
}

char* Statement::reserve_field(const char* key, std::size_t worst_case_value) {
  if (record_ == nullptr) return nullptr;
  const std::size_t key_len = std::strlen(key);
  const std::size_t need = 4 + key_len + worst_case_value;  // ,"key":value
  if (record_->fields_len + need > kMaxFields) {
    record_->truncated = 1;  // Whole pair dropped; the JSON stays well-formed.
    return nullptr;
  }
  char* p = record_->fields + record_->fields_len;
  *p++ = ',';
  *p++ = '"';
  std::memcpy(p, key, key_len);
  p += key_len;
  *p++ = '"';
  *p++ = ':';
  return p;
}

Statement& Statement::kv_u64(const char* key, std::uint64_t v) {
  char* p = reserve_field(key, 20);
  if (p == nullptr) return *this;
  const auto res = std::to_chars(p, p + 20, v);
  record_->fields_len = static_cast<std::uint16_t>(res.ptr - record_->fields);
  return *this;
}

Statement& Statement::kv_i64(const char* key, std::int64_t v) {
  char* p = reserve_field(key, 21);
  if (p == nullptr) return *this;
  const auto res = std::to_chars(p, p + 21, v);
  record_->fields_len = static_cast<std::uint16_t>(res.ptr - record_->fields);
  return *this;
}

Statement& Statement::kv(const char* key, double v) {
  char* p = reserve_field(key, 32);
  if (p == nullptr) return *this;
  char* end;
  if (std::isfinite(v)) {
    end = std::to_chars(p, p + 32, v).ptr;
  } else {
    // JSON has no inf/nan literals; null keeps every line parseable.
    std::memcpy(p, "null", 4);
    end = p + 4;
  }
  record_->fields_len = static_cast<std::uint16_t>(end - record_->fields);
  return *this;
}

Statement& Statement::kv(const char* key, bool v) {
  char* p = reserve_field(key, 5);
  if (p == nullptr) return *this;
  const char* text = v ? "true" : "false";
  const std::size_t n = v ? 4 : 5;
  std::memcpy(p, text, n);
  record_->fields_len = static_cast<std::uint16_t>(p + n - record_->fields);
  return *this;
}

Statement& Statement::kv(const char* key, const char* v) {
  return kv(key, std::string_view(v));
}

Statement& Statement::kv(const char* key, std::string_view v) {
  std::size_t escaped = 0;
  for (const char c : v) escaped += escaped_len(c);
  char* p = reserve_field(key, escaped + 2);
  if (p == nullptr) return *this;
  *p++ = '"';
  for (const char c : v) {
    switch (c) {
      case '"': *p++ = '\\'; *p++ = '"'; break;
      case '\\': *p++ = '\\'; *p++ = '\\'; break;
      case '\n': *p++ = '\\'; *p++ = 'n'; break;
      case '\r': *p++ = '\\'; *p++ = 'r'; break;
      case '\t': *p++ = '\\'; *p++ = 't'; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          *p++ = '\\';
          *p++ = 'u';
          *p++ = '0';
          *p++ = '0';
          *p++ = hex[(c >> 4) & 0xf];
          *p++ = hex[c & 0xf];
        } else {
          *p++ = c;
        }
    }
  }
  *p++ = '"';
  record_->fields_len = static_cast<std::uint16_t>(p - record_->fields);
  return *this;
}

}  // namespace neat::obs::log
