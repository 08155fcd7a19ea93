#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>

#include "obs/registry.h"

namespace neat::obs {

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::string format_json_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no Inf/NaN literals
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc() ? std::string(buf.data(), ptr) : "0";
}

// One cached (tracer id -> thread log) entry per tracer this thread has
// touched; linear scan is fine because a thread talks to very few tracers
// (usually just the global one).
struct LocalCacheEntry {
  std::uint64_t tracer_id;
  std::shared_ptr<Tracer::ThreadLog> log;
};

thread_local std::vector<LocalCacheEntry> tl_logs;

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// The process-wide drop counter; created lazily so registries stay empty
// until the first span is actually overwritten.
Counter& spans_dropped_counter() {
  static Counter& c = Registry::global().counter("neat_obs_spans_dropped_total");
  return c;
}

}  // namespace

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {
// Trivially constructed/destroyed thread-local, so reading it is a constant
// offset from the thread pointer — safe from signal handlers (the logger's
// emergency path reads it) and free of TLS guard branches.
thread_local std::uint64_t t_trace_id = 0;
}  // namespace

std::uint64_t current_trace_id() { return t_trace_id; }

void set_current_trace_id(std::uint64_t id) { t_trace_id = id; }

TraceIdScope::TraceIdScope(std::uint64_t id) : prev_(t_trace_id) {
  t_trace_id = id;
}

TraceIdScope::~TraceIdScope() { t_trace_id = prev_; }

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

Tracer::Tracer() : id_(next_tracer_id()) {
  process_epoch();  // pin the epoch no later than the first tracer
}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

double Tracer::now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   process_epoch())
      .count();
}

Tracer::ThreadLog& Tracer::local_log() {
  for (const LocalCacheEntry& e : tl_logs) {
    if (e.tracer_id == id_) return *e.log;
  }
  auto log = std::make_shared<ThreadLog>();
  log->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(log);
  }
  tl_logs.push_back({id_, log});
  return *log;
}

void Tracer::set_thread_name(const std::string& name) {
  if (!enabled()) return;
  ThreadLog& log = local_log();
  const std::lock_guard<std::mutex> lock(log.mu);
  log.name = name;
}

std::size_t Tracer::span_count() const {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    logs = logs_;
  }
  std::size_t n = 0;
  for (const auto& log : logs) {
    const std::lock_guard<std::mutex> lock(log->mu);
    n += log->events.size();
  }
  return n;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    logs = logs_;
  }
  for (const auto& log : logs) {
    const std::lock_guard<std::mutex> lock(log->mu);
    log->events.clear();
    log->head = 0;
    log->name.clear();
  }
}

void Tracer::record(SpanEvent event) {
  const std::size_t cap = max_spans_.load(std::memory_order_relaxed);
  ThreadLog& log = local_log();
  const std::lock_guard<std::mutex> lock(log.mu);
  if (log.events.size() < cap) {
    log.events.push_back(std::move(event));
    return;
  }
  // Ring full: recycle the oldest slot (modulo the actual size, which may
  // exceed a capacity that was lowered after the log grew).
  log.events[log.head] = std::move(event);
  log.head = (log.head + 1) % log.events.size();
  dropped_.fetch_add(1, std::memory_order_relaxed);
  spans_dropped_counter().add(1);
}

std::string Tracer::to_chrome_json() const {
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    logs = logs_;
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  for (const auto& log : logs) {
    const std::lock_guard<std::mutex> lock(log->mu);
    const std::string tid = std::to_string(log->tid);
    if (!log->name.empty()) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + tid +
           ",\"args\":{\"name\":\"" + json_escape(log->name) + "\"}}");
    }
    for (const SpanEvent& e : log->events) {
      std::string event = "{\"name\":\"";
      append_json_escaped(event, e.name);
      event += "\",\"cat\":\"neat\",\"ph\":\"X\",\"ts\":";
      event += format_json_double(e.ts_us);
      event += ",\"dur\":";
      event += format_json_double(e.dur_us);
      event += ",\"pid\":1,\"tid\":";
      event += tid;
      if (!e.args_json.empty()) {
        event += ",\"args\":{";
        event += e.args_json;
        event += '}';
      }
      event += '}';
      emit(event);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::to_tracez_json(std::size_t max_spans) const {
  struct Row {
    std::uint32_t tid;
    std::string thread;
    SpanEvent event;
  };
  std::vector<Row> rows;
  {
    std::vector<std::shared_ptr<ThreadLog>> logs;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      logs = logs_;
    }
    for (const auto& log : logs) {
      const std::lock_guard<std::mutex> lock(log->mu);
      for (const SpanEvent& e : log->events) rows.push_back({log->tid, log->name, e});
    }
  }
  // Most recently finished first.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.event.ts_us + a.event.dur_us > b.event.ts_us + b.event.dur_us;
  });
  const std::size_t total = rows.size();
  if (rows.size() > max_spans) rows.resize(max_spans);

  std::string out = "{\"spans\":[";
  bool first = true;
  for (const Row& r : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, r.event.name);
    out += "\",\"tid\":";
    out += std::to_string(r.tid);
    if (!r.thread.empty()) {
      out += ",\"thread\":\"";
      append_json_escaped(out, r.thread);
      out += '"';
    }
    out += ",\"ts_us\":";
    out += format_json_double(r.event.ts_us);
    out += ",\"dur_us\":";
    out += format_json_double(r.event.dur_us);
    if (!r.event.args_json.empty()) {
      out += ",\"args\":{";
      out += r.event.args_json;
      out += '}';
    }
    out += '}';
  }
  out += "],\"span_count\":";
  out += std::to_string(total);
  out += ",\"spans_dropped\":";
  out += std::to_string(spans_dropped());
  out += '}';
  return out;
}

ScopedSpan::ScopedSpan(const char* name, Tracer& tracer) : name_(name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  start_us_ = Tracer::now_us();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const double end_us = Tracer::now_us();
  tracer_->record({name_, start_us_, std::max(0.0, end_us - start_us_), std::move(args_)});
}

void ScopedSpan::arg_raw(const char* key, std::string value_json) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  append_json_escaped(args_, key);
  args_ += "\":";
  args_ += value_json;
}

void ScopedSpan::arg(const char* key, std::uint64_t v) {
  arg_raw(key, std::to_string(v));
}

void ScopedSpan::arg(const char* key, std::int64_t v) {
  arg_raw(key, std::to_string(v));
}

void ScopedSpan::arg(const char* key, double v) { arg_raw(key, format_json_double(v)); }

void ScopedSpan::arg(const char* key, const char* v) { arg(key, std::string(v)); }

void ScopedSpan::arg(const char* key, const std::string& v) {
  arg_raw(key, '"' + json_escape(v) + '"');
}

}  // namespace neat::obs
