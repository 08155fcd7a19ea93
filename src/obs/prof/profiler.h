// In-process sampling CPU profiler — the "where do the cycles go" half of
// the observability layer (metrics say how much, traces say when, profiles
// say which functions).
//
// A POSIX timer on the process CPU clock (timer_create with
// CLOCK_PROCESS_CPUTIME_ID) delivers SIGPROF at sample_hz; the kernel
// prefers the thread that was running when the process clock expired, so
// samples land on threads in proportion to the CPU they burn — the same
// delivery model gperftools' ITIMER_PROF profiler relies on, without
// per-thread timer registration hooks in every subsystem. The handler is
// strictly async-signal-safe: it reads the interrupted PC and frame
// pointer from the ucontext, walks frame-pointer records with
// process_vm_readv (a syscall that returns EFAULT instead of faulting on a
// wild pointer, so a garbage %rbp in a leaf function can never crash the
// process), and pushes the stack into the calling thread's lock-free SPSC
// ring (obs/prof/sample.h). Rings live in one slab preallocated at start();
// a thread claims its ring on first sample through initial-exec TLS (a
// plain offset-from-thread-pointer read, safe in a handler). Full rings
// and slab exhaustion drop the sample, bump
// `neat_obs_prof_dropped_total`, and emit one rate-limited warning via
// write(2).
//
// Everything expensive is offline: stop() disarms the timer, waits out
// in-flight handlers, drains the rings and aggregates identical stacks.
// Symbolization (obs/prof/symbolize.h: dladdr + /proc/self/maps + hex
// fallback) runs only in Profile::to_folded() / hot_symbols().
//
// Idle cost is zero — no timer armed, no handler fires, no memory held
// beyond this object. Active cost is one ~20-frame walk per sample per
// 1/sample_hz seconds of process CPU time (about 1% at the default 199 Hz).
//
// The profiler is process-global by nature (SIGPROF has one disposition),
// so the only instance is Profiler::global(); concurrent start() returns
// false, which the admin plane's /profilez maps to 409 Conflict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace neat::obs::prof {

/// Tuning of one profiling session.
struct ProfilerOptions {
  /// Samples per second of process CPU time. Odd/prime-ish values avoid
  /// lockstep with 100 Hz periodic work. Clamped to [1, 10000].
  int sample_hz{199};
  /// Distinct threads that can be sampled in one session; later threads
  /// drop (counted). Clamped to >= 1.
  std::size_t max_threads{64};
  /// Per-thread ring capacity in samples; a full ring drops (counted).
  /// Clamped to >= 2.
  std::size_t ring_slots{4096};
};

/// One aggregated stack: program counters leaf-first plus how many samples
/// hit exactly this stack.
struct ProfileStack {
  std::vector<std::uintptr_t> pcs;
  std::uint64_t count{0};
};

/// One row of the top-N table: a symbol and the share of samples whose
/// stack contains it anywhere (inclusive time).
struct HotSymbol {
  std::string symbol;
  double inclusive_pct{0.0};
};

/// The result of one profiling session. Plain data — constructible by
/// tests, serializable offline.
struct Profile {
  std::vector<ProfileStack> stacks;  ///< Aggregated, unordered.
  std::uint64_t samples{0};          ///< Stacks captured into rings.
  std::uint64_t dropped{0};          ///< Lost to full rings / slab exhaustion.
  std::uint64_t truncated{0};        ///< Samples cut at kMaxFrames.
  std::size_t threads_seen{0};       ///< Distinct threads that produced samples.
  double duration_s{0.0};            ///< Wall time between start() and stop().
  int sample_hz{0};

  /// Collapsed-stack ("folded") text: one `frame;frame;...;frame count`
  /// line per unique stack, root first, ready for standard flamegraph
  /// tooling (flamegraph.pl, speedscope, tools/fold2svg.py). Symbolized
  /// via dladdr with `module+0xoff` / bare-hex fallbacks; ';' inside
  /// symbol names is replaced so the separator stays unambiguous.
  [[nodiscard]] std::string to_folded() const;

  /// Top `n` symbols by inclusive sample share, descending. A symbol's
  /// inclusive share counts every sample whose stack contains it at least
  /// once, so leaf helpers and their callers both surface.
  [[nodiscard]] std::vector<HotSymbol> hot_symbols(std::size_t n) const;

  /// Fraction of samples whose stack carries >= 1 symbolized (non-hex)
  /// frame, in [0, 1]. The CI smoke gate requires >= 0.8.
  [[nodiscard]] double symbolized_fraction() const;
};

/// The process-wide sampling profiler. start()/stop() pairs delimit
/// sessions; all methods are thread-safe.
class Profiler {
 public:
  /// The only instance (SIGPROF has exactly one process disposition).
  static Profiler& global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the timer and starts capturing. Returns false (and changes
  /// nothing) when a session is already active — callers surface that as
  /// 409/busy. Throws neat::Error when the OS refuses timer or signal
  /// setup. On non-Linux platforms always returns false.
  bool start(const ProfilerOptions& options = {});

  /// Disarms the timer, waits out in-flight handlers, drains every ring
  /// and returns the aggregated session. Calling stop() with no active
  /// session returns an empty Profile (idempotent).
  Profile stop();

  /// True between a successful start() and the matching stop().
  [[nodiscard]] bool active() const;

  /// Live counters of the current session (or the last finished one):
  /// for /statusz and progress displays. All safe to call concurrently
  /// with sampling.
  [[nodiscard]] std::uint64_t samples_captured() const;
  [[nodiscard]] std::uint64_t samples_dropped() const;
  [[nodiscard]] std::size_t threads_seen() const;
  [[nodiscard]] double session_seconds() const;  ///< 0 when never started.
  [[nodiscard]] int sample_hz() const;           ///< 0 when never started.

  /// The profiler section of /statusz: `{"active":...,"sample_hz":...,
  /// "duration_s":...,"samples":...,"dropped":...,"threads_seen":...}`.
  [[nodiscard]] std::string status_json() const;

 private:
  Profiler() = default;

  mutable std::mutex mu_;  ///< Serializes start/stop; never taken by the handler.
};

/// Runs `fn` under the profiler and returns the session. Convenience for
/// benches and tests; returns an empty Profile when the profiler was busy.
template <class Fn>
Profile profile_call(Fn&& fn, const ProfilerOptions& options = {}) {
  if (!Profiler::global().start(options)) return {};
  fn();
  return Profiler::global().stop();
}

}  // namespace neat::obs::prof
