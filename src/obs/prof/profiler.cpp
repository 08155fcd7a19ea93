#include "obs/prof/profiler.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <set>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/log/log.h"
#include "obs/prof/sample.h"
#include "obs/prof/symbolize.h"
#include "obs/registry.h"

#ifdef __linux__
#include <signal.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

namespace neat::obs::prof {

namespace {

#ifdef __linux__

/// One session's sampling state: the ring slab plus the claim cursor. The
/// handler reaches it through g_session; stop() frees it only after the
/// timer is disarmed and every in-flight handler has drained.
struct Session {
  std::unique_ptr<Sample[]> slab;        ///< max_threads * ring_slots slots.
  std::unique_ptr<SampleRing[]> rings;   ///< max_threads rings over the slab.
  std::size_t max_threads{0};
  std::atomic<std::size_t> claimed{0};   ///< Next free ring index.
  std::uint64_t epoch{0};                ///< Distinguishes sessions for TLS.
};

// --- handler-visible globals. The handler reads *only* these (plus the
// thread-local below); all are lock-free atomics or pointers published
// before the timer is armed.
std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_in_handler{0};
std::atomic<Session*> g_session{nullptr};
std::atomic<Counter*> g_dropped_counter{nullptr};  ///< neat_obs_prof_dropped_total.
std::atomic<Counter*> g_samples_counter{nullptr};  ///< neat_obs_prof_samples_total.
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::int64_t> g_last_overflow_warn_s{-1000000};
/// Structured-logging hook for the overflow warning, published by start()
/// (cold path) so the handler only does lock-free loads. The logger's
/// try_log_signal_safe pushes to an existing per-thread ring without
/// locking or allocating; when it cannot, the handler falls back to
/// write(2).
std::atomic<log::Logger*> g_log_logger{nullptr};
std::atomic<log::Module*> g_log_module{nullptr};
/// Whether process_vm_readv self-reads work here (probed once at start();
/// sandboxes may filter the syscall). When false the walk stops at the
/// leaf pc instead of risking a fault on a garbage frame pointer.
std::atomic<bool> g_can_walk{false};

// The calling thread's claimed ring. Initial-exec TLS in a statically
// linked translation unit is a constant offset from the thread pointer —
// reading/writing it never allocates, so it is signal-handler safe (unlike
// dynamic TLS from dlopen'd modules).
struct ThreadSlot {
  std::uint64_t epoch{0};
  SampleRing* ring{nullptr};
};
thread_local ThreadSlot t_slot;

/// Reads [addr, addr+16) of our own address space via the kernel, so an
/// invalid frame pointer yields EFAULT instead of SIGSEGV. Signal-safe: a
/// plain syscall. Returns false when the address is unreadable.
bool read_frame_record(std::uintptr_t addr, std::uintptr_t out[2]) {
  iovec local{out, 2 * sizeof(std::uintptr_t)};
  iovec remote{reinterpret_cast<void*>(addr), 2 * sizeof(std::uintptr_t)};
  return syscall(SYS_process_vm_readv, getpid(), &local, 1, &remote, 1, 0) ==
         static_cast<long>(2 * sizeof(std::uintptr_t));
}

/// Rate-limited (one line per 5 s) ring-overflow warning. write(2) is
/// async-signal-safe; everything printf-shaped is not.
void warn_overflow_rate_limited() {
  timespec ts{};
  if (clock_gettime(CLOCK_MONOTONIC_COARSE, &ts) != 0) return;
  const std::int64_t now_s = ts.tv_sec;
  std::int64_t last = g_last_overflow_warn_s.load(std::memory_order_relaxed);
  if (now_s - last < 5) return;
  if (!g_last_overflow_warn_s.compare_exchange_strong(last, now_s,
                                                      std::memory_order_relaxed)) {
    return;
  }
  // Prefer a structured line through the async logger: its signal-safe
  // path only pushes to a ring this thread already owns (and never when a
  // log statement on this thread was interrupted mid-push), so it can
  // refuse — keep the classic write(2) fallback for exactly that case.
  log::Logger* logger = g_log_logger.load(std::memory_order_acquire);
  log::Module* module = g_log_module.load(std::memory_order_acquire);
  if (logger != nullptr && module != nullptr &&
      logger->try_log_signal_safe(
          log::Level::kWarn, *module,
          "sample ring overflow, dropping samples "
          "(see neat_obs_prof_dropped_total)")) {
    return;
  }
  static const char kMsg[] =
      "neat prof: sample ring overflow, dropping samples "
      "(see neat_obs_prof_dropped_total)\n";
  // The return value is deliberately ignored: there is no recovery from a
  // failed best-effort warning inside a signal handler.
  const ssize_t ignored = write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  static_cast<void>(ignored);
}

void count_drop() {
  g_dropped.fetch_add(1, std::memory_order_relaxed);
  if (Counter* c = g_dropped_counter.load(std::memory_order_relaxed)) c->add(1);
  warn_overflow_rate_limited();
}

/// The SIGPROF handler: capture the interrupted thread's stack into its
/// ring. Every operation here is async-signal-safe — atomics, the ucontext,
/// process_vm_readv, gettid, write. No locks, no allocation, no iostream.
void sigprof_handler(int, siginfo_t*, void* ucontext_raw) {
  const int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acquire);
  if (g_active.load(std::memory_order_relaxed)) {
    Session* session = g_session.load(std::memory_order_acquire);
    if (session != nullptr) {
      // Claim this thread's ring on first sample of the session.
      if (t_slot.epoch != session->epoch) {
        t_slot.epoch = session->epoch;
        t_slot.ring = nullptr;
        const std::size_t idx =
            session->claimed.fetch_add(1, std::memory_order_relaxed);
        if (idx < session->max_threads) {
          SampleRing& ring = session->rings[idx];
          ring.tid = static_cast<std::uint32_t>(syscall(SYS_gettid));
          t_slot.ring = &ring;
        }
      }
      if (t_slot.ring == nullptr) {
        count_drop();  // more threads than max_threads
      } else if (Sample* slot = t_slot.ring->begin_push()) {
        const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
#if defined(__x86_64__)
        auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
        auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
        auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
        auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
        std::uintptr_t pc = 0;
        std::uintptr_t fp = 0;
#endif
        slot->tid = t_slot.ring->tid;
        slot->truncated = 0;
        std::uint16_t depth = 0;
        if (pc != 0) slot->pc[depth++] = pc;
        // Frame-pointer walk: [fp] = caller's fp, [fp+8] = return address.
        // Bounds are sanity, not safety — safety is process_vm_readv
        // refusing unmapped reads: frames must grow upward, stay 8-aligned
        // and advance less than 1 MiB per hop, or the record is garbage.
        while (g_can_walk.load(std::memory_order_relaxed) && depth < kMaxFrames &&
               fp != 0 && (fp & 0x7) == 0) {
          std::uintptr_t record[2];
          if (!read_frame_record(fp, record)) break;
          const std::uintptr_t next_fp = record[0];
          const std::uintptr_t ret = record[1];
          if (ret == 0) break;
          slot->pc[depth++] = ret;
          if (next_fp <= fp || next_fp - fp > (1u << 20)) break;
          fp = next_fp;
        }
        if (depth == kMaxFrames) slot->truncated = 1;
        if (depth == 0) slot->pc[depth++] = 0;  // keep depth >= 1 invariant
        slot->depth = depth;
        t_slot.ring->publish();
        g_samples.fetch_add(1, std::memory_order_relaxed);
        if (Counter* c = g_samples_counter.load(std::memory_order_relaxed)) c->add(1);
      } else {
        count_drop();  // ring full
      }
    }
  }
  g_in_handler.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

// --- start/stop-side state, guarded by Profiler::mu_.
struct Controller {
  bool handler_installed{false};
  bool timer_armed{false};
  timer_t timer{};
  std::unique_ptr<Session> session;
  std::uint64_t next_epoch{1};
  ProfilerOptions options;
  std::chrono::steady_clock::time_point started;
  double last_duration_s{0.0};
  bool ever_started{false};
};

Controller& controller() {
  static Controller c;
  return c;
}

#endif  // __linux__

/// Sanitized copy of caller options.
ProfilerOptions clamp_options(ProfilerOptions o) {
  o.sample_hz = std::clamp(o.sample_hz, 1, 10000);
  o.max_threads = std::max<std::size_t>(o.max_threads, 1);
  o.ring_slots = std::max<std::size_t>(o.ring_slots, 2);
  return o;
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

#ifdef __linux__

bool Profiler::start(const ProfilerOptions& options) {
  const std::lock_guard<std::mutex> lock(mu_);
  Controller& ctl = controller();
  if (g_active.load(std::memory_order_relaxed)) return false;

  const ProfilerOptions opts = clamp_options(options);
  auto session = std::make_unique<Session>();
  session->max_threads = opts.max_threads;
  session->epoch = ctl.next_epoch++;
  session->slab = std::make_unique<Sample[]>(opts.max_threads * opts.ring_slots);
  session->rings = std::make_unique<SampleRing[]>(opts.max_threads);
  for (std::size_t i = 0; i < opts.max_threads; ++i) {
    session->rings[i].slots = session->slab.get() + i * opts.ring_slots;
    session->rings[i].capacity = opts.ring_slots;
  }

  {
    // Probe the frame-record read path once per start: a sandbox that
    // filters process_vm_readv degrades the profiler to leaf-only samples
    // instead of silently failing or (worse) faulting.
    std::uintptr_t probe[2] = {0, 0};
    const auto self = reinterpret_cast<std::uintptr_t>(&probe[0]);
    g_can_walk.store(read_frame_record(self, probe), std::memory_order_relaxed);
  }

  if (!ctl.handler_installed) {
    struct sigaction sa{};
    sa.sa_sigaction = &sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      throw Error("profiler: sigaction(SIGPROF) failed");
    }
    ctl.handler_installed = true;
  }

  // Cold-path registry lookups, cached as raw pointers the handler can
  // bump with one relaxed fetch_add. Series references live as long as the
  // global registry, i.e. the process.
  Registry& reg = Registry::global();
  reg.set_help("neat_obs_prof_samples_total",
               "Stack samples captured by the sampling CPU profiler.");
  reg.set_help("neat_obs_prof_dropped_total",
               "Profiler samples dropped by full rings or thread-slab exhaustion.");
  g_samples_counter.store(&reg.counter("neat_obs_prof_samples_total"),
                          std::memory_order_relaxed);
  g_dropped_counter.store(&reg.counter("neat_obs_prof_dropped_total"),
                          std::memory_order_relaxed);
  // Pre-register the logger hook for the handler's overflow warning: the
  // module lookup locks on first use, which must happen here (cold) and
  // never inside the signal handler.
  log::Logger& logger = log::Logger::global();
  g_log_module.store(&logger.module("prof"), std::memory_order_release);
  g_log_logger.store(&logger, std::memory_order_release);

  g_samples.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_last_overflow_warn_s.store(-1000000, std::memory_order_relaxed);
  ctl.session = std::move(session);
  g_session.store(ctl.session.get(), std::memory_order_release);

  // CLOCK_PROCESS_CPUTIME_ID: the timer advances only while the process
  // burns CPU, and the expiry signal prefers the thread that was running —
  // idle processes produce no samples and busy threads are sampled in
  // proportion to their CPU share.
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &ctl.timer) != 0) {
    g_session.store(nullptr, std::memory_order_release);
    ctl.session.reset();
    throw Error("profiler: timer_create(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  const long period_ns = 1000000000L / opts.sample_hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  ctl.options = opts;
  ctl.started = std::chrono::steady_clock::now();
  ctl.ever_started = true;
  ctl.timer_armed = true;
  g_active.store(true, std::memory_order_release);
  if (timer_settime(ctl.timer, 0, &spec, nullptr) != 0) {
    g_active.store(false, std::memory_order_release);
    timer_delete(ctl.timer);
    ctl.timer_armed = false;
    while (g_in_handler.load(std::memory_order_acquire) != 0) sched_yield();
    g_session.store(nullptr, std::memory_order_release);
    ctl.session.reset();
    throw Error("profiler: timer_settime failed");
  }
  return true;
}

Profile Profiler::stop() {
  const std::lock_guard<std::mutex> lock(mu_);
  Controller& ctl = controller();
  if (!g_active.load(std::memory_order_relaxed)) return {};

  // Disarm: no new expirations after timer_delete; the active flag turns
  // away any signal already queued. Then wait out handlers that passed the
  // flag check before we flipped it — after the spin, no handler can be
  // touching the session.
  g_active.store(false, std::memory_order_release);
  timer_delete(ctl.timer);
  ctl.timer_armed = false;
  while (g_in_handler.load(std::memory_order_acquire) != 0) {
    sched_yield();
  }
  g_session.store(nullptr, std::memory_order_release);

  Profile profile;
  profile.sample_hz = ctl.options.sample_hz;
  ctl.last_duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - ctl.started)
          .count();
  profile.duration_s = ctl.last_duration_s;
  profile.samples = g_samples.load(std::memory_order_relaxed);
  profile.dropped = g_dropped.load(std::memory_order_relaxed);
  if (profile.dropped > 0) {
    // Off-handler summary of what the rate-limited in-handler warning could
    // only hint at.
    NEAT_LOG(kWarn, "prof")
        .msg("profiling session dropped samples")
        .kv("dropped", profile.dropped)
        .kv("samples", profile.samples)
        .kv("duration_s", profile.duration_s);
  }

  std::map<std::vector<std::uintptr_t>, std::uint64_t> aggregated;
  std::set<std::uint32_t> tids;
  const std::size_t claimed =
      std::min(ctl.session->claimed.load(std::memory_order_relaxed),
               ctl.session->max_threads);
  Sample s;
  for (std::size_t i = 0; i < claimed; ++i) {
    SampleRing& ring = ctl.session->rings[i];
    tids.insert(ring.tid);
    while (ring.pop(s)) {
      if (s.truncated != 0) profile.truncated += 1;
      aggregated[std::vector<std::uintptr_t>(s.pc, s.pc + s.depth)] += 1;
    }
  }
  profile.threads_seen = tids.size();
  profile.stacks.reserve(aggregated.size());
  for (auto& [pcs, count] : aggregated) {
    profile.stacks.push_back({pcs, count});
  }
  ctl.session.reset();
  return profile;
}

bool Profiler::active() const {
  return g_active.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::samples_captured() const {
  return g_samples.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::samples_dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

std::size_t Profiler::threads_seen() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Controller& ctl = controller();
  if (ctl.session == nullptr) return 0;
  return std::min(ctl.session->claimed.load(std::memory_order_relaxed),
                  ctl.session->max_threads);
}

double Profiler::session_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Controller& ctl = controller();
  if (!ctl.ever_started) return 0.0;
  if (!g_active.load(std::memory_order_relaxed)) return ctl.last_duration_s;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - ctl.started)
      .count();
}

int Profiler::sample_hz() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Controller& ctl = controller();
  return ctl.ever_started ? ctl.options.sample_hz : 0;
}

#else  // !__linux__ — the API stays, sampling is a no-op.

bool Profiler::start(const ProfilerOptions&) { return false; }
Profile Profiler::stop() { return {}; }
bool Profiler::active() const { return false; }
std::uint64_t Profiler::samples_captured() const { return 0; }
std::uint64_t Profiler::samples_dropped() const { return 0; }
std::size_t Profiler::threads_seen() const { return 0; }
double Profiler::session_seconds() const { return 0.0; }
int Profiler::sample_hz() const { return 0; }

#endif  // __linux__

std::string Profiler::status_json() const {
  return str_cat("{\"active\":", active() ? "true" : "false",
                 ",\"sample_hz\":", sample_hz(),
                 ",\"duration_s\":", format_fixed(session_seconds(), 3),
                 ",\"samples\":", samples_captured(),
                 ",\"dropped\":", samples_dropped(),
                 ",\"threads_seen\":", threads_seen(), "}");
}

std::string Profile::to_folded() const {
  Symbolizer sym;
  std::string out;
  for (const ProfileStack& stack : stacks) {
    if (stack.pcs.empty()) continue;
    // pcs are leaf-first; folded lines read root -> leaf.
    for (std::size_t i = stack.pcs.size(); i-- > 0;) {
      const bool leaf = i == 0;
      std::string frame = sym.name(stack.pcs[i], /*return_address=*/!leaf);
      std::replace(frame.begin(), frame.end(), ';', ':');
      out += frame;
      out += leaf ? ' ' : ';';
    }
    out += std::to_string(stack.count);
    out += '\n';
  }
  return out;
}

std::vector<HotSymbol> Profile::hot_symbols(std::size_t n) const {
  Symbolizer sym;
  std::map<std::string, std::uint64_t> inclusive;
  std::uint64_t total = 0;
  std::set<std::string> in_stack;
  for (const ProfileStack& stack : stacks) {
    total += stack.count;
    in_stack.clear();
    for (std::size_t i = 0; i < stack.pcs.size(); ++i) {
      in_stack.insert(sym.name(stack.pcs[i], /*return_address=*/i != 0));
    }
    for (const std::string& name : in_stack) inclusive[name] += stack.count;
  }
  std::vector<HotSymbol> rows;
  rows.reserve(inclusive.size());
  for (const auto& [name, count] : inclusive) {
    rows.push_back(
        {name, total > 0 ? 100.0 * static_cast<double>(count) / static_cast<double>(total)
                         : 0.0});
  }
  std::sort(rows.begin(), rows.end(), [](const HotSymbol& a, const HotSymbol& b) {
    if (a.inclusive_pct != b.inclusive_pct) return a.inclusive_pct > b.inclusive_pct;
    return a.symbol < b.symbol;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

double Profile::symbolized_fraction() const {
  Symbolizer sym;
  std::uint64_t total = 0;
  std::uint64_t symbolized = 0;
  for (const ProfileStack& stack : stacks) {
    total += stack.count;
    for (std::size_t i = 0; i < stack.pcs.size(); ++i) {
      if (!Symbolizer::is_hex(sym.name(stack.pcs[i], i != 0))) {
        symbolized += stack.count;
        break;
      }
    }
  }
  return total > 0 ? static_cast<double>(symbolized) / static_cast<double>(total) : 0.0;
}

}  // namespace neat::obs::prof
