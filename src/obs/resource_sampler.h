// Process-resource sampling into the metric registry, on demand.
//
// One sample reads the process's own footprint from /proc/self into
// registry families, so a scrape of /metrics answers "how big is this
// server right now" without any external agent:
//
//   neat_process_resident_memory_bytes   RSS (/proc/self/stat, pages × page size)
//   neat_process_virtual_memory_bytes    virtual size
//   neat_process_cpu_seconds{mode="user"|"system"}
//                                        cumulative CPU (utime/stime)
//   neat_process_threads                 thread count
//   neat_process_open_fds                open descriptors (/proc/self/fd)
//   neat_process_peak_resident_memory_bytes
//                                        lifetime RSS high-water mark (VmHWM)
//   neat_store_page_faults_total{kind="minor"|"major"}
//                                        page faults since the process
//                                        started (minflt/majflt) — the
//                                        demand-paging cost of the
//                                        mmap-backed columnar store
//
// There is no sampling thread and no period: the admin plane's /metrics
// route samples into its registry each time it renders
// (net/admin_routes.h) and neat_cli samples once before it writes
// --metrics-out, so a scrape shows the process as of that scrape. On
// non-Linux platforms sample_now() returns false and the families stay at
// zero.
#pragma once

#include <cstdint>

#include "obs/registry.h"

namespace neat::obs {

/// Lifetime resident-set high-water mark of this process in bytes (VmHWM
/// from /proc/self/status); 0 when unavailable (non-Linux).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Resets the kernel's RSS high-water mark ("5" to /proc/self/clear_refs),
/// so a benchmark can attribute a peak to one section. Returns false when
/// unsupported.
bool reset_peak_rss();

/// Samples /proc/self into the families above of one registry.
class ResourceSampler {
 public:
  /// Creates the families (with HELP) in `registry` and keeps references
  /// to them; do not outlive the registry. Takes no sample.
  explicit ResourceSampler(Registry& registry);

  /// Takes one sample. Returns false when /proc/self is unavailable
  /// (non-Linux). Thread-safe: the fault counters are raised to the
  /// kernel's totals rather than incremented, so concurrent samples, or
  /// several samplers on one registry, never count a fault twice.
  bool sample_now() const;

 private:
  Gauge& rss_bytes_;
  Gauge& virtual_bytes_;
  Gauge& cpu_user_s_;
  Gauge& cpu_system_s_;
  Gauge& threads_;
  Gauge& open_fds_;
  Gauge& peak_rss_bytes_;
  Counter& minor_faults_;
  Counter& major_faults_;
};

}  // namespace neat::obs
