#include "obs/resource_sampler.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#include <unistd.h>
#endif

namespace neat::obs {

namespace {

#ifdef __linux__

/// The fields of /proc/self/stat the sampler reports.
struct ProcStat {
  std::uint64_t minflt{0};
  std::uint64_t majflt{0};
  double utime_s{0.0};
  double stime_s{0.0};
  long threads{0};
  double vsize_bytes{0.0};
  double rss_bytes{0.0};
};

bool read_proc_stat(ProcStat& out) {
  std::ifstream in("/proc/self/stat");
  if (!in) return false;
  std::string content;
  std::getline(in, content);
  // Field 2 (comm) may contain spaces; everything after the last ')' is
  // space-separated, starting with field 3 (state).
  const std::size_t close = content.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(content.substr(close + 1));
  std::vector<std::string> fields;
  std::string tok;
  while (rest >> tok) fields.push_back(tok);
  // 1-based /proc(5) numbering: minflt=10, majflt=12, utime=14, stime=15,
  // num_threads=20, vsize=23, rss=24 — minus the two fields before the
  // split minus one for 0-based indexing.
  if (fields.size() < 22) return false;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  try {
    out.minflt = std::stoull(fields[7]);
    out.majflt = std::stoull(fields[9]);
    out.utime_s = std::stod(fields[11]) / tick;
    out.stime_s = std::stod(fields[12]) / tick;
    out.threads = std::stol(fields[17]);
    out.vsize_bytes = std::stod(fields[20]);
    out.rss_bytes = std::stod(fields[21]) * page;
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

long count_open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  long n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n - 1;  // exclude the descriptor opendir() itself holds
}

#endif  // __linux__

}  // namespace

bool reset_peak_rss() {
#ifdef __linux__
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5\n";
  out.flush();
  return static_cast<bool>(out);
#else
  return false;
#endif
}

std::uint64_t peak_rss_bytes() {
#ifdef __linux__
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream rest(line.substr(6));
    std::uint64_t kb = 0;
    if (rest >> kb) return kb * 1024;
    return 0;
  }
#endif
  return 0;
}

ResourceSampler::ResourceSampler(Registry& registry)
    : rss_bytes_(registry.gauge("neat_process_resident_memory_bytes")),
      virtual_bytes_(registry.gauge("neat_process_virtual_memory_bytes")),
      cpu_user_s_(registry.gauge("neat_process_cpu_seconds", {{"mode", "user"}})),
      cpu_system_s_(registry.gauge("neat_process_cpu_seconds", {{"mode", "system"}})),
      threads_(registry.gauge("neat_process_threads")),
      open_fds_(registry.gauge("neat_process_open_fds")),
      peak_rss_bytes_(registry.gauge("neat_process_peak_resident_memory_bytes")),
      minor_faults_(registry.counter("neat_store_page_faults_total", {{"kind", "minor"}})),
      major_faults_(registry.counter("neat_store_page_faults_total", {{"kind", "major"}})) {
  registry.set_help("neat_process_resident_memory_bytes",
                    "Resident set size of this process, sampled from /proc/self.");
  registry.set_help("neat_process_virtual_memory_bytes",
                    "Virtual memory size of this process, sampled from /proc/self.");
  registry.set_help("neat_process_cpu_seconds",
                    "Cumulative CPU seconds of this process by mode, sampled.");
  registry.set_help("neat_process_threads", "Thread count of this process, sampled.");
  registry.set_help("neat_process_open_fds",
                    "Open file descriptors of this process, sampled.");
  registry.set_help("neat_process_peak_resident_memory_bytes",
                    "Lifetime RSS high-water mark of this process (VmHWM), sampled.");
  registry.set_help("neat_store_page_faults_total",
                    "Page faults taken by this process since it started, by kind — "
                    "includes the demand-paging cost of mmap-backed columnar scans.");
}

bool ResourceSampler::sample_now() const {
#ifdef __linux__
  ProcStat st;
  if (!read_proc_stat(st)) return false;
  rss_bytes_.set(st.rss_bytes);
  virtual_bytes_.set(st.vsize_bytes);
  cpu_user_s_.set(st.utime_s);
  cpu_system_s_.set(st.stime_s);
  threads_.set(static_cast<double>(st.threads));
  const long fds = count_open_fds();
  if (fds >= 0) open_fds_.set(static_cast<double>(fds));
  peak_rss_bytes_.set(static_cast<double>(peak_rss_bytes()));
  minor_faults_.raise_to(st.minflt);
  major_faults_.raise_to(st.majflt);
  return true;
#else
  return false;
#endif
}

}  // namespace neat::obs
