#include "store/columnar_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat::store {

namespace {

using traj::ColumnarFooter;
using traj::ColumnarHeader;
using traj::Fnv1a;

/// Sum of live mappings across all stores, exported as the
/// neat_store_bytes_mapped gauge.
std::atomic<std::uint64_t> g_total_mapped{0};

void publish_total_mapped() {
  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_store_bytes_mapped",
               "Bytes of columnar trajectory files currently memory-mapped.");
  reg.gauge("neat_store_bytes_mapped")
      .set(static_cast<double>(g_total_mapped.load(std::memory_order_relaxed)));
}

/// Closes `fd` on scope exit (the mapping outlives the descriptor).
struct FdCloser {
  int fd{-1};
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

void read_exact(int fd, std::uint64_t off, void* buf, std::size_t n, const std::string& path) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(off));
    if (got <= 0) throw Error(str_cat("short read from columnar file '", path, "'"));
    out += got;
    off += static_cast<std::uint64_t>(got);
    n -= static_cast<std::size_t>(got);
  }
}

std::uint64_t pad8(std::uint64_t pos) { return (8 - pos % 8) % 8; }

/// Column byte widths in section order (t, seg, x, y, flags).
constexpr std::uint64_t kColStride[5] = {8, 4, 8, 8, 1};

/// Read buffer bytes the checksum pass holds, across all its workers.
constexpr std::size_t kVerifyBufferBytes = std::size_t{1} << 20;

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

traj::Trajectory TrajectoryView::materialize() const {
  std::vector<traj::Location> points;
  points.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    points.push_back(traj::Location{SegmentId(seg[i]), Point{x[i], y[i]}, t[i],
                                    (flags[i] & 1u) != 0});
  }
  return traj::Trajectory(id, std::move(points));
}

ColumnarTrajectoryStore::ColumnarTrajectoryStore(const std::string& path) : path_(path) {
  FdCloser fd;
  fd.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd.fd < 0) throw Error(str_cat("cannot open '", path, "' for reading"));
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw Error(str_cat("cannot stat '", path, "'"));
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ < sizeof(ColumnarHeader) + sizeof(ColumnarFooter)) {
    throw ParseError(str_cat("'", path, "' is too small to be a columnar trajectory file"));
  }

  read_exact(fd.fd, 0, &header_, sizeof(header_), path_);
  if (header_.magic != traj::kColumnarMagic) {
    throw ParseError(str_cat("'", path,
                             "' is not a columnar trajectory file (bad magic; "
                             "foreign-endian files are not supported)"));
  }
  if (header_.version != traj::kColumnarVersion) {
    throw ParseError(str_cat("'", path, "' has unsupported columnar version ", header_.version,
                             " (this build reads version ", traj::kColumnarVersion, ")"));
  }
  if (header_.flags != 0) {
    throw ParseError(str_cat("'", path, "' has unknown columnar flags ", header_.flags));
  }
  if (header_.num_trajectories > size_ / 8 || header_.num_points > size_ / 8) {
    throw ParseError(str_cat("'", path, "' declares more data than the file holds"));
  }

  // The layout is canonical: recomputing it from the counts must reproduce
  // the header's offsets and land the footer at end of file. This bounds-
  // checks every section in one go.
  std::uint64_t pos = sizeof(ColumnarHeader);
  const auto place = [&pos](std::uint64_t bytes) {
    pos += pad8(pos);
    const std::uint64_t at = pos;
    pos += bytes;
    return at;
  };
  const std::uint64_t expect[7] = {place(header_.num_trajectories * 8),
                                   place((header_.num_trajectories + 1) * 8),
                                   place(header_.num_points * kColStride[0]),
                                   place(header_.num_points * kColStride[1]),
                                   place(header_.num_points * kColStride[2]),
                                   place(header_.num_points * kColStride[3]),
                                   place(header_.num_points * kColStride[4])};
  pos += pad8(pos);
  const std::uint64_t actual[7] = {header_.off_trid, header_.off_index, header_.off_t,
                                   header_.off_seg,  header_.off_x,     header_.off_y,
                                   header_.off_flags};
  for (int i = 0; i < 7; ++i) {
    if (expect[i] != actual[i]) {
      throw ParseError(str_cat("'", path, "' has a malformed section layout"));
    }
  }
  if (size_ != pos + sizeof(ColumnarFooter)) {
    throw ParseError(str_cat("'", path, "' is truncated or padded (", size_, " bytes, expected ",
                             pos + sizeof(ColumnarFooter), ")"));
  }

  ColumnarFooter footer;
  read_exact(fd.fd, pos, &footer, sizeof(footer), path_);
  if (footer.end_magic != traj::kColumnarEndMagic) {
    throw ParseError(str_cat("'", path, "' is truncated (bad end magic)"));
  }

  // The offsets index must be monotone and span exactly num_points; checked
  // streaming through read() so huge files do not fault pages in.
  {
    std::vector<std::uint64_t> buf(1 << 16);
    std::uint64_t prev = 0;
    std::uint64_t remaining = header_.num_trajectories + 1;
    std::uint64_t off = header_.off_index;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t n = std::min<std::uint64_t>(remaining, buf.size());
      read_exact(fd.fd, off, buf.data(), n * 8, path_);
      for (std::uint64_t i = 0; i < n; ++i) {
        if ((first && buf[i] != 0) || (!first && buf[i] < prev)) {
          throw ParseError(str_cat("'", path, "' has a corrupt trajectory index"));
        }
        prev = buf[i];
        first = false;
      }
      off += n * 8;
      remaining -= n;
    }
    if (prev != header_.num_points) {
      throw ParseError(str_cat("'", path, "' has a corrupt trajectory index"));
    }
  }

  // Digest each section through pread() and chain the digests in section
  // order, exactly as the writer does. Reading via the fd (not the future
  // mapping) keeps verification from inflating the resident set. The
  // sections are digested in parallel, largest first; the workers split one
  // kVerifyBufferBytes budget, because a freed read buffer stays resident in
  // its worker's malloc arena.
  {
    obs::ScopedSpan span("store.verify_checksum");
    span.arg("bytes", size_);
    const std::array<std::array<std::uint64_t, 2>, 7> sections{{
        {actual[0], header_.num_trajectories * 8},
        {actual[1], (header_.num_trajectories + 1) * 8},
        {actual[2], header_.num_points * kColStride[0]},
        {actual[3], header_.num_points * kColStride[1]},
        {actual[4], header_.num_points * kColStride[2]},
        {actual[5], header_.num_points * kColStride[3]},
        {actual[6], header_.num_points * kColStride[4]}}};
    std::array<std::size_t, 7> largest_first{};
    std::iota(largest_first.begin(), largest_first.end(), 0);
    std::stable_sort(largest_first.begin(), largest_first.end(),
                     [&](std::size_t a, std::size_t b) { return sections[a][1] > sections[b][1]; });
    const unsigned threads = std::min(7u, std::max(1u, std::thread::hardware_concurrency()));
    const unsigned workers = parallel_workers(sections.size(), threads, 1);
    std::array<std::uint64_t, 7> digests{};
    parallel_for(sections.size(), threads, 1, [&](unsigned, ChunkCursor& cursor) {
      std::vector<char> buf(kVerifyBufferBytes / workers);
      while (const std::optional<IndexRange> chunk = cursor.next()) {
        const std::size_t k = largest_first[chunk->begin];
        Fnv1a section;
        std::uint64_t off = sections[k][0];
        std::uint64_t remaining = sections[k][1];
        while (remaining > 0) {
          const std::uint64_t n = std::min<std::uint64_t>(remaining, buf.size());
          read_exact(fd.fd, off, buf.data(), n, path_);
          section.update(buf.data(), n);
          off += n;
          remaining -= n;
        }
        digests[k] = section.digest();
      }
    });
    Fnv1a combined;
    for (const std::uint64_t d : digests) combined.update(&d, sizeof(d));
    if (combined.digest() != footer.checksum) {
      throw ParseError(str_cat("'", path, "' failed checksum verification"));
    }
  }

  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd.fd, 0);
  if (map == MAP_FAILED) throw Error(str_cat("cannot mmap '", path, "'"));
  map_ = static_cast<const std::byte*>(map);
  num_trajectories_ = header_.num_trajectories;
  num_points_ = header_.num_points;
  trids_ = reinterpret_cast<const std::int64_t*>(map_ + header_.off_trid);
  index_ = reinterpret_cast<const std::uint64_t*>(map_ + header_.off_index);

  g_total_mapped.fetch_add(size_, std::memory_order_relaxed);
  publish_total_mapped();
}

ColumnarTrajectoryStore::~ColumnarTrajectoryStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::byte*>(map_), size_);
    g_total_mapped.fetch_sub(size_, std::memory_order_relaxed);
    publish_total_mapped();
  }
}

std::uint64_t ColumnarTrajectoryStore::point_bytes() const {
  std::uint64_t per_point = 0;
  for (const std::uint64_t s : kColStride) per_point += s;
  return num_points_ * per_point;
}

std::pair<std::uint64_t, std::uint64_t> ColumnarTrajectoryStore::point_range(
    std::size_t i) const {
  NEAT_EXPECT(i < num_trajectories_, "columnar store index out of range");
  return {index_[i], index_[i + 1]};
}

TrajectoryView ColumnarTrajectoryStore::view(std::size_t i) const {
  const auto [lo, hi] = point_range(i);
  const std::size_t n = hi - lo;
  TrajectoryView v;
  v.id = TrajectoryId(trids_[i]);
  v.t = {reinterpret_cast<const double*>(map_ + header_.off_t) + lo, n};
  v.seg = {reinterpret_cast<const std::int32_t*>(map_ + header_.off_seg) + lo, n};
  v.x = {reinterpret_cast<const double*>(map_ + header_.off_x) + lo, n};
  v.y = {reinterpret_cast<const double*>(map_ + header_.off_y) + lo, n};
  v.flags = {reinterpret_cast<const std::uint8_t*>(map_ + header_.off_flags) + lo, n};
  return v;
}

traj::Trajectory ColumnarTrajectoryStore::materialize(std::size_t i) const {
  return view(i).materialize();
}

void ColumnarTrajectoryStore::release(std::size_t begin, std::size_t end) const {
  if (begin >= end || begin >= num_trajectories_) return;
  end = std::min(end, num_trajectories_);
  const std::uint64_t lo = index_[begin];
  const std::uint64_t hi = index_[end];
  const std::uint64_t col_off[5] = {header_.off_t, header_.off_x, header_.off_y,
                                    header_.off_seg, header_.off_flags};
  const std::uint64_t col_stride[5] = {8, 8, 8, 4, 1};
  const std::uint64_t page = page_size();
  for (int c = 0; c < 5; ++c) {
    // Round inward to whole pages: neighbours sharing an edge page keep it.
    std::uint64_t from = col_off[c] + lo * col_stride[c];
    std::uint64_t to = col_off[c] + hi * col_stride[c];
    from = (from + page - 1) / page * page;
    to = to / page * page;
    if (from >= to) continue;
    ::madvise(const_cast<std::byte*>(map_) + from, to - from, MADV_DONTNEED);
  }
}

std::uint64_t ColumnarTrajectoryStore::total_bytes_mapped() {
  return g_total_mapped.load(std::memory_order_relaxed);
}

}  // namespace neat::store
