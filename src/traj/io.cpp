#include "traj/io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "traj/io_detail.h"

namespace neat::traj {

namespace {

/// Bytes read per window. On 4 vCPUs, windows of 2 to 16 MiB load a 104 MB
/// CSV in the same time (medians 0.24-0.25 s); 1 and 32 MiB take 0.26 s.
constexpr std::size_t kWindowBytes = std::size_t{8} << 20;

/// Splits one raw CSV line into exactly 7 unquoted fields without
/// allocating. Returns false when the line is blank or does not have 7
/// fields (the caller reports the line number).
bool split_row7(std::string_view line, std::array<std::string_view, 7>& fields) {
  std::size_t n = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    const std::string_view field = comma == std::string_view::npos
                                       ? line.substr(start)
                                       : line.substr(start, comma - start);
    if (n == 7) return false;
    fields[n++] = field;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return n == 7;
}

double parse_finite(std::string_view field, const char* name) {
  const double value = parse_double(field);
  if (!std::isfinite(value)) {
    throw ParseError(str_cat("non-finite ", name, " value: '", std::string(trim(field)), "'"));
  }
  return value;
}

Location parse_location(const std::array<std::string_view, 7>& row) {
  Location loc;
  const std::int64_t sid = parse_int(row[2]);
  if (sid < 0 || sid > std::numeric_limits<std::int32_t>::max()) {
    throw ParseError(
        str_cat("sid out of range [0, 2147483647]: '", std::string(trim(row[2])), "'"));
  }
  loc.sid = SegmentId(static_cast<std::int32_t>(sid));
  loc.pos = {parse_finite(row[3], "x"), parse_finite(row[4], "y")};
  loc.t = parse_finite(row[5], "t");
  loc.junction_point = parse_int(row[6]) != 0;
  return loc;
}

/// What one newline-aligned range of a window parses to: its rows'
/// locations in file order, cut into runs of one trajectory id. Line
/// numbers are 1-based and counted from the start of the range. The
/// buffers keep their capacity from window to window.
struct ParsedRange {
  /// A trajectory's rows in this range: points [end of the previous run,
  /// `end`). The first run may continue the previous range's last
  /// trajectory, and the last may continue into the next range.
  struct Run {
    TrajectoryId id;
    std::size_t first_line{0};
    std::size_t end{0};
  };
  std::vector<Location> points;
  std::vector<std::size_t> point_lines;  ///< Line of each point's row.
  std::vector<Run> runs;
  std::size_t lines{0};       ///< Lines in the range, blank ones included.
  std::size_t error_line{0};  ///< Line of the first malformed row; 0 when none.
  std::string error;          ///< What is wrong with that row.

  void clear() {
    points.clear();
    point_lines.clear();
    runs.clear();
    lines = error_line = 0;
    error.clear();
  }
};

/// Parses the whole lines of `text` row by row, stopping at the first
/// malformed row. Rows containing quoted fields fall back to the RFC-4180
/// reader. Time order is left to the Stitcher.
void parse_range(std::string_view text, ParsedRange& out) {
  std::array<std::string_view, 7> row;
  std::vector<std::string> quoted_row;  // slow-path scratch
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    ++out.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (trim(line).empty()) continue;
    try {
      if (line.find('"') != std::string_view::npos) {
        // Quoted fields are legal CSV but never produced by save_dataset;
        // parse this row through the full RFC-4180 reader.
        std::istringstream row_in{std::string(line)};
        CsvReader reader(row_in);
        if (!reader.read_row(quoted_row) || quoted_row.size() != 7) {
          throw ParseError("location row needs 7 fields");
        }
        for (std::size_t i = 0; i < 7; ++i) row[i] = quoted_row[i];
      } else if (!split_row7(line, row)) {
        throw ParseError("location row needs 7 fields");
      }
      const auto trid = TrajectoryId(parse_int(row[0]));
      if (out.runs.empty() || out.runs.back().id != trid) {
        out.runs.push_back({trid, out.lines, out.points.size()});
      }
      out.points.push_back(parse_location(row));
      out.point_lines.push_back(out.lines);
      out.runs.back().end = out.points.size();
    } catch (const Error& e) {
      out.error_line = out.lines;
      out.error = e.what();
      return;
    }
  }
}

/// Cuts `text`, a run of whole lines, into at most `parts` non-empty ranges
/// of about equal size, each starting at a line start.
std::vector<std::string_view> split_lines(std::string_view text, std::size_t parts) {
  std::vector<std::string_view> ranges;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= parts && begin < text.size(); ++i) {
    std::size_t end = text.size();
    if (i < parts) {
      const std::size_t target = std::max(begin + 1, i * text.size() / parts);
      end = std::min(text.find('\n', target - 1), text.size() - 1) + 1;
    }
    ranges.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return ranges;
}

/// Builds trajectories from parsed ranges, in file order, on the calling
/// thread. It joins a trajectory cut by a range or window boundary, checks
/// time order through Trajectory::append, catches repeated ids, and turns
/// range-local line numbers into file line numbers.
///
/// The trajectories are allocated here, sized to their first run, and the
/// workers only fill range buffers that are reused from window to window.
/// With trajectories built by the workers, RSS climbed over repeated loads
/// of one 2.3M-row file (226 to 278 MiB over six loads, against 202 to
/// 205 MiB now), and the first loads of a process ran near-serial while
/// glibc trimmed the workers' heaps after each window and faulted them
/// back in.
class Stitcher {
 public:
  explicit Stitcher(const std::function<void(Trajectory&&)>& fn) : fn_(fn) {}

  /// Takes the next range in file order. Throws ParseError at the first
  /// malformed line, after handing `fn` every trajectory completed before it.
  void add(const ParsedRange& range) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < range.runs.size(); ++i) {
      const ParsedRange::Run& run = range.runs[i];
      if (i > 0 || !open_ || open_->id() != run.id) {
        emit();
        if (!seen_.insert(run.id).second) {
          throw ParseError(str_cat("line ", lines_ + run.first_line,
                                   ": duplicate trajectory id: ", run.id.value()));
        }
        open_.emplace(run.id).reserve(run.end - begin);
      }
      for (std::size_t p = begin; p < run.end; ++p) {
        try {
          open_->append(range.points[p]);
        } catch (const PreconditionError& e) {
          throw ParseError(str_cat("line ", lines_ + range.point_lines[p], ": ", e.what()));
        }
      }
      begin = run.end;
    }
    if (range.error_line != 0) {
      throw ParseError(str_cat("line ", lines_ + range.error_line, ": ", range.error));
    }
    lines_ += range.lines;
  }

  /// Hands `fn` the last trajectory, once the input is exhausted.
  void finish() { emit(); }

 private:
  void emit() {
    if (open_) fn_(std::move(*open_));
    open_.reset();
  }

  const std::function<void(Trajectory&&)>& fn_;
  std::optional<Trajectory> open_;  ///< Read so far; may continue in the next range.
  std::unordered_set<TrajectoryId> seen_;
  std::size_t lines_{0};  ///< Lines of the ranges added so far.
};

/// Parses one window of whole lines in parallel into `parsed` (one slot
/// per range, reused across windows) and stitches it in order.
void parse_window(std::string_view text, unsigned workers, std::vector<ParsedRange>& parsed,
                  Stitcher& stitcher) {
  const std::vector<std::string_view> ranges = split_lines(text, parsed.size());
  parallel_for(ranges.size(), workers, 1, [&](unsigned, ChunkCursor& cursor) {
    while (const std::optional<IndexRange> chunk = cursor.next()) {
      for (std::size_t i = chunk->begin; i < chunk->end; ++i) {
        parsed[i].clear();
        parse_range(ranges[i], parsed[i]);
      }
    }
  });
  for (std::size_t i = 0; i < ranges.size(); ++i) stitcher.add(parsed[i]);
}

}  // namespace

void save_dataset(const TrajectoryDataset& data, std::ostream& out) {
  CsvWriter writer(out);
  for (const Trajectory& tr : data) {
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const Location& loc = tr.point(i);
      writer.write_row({std::to_string(tr.id().value()), std::to_string(i),
                        std::to_string(loc.sid.value()), format_fixed(loc.pos.x, 3),
                        format_fixed(loc.pos.y, 3), format_fixed(loc.t, 3),
                        loc.junction_point ? "1" : "0"});
    }
  }
}

void save_dataset(const TrajectoryDataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error(str_cat("cannot open '", path, "' for writing"));
  save_dataset(data, out);
}

void detail::for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn,
                                 std::size_t window_bytes, unsigned workers) {
  window_bytes = std::max<std::size_t>(1, window_bytes);
  workers = std::max(1u, workers);
  // One reused buffer, never mapped: a file truncated under a mapping
  // raises SIGBUS. Its front holds the partial last line of the previous
  // window.
  std::size_t size = window_bytes;
  auto buf = std::make_unique_for_overwrite<char[]>(size);
  std::size_t filled = 0;
  const auto resize = [&](std::size_t new_size) {
    auto next = std::make_unique_for_overwrite<char[]>(new_size);
    std::memcpy(next.get(), buf.get(), filled);
    buf = std::move(next);
    size = new_size;
  };
  std::vector<ParsedRange> parsed(2 * std::size_t{workers});
  Stitcher stitcher(fn);
  for (bool eof = false; !eof;) {
    // A line longer than the buffer: grow until its newline comes.
    if (filled == size) resize(2 * size);
    in.read(buf.get() + filled, static_cast<std::streamsize>(size - filled));
    filled += static_cast<std::size_t>(in.gcount());
    eof = !in;
    std::string_view text(buf.get(), filled);
    if (!eof) {
      const std::size_t last_newline = text.rfind('\n');
      if (last_newline == std::string_view::npos) continue;
      text = text.substr(0, last_newline + 1);
    }
    parse_window(text, workers, parsed, stitcher);
    filled -= text.size();
    std::memmove(buf.get(), buf.get() + text.size(), filled);
    // Once a long line is parsed, drop back to one window.
    if (size > window_bytes && filled < window_bytes) resize(window_bytes);
  }
  stitcher.finish();
}

void for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn) {
  detail::for_each_trajectory(in, fn, kWindowBytes,
                              std::max(1u, std::thread::hardware_concurrency()));
}

TrajectoryDataset load_dataset(std::istream& in) {
  TrajectoryDataset data;
  for_each_trajectory(in, [&data](Trajectory&& tr) { data.add(std::move(tr)); });
  return data;
}

TrajectoryDataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(str_cat("cannot open '", path, "' for reading"));
  return load_dataset(in);
}

}  // namespace neat::traj
