// Round-trip tests for network and dataset persistence; equivalence of the
// allocation-free fast trajectory parser with a reference parse built on
// the RFC-4180 CSV reader; and equivalence of the windowed parallel loader
// with the row-at-a-time loader it replaced, at every window and range cut,
// on hand-made inputs and on seeded mutants of the golden fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "test_util.h"
#include "traj/columnar.h"
#include "traj/io.h"
#include "traj/io_detail.h"

namespace neat {
namespace {

/// Reference trajectory parser: the full CsvReader on every row, no fast
/// path. The production loader must produce exactly this.
traj::TrajectoryDataset reference_load_dataset(std::istream& in) {
  traj::TrajectoryDataset data;
  CsvReader reader(in);
  std::vector<std::string> row;
  traj::Trajectory current;
  bool has_current = false;
  while (reader.read_row(row)) {
    if (row.size() == 1 && trim(row[0]).empty()) continue;
    if (row.size() != 7) throw ParseError("location row needs 7 fields");
    const auto trid = TrajectoryId(parse_int(row[0]));
    if (!has_current || current.id() != trid) {
      if (has_current) data.add(std::move(current));
      current = traj::Trajectory(trid);
      has_current = true;
    }
    traj::Location loc;
    loc.sid = SegmentId(static_cast<std::int32_t>(parse_int(row[2])));
    loc.pos = {parse_double(row[3]), parse_double(row[4])};
    loc.t = parse_double(row[5]);
    loc.junction_point = parse_int(row[6]) != 0;
    current.append(loc);
  }
  if (has_current) data.add(std::move(current));
  return data;
}

void expect_same_dataset(const traj::TrajectoryDataset& a, const traj::TrajectoryDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id(), b[i].id());
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t p = 0; p < a[i].size(); ++p) {
      EXPECT_EQ(a[i].point(p).sid, b[i].point(p).sid);
      EXPECT_EQ(a[i].point(p).pos.x, b[i].point(p).pos.x);
      EXPECT_EQ(a[i].point(p).pos.y, b[i].point(p).pos.y);
      EXPECT_EQ(a[i].point(p).t, b[i].point(p).t);
      EXPECT_EQ(a[i].point(p).junction_point, b[i].point(p).junction_point);
    }
  }
}

TEST(NetworkIo, RoundTripPreservesEverything) {
  roadnet::CityParams p;
  p.rows = 10;
  p.cols = 10;
  p.oneway_probability = 0.2;
  p.seed = 3;
  const roadnet::RoadNetwork original = roadnet::make_city(p);

  std::stringstream ss;
  roadnet::save_network(original, ss);
  const roadnet::RoadNetwork loaded = roadnet::load_network(ss);

  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.segment_count(), original.segment_count());
  for (std::size_t i = 0; i < original.node_count(); ++i) {
    const auto id = NodeId(static_cast<std::int32_t>(i));
    EXPECT_NEAR(loaded.node(id).pos.x, original.node(id).pos.x, 1e-3);
    EXPECT_NEAR(loaded.node(id).pos.y, original.node(id).pos.y, 1e-3);
  }
  for (std::size_t i = 0; i < original.segment_count(); ++i) {
    const auto id = SegmentId(static_cast<std::int32_t>(i));
    EXPECT_EQ(loaded.segment(id).a, original.segment(id).a);
    EXPECT_EQ(loaded.segment(id).b, original.segment(id).b);
    EXPECT_EQ(loaded.segment(id).bidirectional, original.segment(id).bidirectional);
    EXPECT_NEAR(loaded.segment(id).length, original.segment(id).length, 2e-3);
    EXPECT_NEAR(loaded.segment(id).speed_limit, original.segment(id).speed_limit, 1e-3);
  }
}

TEST(NetworkIo, RejectsMalformedRows) {
  {
    std::stringstream ss("node,0,1\n");  // missing y
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
  {
    std::stringstream ss("banana,0\n");
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
  {
    // Segment references a node that never appears.
    std::stringstream ss("node,0,0,0\nsegment,0,0,5,100,10,1\n");
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
}

TEST(NetworkIo, FileErrors) {
  EXPECT_THROW(roadnet::load_network("/nonexistent/dir/net.csv"), Error);
  const roadnet::RoadNetwork net = testutil::line_network(1);
  EXPECT_THROW(roadnet::save_network(net, "/nonexistent/dir/net.csv"), Error);
}

TEST(DatasetIo, RoundTrip) {
  traj::TrajectoryDataset data;
  traj::Trajectory t1(TrajectoryId(10));
  t1.append({SegmentId(0), {0.5, 0.25}, 0.0, false});
  t1.append({SegmentId(1), {10.125, 0}, 1.5, true});
  traj::Trajectory t2(TrajectoryId(11));
  t2.append({SegmentId(2), {-3, 4}, 0.0, false});
  data.add(std::move(t1));
  data.add(std::move(t2));

  std::stringstream ss;
  traj::save_dataset(data, ss);
  const traj::TrajectoryDataset loaded = traj::load_dataset(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id(), TrajectoryId(10));
  EXPECT_EQ(loaded[0].size(), 2u);
  EXPECT_EQ(loaded[0].point(1).sid, SegmentId(1));
  EXPECT_TRUE(loaded[0].point(1).junction_point);
  EXPECT_FALSE(loaded[0].point(0).junction_point);
  EXPECT_NEAR(loaded[0].point(0).pos.x, 0.5, 1e-3);
  EXPECT_NEAR(loaded[0].point(1).t, 1.5, 1e-3);
  EXPECT_EQ(loaded[1].id(), TrajectoryId(11));
}

TEST(DatasetIo, FastParserMatchesReferenceOnGoldenFixture) {
  const std::string path = std::string(NEAT_TEST_DATA_DIR) + "/golden_trajectories.csv";
  std::ifstream fast_in(path);
  ASSERT_TRUE(fast_in) << "missing fixture " << path;
  std::ifstream ref_in(path);
  const traj::TrajectoryDataset fast = traj::load_dataset(fast_in);
  const traj::TrajectoryDataset reference = reference_load_dataset(ref_in);
  ASSERT_GT(fast.size(), 0u);
  expect_same_dataset(fast, reference);
}

TEST(DatasetIo, FastParserMatchesReferenceOnAwkwardCsv) {
  // CRLF line endings, blank lines, surrounding whitespace in numeric
  // fields, and a quoted field (which forces the RFC-4180 fallback path).
  const std::string csv =
      "1,0,0,1.5,2.5,0.0,0\r\n"
      "\r\n"
      "1,1,0, 3.25 ,4.5,1.0,1\n"
      "\"2\",0,\"1\",7.125,8.0,0.5,0\n"
      "\n"
      "2,1,1,9.0,10.0,1.5,0\n";
  std::istringstream fast_in(csv);
  std::istringstream ref_in(csv);
  const traj::TrajectoryDataset fast = traj::load_dataset(fast_in);
  const traj::TrajectoryDataset reference = reference_load_dataset(ref_in);
  ASSERT_EQ(fast.size(), 2u);
  EXPECT_EQ(fast[0].point(1).pos.x, 3.25);
  EXPECT_EQ(fast[1].point(0).sid, SegmentId(1));
  expect_same_dataset(fast, reference);
}

TEST(DatasetIo, RejectsMalformedRows) {
  std::stringstream ss("1,0,0,0,0\n");  // 5 fields, needs 7
  EXPECT_THROW(traj::load_dataset(ss), ParseError);
  std::stringstream ss2("1,0,0,0,0,5.0,0\n1,1,0,0,0,4.0,0\n");  // time goes backward
  EXPECT_THROW(traj::load_dataset(ss2), ParseError);
  // A sid that does not fit a segment id: 4294967301 would wrap to the
  // real segment 5, and a negative one names no segment.
  std::stringstream ss3("1,0,4294967301,1.0,2.0,0.0,0\n");
  EXPECT_THROW(traj::load_dataset(ss3), ParseError);
  std::stringstream ss4("1,0,-1,1.0,2.0,0.0,0\n");
  EXPECT_THROW(traj::load_dataset(ss4), ParseError);
  // from_chars reads nan and inf; no position or timestamp may be either.
  std::stringstream ss5("1,0,3,nan,inf,nan,0\n");
  EXPECT_THROW(traj::load_dataset(ss5), ParseError);
  std::stringstream ss6("1,0,3,1.0,-inf,0.0,0\n");
  EXPECT_THROW(traj::load_dataset(ss6), ParseError);
  std::stringstream ss7("1,0,3,1.0,2.0,inf,0\n");
  EXPECT_THROW(traj::load_dataset(ss7), ParseError);
}

/// The message of the ParseError `load_dataset` throws on `csv`, or a note
/// that it threw something else or nothing.
std::string load_error(const std::string& csv) {
  std::istringstream in(csv);
  try {
    (void)traj::load_dataset(in);
  } catch (const ParseError& e) {
    return e.what();
  } catch (const std::exception& e) {
    return str_cat("not a ParseError: ", e.what());
  }
  return "no error";
}

TEST(DatasetIo, ErrorsNameTheLineAndTheField) {
  EXPECT_EQ(load_error("1,0,0,0,0,0,0\n1,1,0,abc,0,1,0\n"),
            "line 2: malformed floating-point value: 'abc'");
  EXPECT_EQ(load_error("1,0,0,0,0,0,0\n\nx1,1,0,0,0,1,0\n"),
            "line 3: malformed integer value: 'x1'");
  EXPECT_EQ(load_error("1,0,0,0,0,0,0\n1,1,4294967301,1.0,2.0,1.0,0\n"),
            "line 2: sid out of range [0, 2147483647]: '4294967301'");
  EXPECT_EQ(load_error("1,0,-7,0,0,0,0\n"), "line 1: sid out of range [0, 2147483647]: '-7'");
  EXPECT_EQ(load_error("1,0,3,nan,0,0,0\n"), "line 1: non-finite x value: 'nan'");
  EXPECT_EQ(load_error("1,0,3,0,inf,0,0\n"), "line 1: non-finite y value: 'inf'");
  EXPECT_EQ(load_error("1,0,3,0,0,-inf,0\n"), "line 1: non-finite t value: '-inf'");
  // The RFC-4180 fallback's own errors carry the line as well.
  EXPECT_EQ(load_error("1,0,0,0,0,0,0\n\"1,0,0,0,0,0,0\n"),
            "line 2: unterminated quoted CSV field");
}

TEST(DatasetIo, RepeatedIdIsAParseErrorAtTheFirstRowOfItsSecondRun) {
  const std::string csv =
      "1,0,0,0,0,0,0\n"
      "1,1,0,0,0,1,0\n"
      "2,0,0,0,0,0,0\n"
      "\n"
      "1,0,0,0,0,5,0\n"
      "1,1,0,0,0,6,0\n";
  EXPECT_EQ(load_error(csv), "line 5: duplicate trajectory id: 1");
  // The converter shares the loader, so it reports the same line.
  const std::string path = ::testing::TempDir() + "io_test_repeated_id.neatcol";
  std::istringstream in(csv);
  try {
    (void)traj::convert_csv_to_columnar(in, path);
    ADD_FAILURE() << "convert_csv_to_columnar accepted a repeated id";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "line 5: duplicate trajectory id: 1");
  }
  std::remove(path.c_str());
  // Code that adds trajectories itself still gets a PreconditionError.
  traj::TrajectoryDataset data;
  traj::Trajectory a(TrajectoryId(1));
  a.append({SegmentId(0), {0, 0}, 0.0, false});
  traj::Trajectory b = a;
  data.add(std::move(a));
  EXPECT_THROW(data.add(std::move(b)), PreconditionError);
}

TEST(DatasetIo, EmptyStreamGivesEmptyDataset) {
  std::stringstream ss;
  EXPECT_TRUE(traj::load_dataset(ss).empty());
}

// ---------------------------------------------------------------------------
// The windowed parallel loader against the row-at-a-time loader it replaced.

using TrajectorySink = std::function<void(traj::Trajectory&&)>;

/// Fields 2-6 of a row, with the loader's checks on each.
traj::Location parse_checked_location(const std::vector<std::string>& row) {
  traj::Location loc;
  const std::int64_t sid = parse_int(row[2]);
  if (sid < 0 || sid > std::numeric_limits<std::int32_t>::max()) {
    throw ParseError(str_cat("sid out of range [0, 2147483647]: '", trim(row[2]), "'"));
  }
  loc.sid = SegmentId(static_cast<std::int32_t>(sid));
  const auto finite = [](const std::string& field, const char* name) {
    const double value = parse_double(field);
    if (!std::isfinite(value)) {
      throw ParseError(str_cat("non-finite ", name, " value: '", trim(field), "'"));
    }
    return value;
  };
  loc.pos.x = finite(row[3], "x");
  loc.pos.y = finite(row[4], "y");
  loc.t = finite(row[5], "t");
  loc.junction_point = parse_int(row[6]) != 0;
  return loc;
}

/// The std::getline loader that traj::for_each_trajectory replaced, with
/// the same checks: a line number on every error, sids in [0, INT32_MAX],
/// finite numbers, no repeated ids. The parallel loader must call `fn` and
/// throw exactly as this does, at every window size and worker count.
void serial_for_each_trajectory(std::istream& in, const TrajectorySink& fn) {
  std::string line;
  std::vector<std::string> row;
  std::unordered_set<TrajectoryId> seen;
  traj::Trajectory current;
  bool has_current = false;
  std::size_t line_no = 0;
  const auto fail = [&line_no](const std::string& what) {
    throw ParseError(str_cat("line ", line_no, ": ", what));
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (trim(line).empty()) continue;
    TrajectoryId trid;
    try {
      if (line.find('"') != std::string::npos) {
        std::istringstream row_in{line};
        CsvReader reader(row_in);
        if (!reader.read_row(row)) row.clear();
      } else {
        row = split(line, ',');
      }
      if (row.size() != 7) throw ParseError("location row needs 7 fields");
      trid = TrajectoryId(parse_int(row[0]));
    } catch (const Error& e) {
      fail(e.what());
    }
    if (!has_current || current.id() != trid) {
      if (has_current) fn(std::move(current));
      if (!seen.insert(trid).second) fail(str_cat("duplicate trajectory id: ", trid.value()));
      current = traj::Trajectory(trid);
      has_current = true;
    }
    try {
      current.append(parse_checked_location(row));
    } catch (const Error& e) {
      fail(e.what());
    }
  }
  if (has_current) fn(std::move(current));
}

/// What a loader showed its caller: the trajectories passed to `fn`, in
/// order, and the exception that ended the load.
struct LoadOutcome {
  std::vector<traj::Trajectory> trajectories;
  std::string error;  ///< "<type>: <what>"; empty when the load succeeded.
};

LoadOutcome run_loader(const std::string& csv,
                       const std::function<void(std::istream&, const TrajectorySink&)>& loader) {
  LoadOutcome out;
  std::istringstream in(csv);
  try {
    loader(in, [&out](traj::Trajectory&& tr) { out.trajectories.push_back(std::move(tr)); });
  } catch (const ParseError& e) {
    out.error = str_cat("ParseError: ", e.what());
  } catch (const PreconditionError& e) {
    out.error = str_cat("PreconditionError: ", e.what());
  } catch (const std::exception& e) {
    out.error = str_cat("std::exception: ", e.what());
  }
  return out;
}

LoadOutcome serial_load(const std::string& csv) {
  return run_loader(csv, serial_for_each_trajectory);
}

LoadOutcome parallel_load(const std::string& csv, std::size_t window_bytes, unsigned workers) {
  return run_loader(csv, [&](std::istream& in, const TrajectorySink& fn) {
    traj::detail::for_each_trajectory(in, fn, window_bytes, workers);
  });
}

/// The first difference between two outcomes, or "" when they match field
/// by field, with doubles compared bit for bit.
std::string first_difference(const LoadOutcome& got, const LoadOutcome& want) {
  if (got.error != want.error) return str_cat("error \"", got.error, "\" vs \"", want.error, "\"");
  if (got.trajectories.size() != want.trajectories.size()) {
    return str_cat(got.trajectories.size(), " vs ", want.trajectories.size(), " trajectories");
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < got.trajectories.size(); ++i) {
    const traj::Trajectory& a = got.trajectories[i];
    const traj::Trajectory& b = want.trajectories[i];
    if (a.id() != b.id() || a.size() != b.size()) {
      return str_cat("trajectory ", i, ": id ", a.id().value(), " with ", a.size(),
                     " points vs id ", b.id().value(), " with ", b.size());
    }
    for (std::size_t p = 0; p < a.size(); ++p) {
      const traj::Location& x = a.point(p);
      const traj::Location& y = b.point(p);
      if (x.sid != y.sid || bits(x.pos.x) != bits(y.pos.x) || bits(x.pos.y) != bits(y.pos.y) ||
          bits(x.t) != bits(y.t) || x.junction_point != y.junction_point) {
        return str_cat("trajectory ", i, " point ", p);
      }
    }
  }
  return "";
}

std::string golden_csv() {
  std::ifstream in(std::string(NEAT_TEST_DATA_DIR) + "/golden_trajectories.csv");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// CRLF endings, blank and whitespace-only lines, padded numbers, quoted
/// fields (one with an escaped quote in an unused field) and no final
/// newline.
const char* const kAwkwardCsv =
    "1,0,0,1.5,2.5,0.0,0\r\n"
    "\r\n"
    "1,1,0, 3.25 ,4.5,1.0,1\n"
    "  \t\n"
    "\"2\",0,\"1\",7.125,8.0,0.5,0\n"
    "2,\"x\"\"y\",1,9.0,10.0,1.5,0\r\n"
    "\n"
    "2,2,1,-0.0,1e-3,1.5,0";

/// Three trajectories with out-of-order ids, equal timestamps and exponent
/// notation.
const char* const kThreeTrajectories =
    "7,0,3,0.5,1.5,10.0,0\n"
    "7,1,3,2.5,1.5,11.0,1\n"
    "7,2,4,4.0,1.5,11.0,0\n"
    "2,0,9,-1.0,0.0,0.0,0\n"
    "2,1,9,-2.0,0.25,3.5,0\n"
    "5,0,1,1e3,2E-2,100,1\n"
    "5,1,1,1000.5,0.02,100.25,0\n"
    "5,2,2,1001,0.03,200,0\n";

/// Compares the parallel loader with the serial one on `csv` for every
/// window size from 1 byte to the whole input (so a window cut falls
/// between every two adjacent lines, and inside every line) and 1 to 8
/// workers (2 to 16 ranges per window).
void expect_serial_result_at_every_cut(const std::string& csv) {
  const LoadOutcome want = serial_load(csv);
  for (std::size_t window = 1; window <= csv.size() + 1; ++window) {
    for (unsigned workers = 1; workers <= 8; ++workers) {
      const std::string diff = first_difference(parallel_load(csv, window, workers), want);
      ASSERT_EQ(diff, "") << "window " << window << " bytes, " << workers << " workers";
    }
  }
}

TEST(CsvLoaderCuts, HandMadeInputsMatchTheSerialLoaderAtEveryCut) {
  for (const char* csv : {kAwkwardCsv, kThreeTrajectories}) {
    SCOPED_TRACE(csv);
    ASSERT_EQ(serial_load(csv).error, "");
    expect_serial_result_at_every_cut(csv);
  }
}

TEST(CsvLoaderCuts, GoldenFixtureMatchesTheSerialLoaderAtEveryCut) {
  const std::string csv = golden_csv();
  ASSERT_FALSE(csv.empty());
  const LoadOutcome want = serial_load(csv);
  ASSERT_EQ(want.error, "");
  ASSERT_GT(want.trajectories.size(), 1u);
  // A 1-byte window grows to 64 bytes, which holds at most two golden lines
  // (30-39 bytes each), and at 2 workers a window's 4 ranges put a cut
  // between those two: every two adjacent lines are split by a window or a
  // range cut.
  for (unsigned workers = 1; workers <= 2; ++workers) {
    EXPECT_EQ(first_difference(parallel_load(csv, 1, workers), want), "") << workers << " workers";
  }
  // Several windows of many lines each, so ranges are parsed at the same
  // time and trajectories cross both range and window cuts.
  for (const std::size_t window : {std::size_t{4096}, csv.size() / 7, csv.size()}) {
    for (unsigned workers = 1; workers <= 8; ++workers) {
      EXPECT_EQ(first_difference(parallel_load(csv, window, workers), want), "")
          << "window " << window << " bytes, " << workers << " workers";
    }
  }
  // The public entry: 8 MiB windows and one worker per hardware thread.
  EXPECT_EQ(first_difference(run_loader(csv, traj::for_each_trajectory), want), "");
}

TEST(CsvLoaderCuts, ErrorsMatchTheSerialLoaderAtEveryCut) {
  // Each input completes a trajectory before its bad line and has valid
  // rows after it, which the loaders must never pass on.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"a 5-field row", "1,0,0,0,0,0,0\n1,1,0,1,1,1,0\n2,0,1,0,0,0,0\n2,1,1,0,0\n3,0,2,0,0,0,0\n"},
      {"a malformed number", "1,0,0,0,0,0,0\n2,0,1,0,0,0,0\n2,1,1,1.5x,0,1,0\n3,0,2,0,0,0,0\n"},
      {"time going backwards",
       "1,0,0,0,0,0,0\n2,0,1,0,0,5.0,0\n2,1,1,0,0,6.0,0\n2,2,1,0,0,5.5,0\n2,3,1,0,0,7,0\n"},
      {"time going backwards after a blank line",
       "1,0,0,0,0,0,0\n2,0,1,0,0,5.0,0\n2,1,1,0,0,6.0,0\n\n2,2,1,0,0,6.5,0\n2,3,1,0,0,6.25,0\n"
       "2,4,1,0,0,7,0\n"},
      {"a repeated id", "1,0,0,0,0,0,0\n2,0,1,0,0,0,0\n\n1,0,0,0,0,9,0\n1,1,0,0,0,9,0\n"},
      {"a wrapped sid", "1,0,0,0,0,0,0\n2,0,1,0,0,0,0\n2,1,4294967301,0,0,1,0\n3,0,0,0,0,0,0\n"},
      {"a nan", "1,0,0,0,0,0,0\n2,0,1,0,0,0,0\n3,0,1,nan,0,0,0\n3,1,1,0,0,0,0\n"},
  };
  for (const auto& [what, csv] : cases) {
    SCOPED_TRACE(what);
    const LoadOutcome want = serial_load(csv);
    ASSERT_TRUE(want.error.starts_with("ParseError: line ")) << want.error;
    ASSERT_FALSE(want.trajectories.empty());
    expect_serial_result_at_every_cut(csv);
  }
}

/// Seeded mutator for the CSV loader tests: each call makes one to three
/// edits of the kinds a damaged or hostile file shows.
class CsvMutator {
 public:
  explicit CsvMutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::int64_t edits = rng_.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) edit(text);
    return text;
  }

  [[nodiscard]] std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_.index(n); }

 private:
  void edit(std::string& text) {
    const std::size_t pos = pick(text.size() + 1);  // an insertion point
    switch (rng_.uniform_int(0, 8)) {
      case 0:  // bit flip
        if (!text.empty()) text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // truncation
        text.resize(pos);
        break;
      case 2: {  // splice: copy a run of bytes elsewhere
        const std::size_t from = pick(text.size() + 1);
        const std::string run = text.substr(from, pick(80));
        text.insert(pick(text.size() + 1), run);
        break;
      }
      case 3: {  // duplicated line
        const auto [start, end] = line_around(text, pos);
        text.insert(end, text.substr(start, end - start));
        break;
      }
      case 4: {  // deleted line
        const auto [start, end] = line_around(text, pos);
        text.erase(start, end - start);
        break;
      }
      case 5: {  // digits inserted into a field
        std::string digits;
        for (std::size_t n = 1 + pick(12); n > 0; --n) digits += static_cast<char>('0' + pick(10));
        text.insert(pos, digits);
        break;
      }
      case 6:
        text.insert(pos, 1, '"');
        break;
      case 7:
        text.insert(pos, 1, '\r');
        break;
      default: {  // a field replaced by a value at the edge of what parses
        static const char* const kValues[] = {"nan", "-inf", "inf", "-1", "2147483648",
                                              "4294967301", "", " ", "1e400", "0x1",
                                              "9223372036854775808", "-0"};
        const std::size_t begin = text.rfind(',', pos == 0 ? 0 : pos - 1);
        const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = std::min(text.find_first_of(",\n", start), text.size());
        text.replace(start, end - start, kValues[pick(std::size(kValues))]);
        break;
      }
    }
  }

  /// [start, end) of the line holding byte `pos`, its newline included.
  static std::pair<std::size_t, std::size_t> line_around(const std::string& text,
                                                         std::size_t pos) {
    const std::size_t prev = pos == 0 ? std::string::npos : text.rfind('\n', pos - 1);
    const std::size_t start = prev == std::string::npos ? 0 : prev + 1;
    const std::size_t next = text.find('\n', start);
    return {start, next == std::string::npos ? text.size() : next + 1};
  }

  Rng rng_;
};

TEST(CsvLoaderMutation, MutantsOfTheGoldenFixtureLoadLikeTheSerialLoader) {
  const std::string golden = golden_csv();
  ASSERT_FALSE(golden.empty());
  std::vector<std::size_t> line_starts = {0};
  for (std::size_t i = 0; i + 1 < golden.size(); ++i) {
    if (golden[i] == '\n') line_starts.push_back(i + 1);
  }
  CsvMutator mutator(20121018);
  constexpr int kMutants = 3000;
  int loaded = 0;
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    // A run of up to 200 lines keeps each mutant small, so the budget buys
    // many mutants; every part of the fixture is reachable.
    const std::size_t first = mutator.pick(line_starts.size());
    const std::size_t last = std::min(line_starts.size() - 1, first + 1 + mutator.pick(200));
    const std::size_t end = last + 1 < line_starts.size() ? line_starts[last + 1] : golden.size();
    const std::string mutant =
        mutator.mutate(golden.substr(line_starts[first], end - line_starts[first]));

    const LoadOutcome want = serial_load(mutant);
    const std::size_t window = 1 + mutator.pick(mutant.size() + 1);
    const auto workers = static_cast<unsigned>(1 + mutator.pick(4));
    ASSERT_EQ(first_difference(parallel_load(mutant, window, workers), want), "")
        << "mutant " << m << ", window " << window << " bytes, " << workers << " workers:\n"
        << mutant;
    ASSERT_EQ(first_difference(run_loader(mutant, traj::for_each_trajectory), want), "")
        << "mutant " << m << ":\n" << mutant;
    (want.error.empty() ? loaded : rejected) += 1;
  }
  // The mutator reaches both outcomes often.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 20);
}

}  // namespace
}  // namespace neat
