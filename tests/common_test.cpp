// Unit tests for the common substrate: ids, geometry, strings, CSV, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/csv.h"
#include "common/error.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace neat {
namespace {

// --- ids ---------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  const SegmentId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42);
}

TEST(Ids, Ordering) {
  EXPECT_LT(NodeId(1), NodeId(2));
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_same_v<NodeId, SegmentId>);
  static_assert(!std::is_convertible_v<NodeId, SegmentId>);
  static_assert(!std::is_convertible_v<int, NodeId>);  // explicit only
}

TEST(Ids, Hashable) {
  std::unordered_set<TrajectoryId> set;
  set.insert(TrajectoryId(7));
  set.insert(TrajectoryId(7));
  set.insert(TrajectoryId(8));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, StreamOutput) {
  std::ostringstream os;
  os << NodeId(5) << ' ' << NodeId::invalid();
  EXPECT_EQ(os.str(), "5 <invalid>");
}

// --- geometry ------------------------------------------------------------

TEST(Geometry, PointArithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(a, b), -7.0);
}

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {3, 4}), 25.0);
}

TEST(Geometry, ProjectionInterior) {
  const Projection p = project_onto_segment({5, 3}, {0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(p.t, 0.5);
  EXPECT_EQ(p.closest, (Point{5, 0}));
  EXPECT_DOUBLE_EQ(p.dist, 3.0);
}

TEST(Geometry, ProjectionClampsToEndpoints) {
  EXPECT_DOUBLE_EQ(project_onto_segment({-5, 0}, {0, 0}, {10, 0}).t, 0.0);
  EXPECT_DOUBLE_EQ(project_onto_segment({15, 0}, {0, 0}, {10, 0}).t, 1.0);
  EXPECT_DOUBLE_EQ(point_segment_distance({-3, 4}, {0, 0}, {10, 0}), 5.0);
}

TEST(Geometry, ProjectionDegenerateSegment) {
  const Projection p = project_onto_segment({3, 4}, {0, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(p.t, 0.0);
  EXPECT_DOUBLE_EQ(p.dist, 5.0);
}

TEST(Geometry, PolylineLength) {
  EXPECT_DOUBLE_EQ(polyline_length({}), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length({{0, 0}}), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length({{0, 0}, {3, 4}, {3, 14}}), 15.0);
}

TEST(Geometry, PointAlongPolyline) {
  const std::vector<Point> line{{0, 0}, {10, 0}, {10, 10}};
  EXPECT_EQ(point_along_polyline(line, -1.0), (Point{0, 0}));
  EXPECT_EQ(point_along_polyline(line, 5.0), (Point{5, 0}));
  EXPECT_EQ(point_along_polyline(line, 15.0), (Point{10, 5}));
  EXPECT_EQ(point_along_polyline(line, 100.0), (Point{10, 10}));
  EXPECT_THROW((void)point_along_polyline({}, 1.0), PreconditionError);
}

TEST(Geometry, HeadingAndAngleDifference) {
  EXPECT_DOUBLE_EQ(heading({0, 0}, {1, 0}), 0.0);
  EXPECT_NEAR(heading({0, 0}, {0, 1}), M_PI / 2, 1e-12);
  EXPECT_NEAR(angle_difference(0.1, -0.1), 0.2, 1e-12);
  // Wraps around the circle: 350 degrees apart is really 10 degrees.
  EXPECT_NEAR(angle_difference(0.0, 2 * M_PI - 0.2), 0.2, 1e-9);
}

TEST(Geometry, LerpEndpoints) {
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 0.0), (Point{0, 0}));
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 1.0), (Point{10, 20}));
  EXPECT_EQ(lerp({0, 0}, {10, 20}, 0.5), (Point{5, 10}));
}

// --- string_util -----------------------------------------------------------

TEST(StringUtil, StrCat) {
  EXPECT_EQ(str_cat("a", 1, 'b', 2.5), "a1b2.5");
  EXPECT_EQ(str_cat(), "");
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
  EXPECT_THROW((void)parse_double("abc"), ParseError);
  EXPECT_THROW((void)parse_double("1.5x"), ParseError);
  EXPECT_THROW((void)parse_double(""), ParseError);
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW((void)parse_int("4.2"), ParseError);
  EXPECT_THROW((void)parse_int(""), ParseError);
}

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// --- csv -----------------------------------------------------------------

TEST(Csv, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriteReadRoundTrip) {
  std::stringstream ss;
  CsvWriter writer(ss);
  writer.write_row({"a", "b,c", "d\"e", ""});
  writer.write_row({"1", "2"});
  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"a", "b,c", "d\"e", ""}));
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2"}));
  EXPECT_FALSE(reader.read_row(row));
}

TEST(Csv, ReadsCrLfAndMissingTrailingNewline) {
  std::stringstream ss("a,b\r\nc,d");
  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"c", "d"}));
  EXPECT_FALSE(reader.read_row(row));
}

TEST(Csv, QuotedFieldWithNewline) {
  std::stringstream ss("\"a\nb\",c\n");
  CsvReader reader(ss);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"a\nb", "c"}));
}

TEST(Csv, MalformedQuotingThrows) {
  std::stringstream ss("ab\"cd\n");
  CsvReader reader(ss);
  std::vector<std::string> row;
  EXPECT_THROW(reader.read_row(row), ParseError);
  std::stringstream ss2("\"unterminated");
  CsvReader reader2(ss2);
  EXPECT_THROW(reader2.read_row(row), ParseError);
}

// --- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differs = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
    const auto n = rng.uniform_int(5, 9);
    EXPECT_GE(n, 5);
    EXPECT_LE(n, 9);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, PickAndIndexValidate) {
  Rng rng(7);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
  EXPECT_THROW((void)rng.index(0), PreconditionError);
  EXPECT_THROW((void)rng.pick(std::vector<int>{}), PreconditionError);
  EXPECT_THROW((void)rng.uniform_int(3, 2), PreconditionError);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(9);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.weighted_index(w), 1u);
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(5);
  Rng b(5);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fa.uniform_int(0, 1000000), fb.uniform_int(0, 1000000));
  }
}

// --- error ------------------------------------------------------------------

TEST(Error, ExpectMacroThrowsWithContext) {
  try {
    NEAT_EXPECT(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(Error, HierarchyCatchableAsNeatError) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw NotFoundError("x"), Error);
  EXPECT_THROW(throw PreconditionError("x"), Error);
}

}  // namespace
}  // namespace neat
