// Tests for the synthetic network generators: determinism, connectivity,
// speed hierarchy, and Table I statistic matching for the presets.
#include <gtest/gtest.h>

#include <ostream>
#include <queue>

#include "common/error.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {
namespace {

std::size_t connected_component_size(const RoadNetwork& net, NodeId start) {
  std::vector<bool> seen(net.node_count(), false);
  std::queue<NodeId> frontier;
  frontier.push(start);
  seen[static_cast<std::size_t>(start.value())] = true;
  std::size_t count = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    ++count;
    for (const SegmentId sid : net.segments_at(u)) {
      const NodeId v = net.other_endpoint(sid, u);
      if (!seen[static_cast<std::size_t>(v.value())]) {
        seen[static_cast<std::size_t>(v.value())] = true;
        frontier.push(v);
      }
    }
  }
  return count;
}

TEST(MakeGrid, ExactCounts) {
  const RoadNetwork net = make_grid(4, 5, 100.0);
  EXPECT_EQ(net.node_count(), 20u);
  // Horizontal: 4 rows x 4, vertical: 3 x 5.
  EXPECT_EQ(net.segment_count(), 31u);
  EXPECT_EQ(net.stats().max_junction_degree, 4);
}

TEST(MakeGrid, ValidatesArgs) {
  EXPECT_THROW(make_grid(0, 5, 100.0), PreconditionError);
  EXPECT_THROW(make_grid(5, 5, -1.0), PreconditionError);
}

TEST(MakeCity, DeterministicForSeed) {
  CityParams p;
  p.rows = 15;
  p.cols = 15;
  p.seed = 7;
  const RoadNetwork a = make_city(p);
  const RoadNetwork b = make_city(p);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.segment_count(), b.segment_count());
  for (std::size_t i = 0; i < a.segment_count(); ++i) {
    const auto sid = SegmentId(static_cast<std::int32_t>(i));
    EXPECT_EQ(a.segment(sid).a, b.segment(sid).a);
    EXPECT_EQ(a.segment(sid).b, b.segment(sid).b);
    EXPECT_DOUBLE_EQ(a.segment(sid).length, b.segment(sid).length);
  }
}

TEST(MakeCity, DifferentSeedsDiffer) {
  CityParams p;
  p.rows = 15;
  p.cols = 15;
  p.seed = 7;
  const RoadNetwork a = make_city(p);
  p.seed = 8;
  const RoadNetwork b = make_city(p);
  EXPECT_NE(a.segment_count(), b.segment_count());
}

TEST(MakeCity, UndirectedConnected) {
  CityParams p;
  p.rows = 20;
  p.cols = 20;
  p.seed = 3;
  const RoadNetwork net = make_city(p);
  ASSERT_GT(net.node_count(), 0u);
  EXPECT_EQ(connected_component_size(net, NodeId(0)), net.node_count());
}

TEST(MakeCity, SpeedHierarchyPresent) {
  CityParams p;
  p.rows = 25;
  p.cols = 25;
  p.seed = 5;
  const RoadNetwork net = make_city(p);
  bool has_arterial = false;
  bool has_local = false;
  for (const Segment& s : net.segments()) {
    if (s.speed_limit == p.arterial_speed_mps) has_arterial = true;
    if (s.speed_limit == p.local_speed_mps) has_local = true;
  }
  EXPECT_TRUE(has_arterial);
  EXPECT_TRUE(has_local);
}

TEST(MakeCity, OneWaySegmentsAppear) {
  CityParams p;
  p.rows = 25;
  p.cols = 25;
  p.oneway_probability = 0.2;
  p.seed = 5;
  const RoadNetwork net = make_city(p);
  std::size_t oneway = 0;
  for (const Segment& s : net.segments()) {
    if (!s.bidirectional) ++oneway;
  }
  EXPECT_GT(oneway, 0u);
  EXPECT_LT(oneway, net.segment_count() / 2);
}

TEST(MakeCity, ValidatesParams) {
  CityParams p;
  p.rows = 1;
  EXPECT_THROW(make_city(p), PreconditionError);
  p = CityParams{};
  p.spacing_m = 0.0;
  EXPECT_THROW(make_city(p), PreconditionError);
}

TEST(NamedCity, UnknownNameThrows) {
  EXPECT_THROW(make_named_city("BOS"), PreconditionError);
  EXPECT_THROW(make_named_city("ATL", 0.0), PreconditionError);
  EXPECT_THROW(make_named_city("ATL", 1.5), PreconditionError);
}

// Preset statistics vs the paper's Table I, at a reduced scale (the full MIA
// build is exercised by the bench, not the unit suite). At scale the ratio
// statistics (avg degree, avg segment length) must match; absolute counts
// scale with the linear dimensions.
struct PresetCase {
  const char* name;
  double paper_avg_degree;
  double paper_avg_segment_m;
  int paper_max_degree;
};

// Without this gtest prints the raw bytes of the case (a string pointer and
// padding), which differ from run to run and leak into discovered test names.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class PresetStats : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PresetStats, RatiosMatchTableOne) {
  const PresetCase c = GetParam();
  const RoadNetwork net = make_named_city(c.name, 0.25);
  const NetworkStats st = net.stats();
  EXPECT_NEAR(st.avg_junction_degree, c.paper_avg_degree, 0.2) << c.name;
  EXPECT_NEAR(st.avg_segment_length_m, c.paper_avg_segment_m, 12.0) << c.name;
  EXPECT_LE(st.max_junction_degree, c.paper_max_degree + 1) << c.name;
  EXPECT_GE(st.max_junction_degree, 5) << c.name;
}

INSTANTIATE_TEST_SUITE_P(TableOne, PresetStats,
                         ::testing::Values(PresetCase{"ATL", 2.6, 150.7, 6},
                                           PresetCase{"SJ", 2.7, 124.7, 6},
                                           PresetCase{"MIA", 3.0, 169.0, 9}),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(PresetStats, FullScaleAtlCountsNearTableOne) {
  const RoadNetwork net = make_named_city("ATL", 1.0);
  const NetworkStats st = net.stats();
  // Paper: 9187 segments, 6979 junctions, 1384.4 km.
  EXPECT_NEAR(static_cast<double>(st.num_segments), 9187.0, 9187.0 * 0.12);
  EXPECT_NEAR(static_cast<double>(st.num_junctions), 6979.0, 6979.0 * 0.12);
  EXPECT_NEAR(st.total_length_km, 1384.4, 1384.4 * 0.15);
}

}  // namespace
}  // namespace neat::roadnet
