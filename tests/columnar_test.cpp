// Tests for the out-of-core columnar trajectory plane: writer/store
// round-trips, file validation (magic, truncation, checksum), the
// streaming Phase 1 path's bit-identity to the in-memory one, and the
// mapped-bytes accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "obs/registry.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "sim/synthetic_stream.h"
#include "store/columnar_store.h"
#include "traj/columnar.h"
#include "traj/io.h"

namespace neat {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "neat_columnar_" + name;
}

traj::TrajectoryDataset sim_dataset(std::size_t n = 40, std::uint64_t seed = 15) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  return sim::MobilitySimulator(net, scfg).generate(n, seed);
}

void expect_identical(const Phase1Output& a, const Phase1Output& b) {
  EXPECT_EQ(a.num_fragments, b.num_fragments);
  EXPECT_EQ(a.num_gap_repairs, b.num_gap_repairs);
  ASSERT_EQ(a.base_clusters.size(), b.base_clusters.size());
  for (std::size_t i = 0; i < a.base_clusters.size(); ++i) {
    const BaseCluster& ca = a.base_clusters[i];
    const BaseCluster& cb = b.base_clusters[i];
    EXPECT_EQ(ca.sid(), cb.sid());
    EXPECT_EQ(ca.density(), cb.density());
    EXPECT_EQ(ca.participants(), cb.participants());
  }
}

/// The source's trajectories fragment exactly like the dataset's: same
/// per-trajectory Fragmenter::fragment streams.
void expect_same_fragments(const Fragmenter& fragmenter, const traj::TrajectoryDataset& data,
                           const TrajectorySource& source) {
  ASSERT_EQ(data.size(), source.size());
  for (std::size_t t = 0; t < data.size(); ++t) {
    const std::vector<TFragment> a = fragmenter.fragment(data[t]);
    const std::vector<TFragment> b = fragmenter.fragment(source.at(t));
    ASSERT_EQ(a.size(), b.size()) << "trajectory " << t;
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].trid, b[f].trid);
      EXPECT_EQ(a[f].entry.pos, b[f].entry.pos);
      EXPECT_EQ(a[f].exit.pos, b[f].exit.pos);
      EXPECT_EQ(a[f].num_samples, b[f].num_samples);
    }
  }
}

/// Thread counts every Phase 1 identity check sweeps.
constexpr unsigned kThreadCounts[] = {0, 1, 2, 3, 4, 8, 64};

TEST(Columnar, RoundTripIsBitExact) {
  const traj::TrajectoryDataset data = sim_dataset();
  const std::string path = tmp_path("roundtrip.neatcol");
  traj::save_columnar(data, path);

  const store::ColumnarTrajectoryStore cstore(path);
  ASSERT_EQ(cstore.size(), data.size());
  std::size_t points = 0;
  for (const traj::Trajectory& tr : data) points += tr.size();
  EXPECT_EQ(cstore.num_points(), points);

  for (std::size_t i = 0; i < data.size(); ++i) {
    const traj::Trajectory& orig = data[i];
    const store::TrajectoryView v = cstore.view(i);
    ASSERT_EQ(v.id, orig.id());
    ASSERT_EQ(v.size(), orig.size());
    const traj::Trajectory back = cstore.materialize(i);
    ASSERT_EQ(back.size(), orig.size());
    for (std::size_t p = 0; p < orig.size(); ++p) {
      const traj::Location& loc = orig.point(p);
      // Doubles are stored verbatim: compare exactly, not via EXPECT_NEAR.
      EXPECT_EQ(v.t[p], loc.t);
      EXPECT_EQ(v.seg[p], loc.sid.value());
      EXPECT_EQ(v.x[p], loc.pos.x);
      EXPECT_EQ(v.y[p], loc.pos.y);
      EXPECT_EQ((v.flags[p] & 1) != 0, loc.junction_point);
      EXPECT_EQ(back.point(p).t, loc.t);
      EXPECT_EQ(back.point(p).pos.x, loc.pos.x);
      EXPECT_EQ(back.point(p).sid, loc.sid);
      EXPECT_EQ(back.point(p).junction_point, loc.junction_point);
    }
  }
  std::remove(path.c_str());
}

TEST(Columnar, ConvertedCsvMatchesLoadDataset) {
  // CSV -> columnar and CSV -> load_dataset parse the same text, so the
  // materialized trajectories must agree exactly.
  const traj::TrajectoryDataset data = sim_dataset(25, 7);
  std::stringstream csv;
  traj::save_dataset(data, csv);
  const std::string csv_text = csv.str();

  const std::string path = tmp_path("converted.neatcol");
  std::istringstream conv_in(csv_text);
  const traj::ColumnarConvertStats stats = traj::convert_csv_to_columnar(conv_in, path);
  std::istringstream load_in(csv_text);
  const traj::TrajectoryDataset loaded = traj::load_dataset(load_in);

  EXPECT_EQ(stats.trajectories, loaded.size());
  const store::ColumnarTrajectoryStore cstore(path);
  ASSERT_EQ(cstore.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const traj::Trajectory back = cstore.materialize(i);
    ASSERT_EQ(back.id(), loaded[i].id());
    ASSERT_EQ(back.size(), loaded[i].size());
    for (std::size_t p = 0; p < back.size(); ++p) {
      EXPECT_EQ(back.point(p).sid, loaded[i].point(p).sid);
      EXPECT_EQ(back.point(p).pos.x, loaded[i].point(p).pos.x);
      EXPECT_EQ(back.point(p).pos.y, loaded[i].point(p).pos.y);
      EXPECT_EQ(back.point(p).t, loaded[i].point(p).t);
    }
  }
  std::remove(path.c_str());
}

TEST(Columnar, WriterRejectsEmptyAndDuplicate) {
  const std::string path = tmp_path("reject.neatcol");
  traj::ColumnarWriter writer(path);
  EXPECT_THROW(writer.append(traj::Trajectory(TrajectoryId(1))), PreconditionError);
  traj::Trajectory tr(TrajectoryId(2));
  tr.append(traj::Location{SegmentId(0), {1.0, 2.0}, 0.0, false});
  writer.append(tr);
  EXPECT_THROW(writer.append(tr), PreconditionError);  // duplicate id
  // Destructor without finish() must clean up its spill files.
}

TEST(Columnar, OpenRejectsCorruptFiles) {
  const traj::TrajectoryDataset data = sim_dataset(10, 3);
  const std::string good = tmp_path("good.neatcol");
  traj::save_columnar(data, good);
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 200u);

  const std::string bad = tmp_path("bad.neatcol");
  const auto write_bytes = [&bad](const std::string& b) {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };
  // Opening `bad` must throw ParseError, and its message names the check
  // that caught the corruption.
  const auto expect_rejected_by = [&bad](const std::string& check) {
    try {
      const store::ColumnarTrajectoryStore cstore(bad);
      ADD_FAILURE() << "corrupt file opened; expected '" << check << "'";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(check), std::string::npos) << e.what();
    }
  };

  {  // Flipped payload byte: caught by the footer checksum.
    std::string b = bytes;
    b[b.size() / 2] ^= 0x40;
    write_bytes(b);
    expect_rejected_by("failed checksum verification");
  }
  {  // Truncation: caught by the layout/size check, before the checksum.
    std::string b = bytes.substr(0, bytes.size() - 24);
    write_bytes(b);
    expect_rejected_by("is truncated or padded");
  }
  {  // Wrong magic.
    std::string b = bytes;
    b[0] = 'X';
    write_bytes(b);
    expect_rejected_by("bad magic");
  }
  {  // Too small to hold a header at all.
    write_bytes("tiny");
    expect_rejected_by("too small");
  }
  EXPECT_THROW(store::ColumnarTrajectoryStore{"/nonexistent/file.neatcol"}, Error);

  // The pristine file still opens with full verification.
  const store::ColumnarTrajectoryStore cstore(good);
  EXPECT_EQ(cstore.size(), data.size());
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(Columnar, StreamingPhase1BitIdenticalToInMemory) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 15);
  const std::string path = tmp_path("phase1.neatcol");
  traj::save_columnar(data, path);
  const store::ColumnarTrajectoryStore cstore(path);

  const Fragmenter fragmenter(net);
  const Phase1Output reference = fragmenter.build_base_clusters(data);
  for (const unsigned threads : kThreadCounts) {
    store::ColumnarTrajectorySource source(cstore);
    expect_identical(reference, fragmenter.build_base_clusters(source, threads));
  }
  expect_same_fragments(fragmenter, data, store::ColumnarTrajectorySource(cstore));
  std::remove(path.c_str());
}

TEST(Columnar, MultiBatchStreamingMatchesInMemory) {
  // More than two full batches, so trajectories of one segment are folded
  // in from several batches, plus a partial last batch.
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 110.0);
  const std::string path = tmp_path("multibatch.neatcol");
  sim::SyntheticStreamOptions opt;
  opt.trajectories = 2 * Fragmenter::kBatchSize + 123;
  opt.segments_per_trajectory = 3;
  opt.samples_per_segment = 2;
  (void)sim::generate_columnar_stream(net, path, opt);
  const store::ColumnarTrajectoryStore cstore(path);
  traj::TrajectoryDataset data;
  for (std::size_t i = 0; i < cstore.size(); ++i) data.add(cstore.materialize(i));

  const Fragmenter fragmenter(net);
  const Phase1Output reference = fragmenter.build_base_clusters(data);
  for (const unsigned threads : kThreadCounts) {
    store::ColumnarTrajectorySource source(cstore);
    expect_identical(reference, fragmenter.build_base_clusters(source, threads));
    expect_identical(reference, fragmenter.build_base_clusters(data, threads));
  }
  expect_same_fragments(fragmenter, data, store::ColumnarTrajectorySource(cstore));
  std::remove(path.c_str());
}

// Regression: a streaming worker that hit a sample on a missing segment
// used to let the exception escape its thread, and the process aborted.
TEST(Columnar, StreamingUnknownSegmentThrowsAtAnyThreadCount) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  traj::TrajectoryDataset data;
  const traj::TrajectoryDataset good = sim_dataset(30, 5);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<traj::Location> points = good[i].points();
    if (i == good.size() / 2) points.back().sid = SegmentId(999999);
    data.add(traj::Trajectory(good[i].id(), std::move(points)));
  }
  const std::string path = tmp_path("unknown_segment.neatcol");
  traj::save_columnar(data, path);
  const store::ColumnarTrajectoryStore cstore(path);
  const Fragmenter fragmenter(net);
  for (const unsigned threads : {1u, 4u}) {
    store::ColumnarTrajectorySource source(cstore);
    EXPECT_THROW((void)fragmenter.build_base_clusters(source, threads), NotFoundError)
        << threads << " threads";
  }
  std::remove(path.c_str());
}

TEST(Columnar, FullPipelineViaSourceMatchesInMemory) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(50, 19);
  const std::string path = tmp_path("pipeline.neatcol");
  traj::save_columnar(data, path);
  const store::ColumnarTrajectoryStore cstore(path);

  Config cfg;
  cfg.refine.epsilon = 500.0;
  cfg.phase1_threads = 4;
  const NeatClusterer clusterer(net, cfg);
  const Result direct = clusterer.run(data);
  store::ColumnarTrajectorySource source(cstore);
  const Result streamed = clusterer.run(source);

  ASSERT_EQ(direct.flow_clusters.size(), streamed.flow_clusters.size());
  for (std::size_t i = 0; i < direct.flow_clusters.size(); ++i) {
    EXPECT_EQ(direct.flow_clusters[i].route, streamed.flow_clusters[i].route);
    EXPECT_EQ(direct.flow_clusters[i].participants, streamed.flow_clusters[i].participants);
  }
  ASSERT_EQ(direct.final_clusters.size(), streamed.final_clusters.size());
  for (std::size_t i = 0; i < direct.final_clusters.size(); ++i) {
    EXPECT_EQ(direct.final_clusters[i].flows, streamed.final_clusters[i].flows);
  }
  std::remove(path.c_str());
}

TEST(Columnar, ReleaseKeepsDataReadable) {
  const traj::TrajectoryDataset data = sim_dataset(30, 21);
  const std::string path = tmp_path("release.neatcol");
  traj::save_columnar(data, path);
  const store::ColumnarTrajectoryStore cstore(path);
  const traj::Trajectory before = cstore.materialize(0);
  cstore.release(0, cstore.size());  // drop everything; pages fault back in
  const traj::Trajectory after = cstore.materialize(0);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(before.point(p).t, after.point(p).t);
    EXPECT_EQ(before.point(p).pos.x, after.point(p).pos.x);
  }
  cstore.release(0, 0);  // empty range is a no-op
  std::remove(path.c_str());
}

TEST(Columnar, MappedBytesAccounting) {
  const traj::TrajectoryDataset data = sim_dataset(10, 9);
  const std::string path = tmp_path("mapped.neatcol");
  traj::save_columnar(data, path);
  const std::uint64_t base = store::ColumnarTrajectoryStore::total_bytes_mapped();
  {
    const store::ColumnarTrajectoryStore cstore(path);
    EXPECT_GT(cstore.bytes_mapped(), 0u);
    EXPECT_GT(cstore.point_bytes(), 0u);
    EXPECT_LT(cstore.point_bytes(), cstore.bytes_mapped());
    EXPECT_EQ(store::ColumnarTrajectoryStore::total_bytes_mapped(),
              base + cstore.bytes_mapped());
    EXPECT_EQ(obs::Registry::global().gauge("neat_store_bytes_mapped").value(),
              static_cast<double>(base + cstore.bytes_mapped()));
  }
  EXPECT_EQ(store::ColumnarTrajectoryStore::total_bytes_mapped(), base);
  EXPECT_EQ(obs::Registry::global().gauge("neat_store_bytes_mapped").value(),
            static_cast<double>(base));
  std::remove(path.c_str());
}

TEST(Columnar, SyntheticStreamGeneratesValidFile) {
  const roadnet::RoadNetwork net = roadnet::make_grid(6, 6, 110.0);
  const std::string path = tmp_path("synthetic.neatcol");
  sim::SyntheticStreamOptions opt;
  opt.trajectories = 50;
  opt.segments_per_trajectory = 4;
  opt.samples_per_segment = 5;
  const sim::SyntheticStreamStats stats = sim::generate_columnar_stream(net, path, opt);
  EXPECT_EQ(stats.trajectories, 50u);
  EXPECT_EQ(stats.points, 50u * 4u * 5u);

  const store::ColumnarTrajectoryStore cstore(path);  // checksum verified
  ASSERT_EQ(cstore.size(), 50u);
  EXPECT_EQ(cstore.num_points(), stats.points);
  // The generated samples must be valid trajectories over this network:
  // non-decreasing time, in-range segment ids.
  for (std::size_t i = 0; i < cstore.size(); ++i) {
    const store::TrajectoryView v = cstore.view(i);
    for (std::size_t p = 0; p < v.size(); ++p) {
      ASSERT_GE(v.seg[p], 0);
      ASSERT_LT(static_cast<std::size_t>(v.seg[p]), net.segment_count());
      if (p > 0) {
        ASSERT_GE(v.t[p], v.t[p - 1]);
      }
    }
  }
  // And Phase 1 must run over them out of the box.
  const Fragmenter fragmenter(net);
  store::ColumnarTrajectorySource source(cstore);
  const Phase1Output out = fragmenter.build_base_clusters(source, 2);
  EXPECT_GT(out.base_clusters.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace neat
