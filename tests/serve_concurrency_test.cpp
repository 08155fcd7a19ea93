// Snapshot consistency under concurrent readers + writer.
//
// The acceptance property of the serving design: while the IngestService
// publishes a stream of snapshots, every concurrent query observes a
// *complete, internally consistent* snapshot — versions only move forward,
// flow indices returned by any query are valid in the snapshot that
// answered it, and pinned snapshots stay fully valid while newer versions
// land. Run with NEAT_SANITIZE=thread to also prove data-race freedom.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "roadnet/generators.h"
#include "serve/ingest_service.h"
#include "serve/query_engine.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

constexpr unsigned kQueryThreads = 4;
constexpr std::size_t kBatches = 5;
constexpr std::size_t kTripsPerBatch = 40;

TEST(ServeConcurrency, ReadersSeeConsistentSnapshotsDuringIngest) {
  const roadnet::RoadNetwork net = roadnet::make_grid(12, 12, 100.0);
  const roadnet::Bounds bb = net.bounding_box();

  Config cfg;
  cfg.refine.epsilon = 600.0;
  serve::SnapshotStore store;
  obs::Registry reg;
  serve::IngestOptions opts;
  opts.queue_capacity = 2;  // small queue: exercises producer blocking too
  serve::IngestService ingest(net, cfg, store, reg, opts);
  const serve::QueryEngine engine(net, store);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checks{0};
  std::vector<std::string> failures(kQueryThreads);
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_version = 0;
      std::uint64_t iter = 0;
      const auto fail = [&](const std::string& what) {
        if (failures[t].empty()) failures[t] = what;
      };
      while (!done.load(std::memory_order_acquire) && failures[t].empty()) {
        ++iter;
        // Pin a snapshot and check full internal consistency. validate() is
        // expensive, so do it on a subsample of iterations.
        const auto snap = engine.snapshot();
        if (snap) {
          if (snap->version() < last_version) fail("snapshot version went backwards");
          last_version = snap->version();
          if (iter % 16 == 0 && !snap->validate(net)) {
            fail("snapshot failed validate()");
          }
          // Final clusters reference valid flows of *this* snapshot.
          for (const FinalCluster& c : snap->final_clusters()) {
            for (const std::size_t f : c.flows) {
              if (f >= snap->flows().size()) fail("final cluster flow out of range");
            }
          }
        }
        // Queries answer from a complete snapshot: every returned flow index
        // is valid for the version stamped on the answer. The engine pins
        // the snapshot internally, so the stamped version can only lag the
        // store's current version, never exceed it.
        const double x = bb.min.x + static_cast<double>(iter * 131 % 1000) / 1000.0 *
                                        (bb.max.x - bb.min.x);
        const double y = bb.min.y + static_cast<double>((iter * 73 + t * 37) % 1000) /
                                        1000.0 * (bb.max.y - bb.min.y);
        if (const auto hit = engine.nearest_flow({x, y}, 300.0)) {
          const auto now = engine.snapshot();
          if (!now || hit->snapshot_version > now->version()) {
            fail("nearest_flow stamped a version newer than the store");
          }
          if (hit->cardinality <= 0) fail("nearest_flow returned an empty flow");
        }
        const auto sid = SegmentId(static_cast<std::int32_t>(
            (iter * 7 + t) % net.segment_count()));
        const serve::SegmentFlows seg = engine.flows_on_segment(sid);
        const auto top = engine.top_k_flows(3);
        if (seg.snapshot_version > 0 && top.snapshot_version > 0 &&
            top.snapshot_version < seg.snapshot_version) {
          fail("later query answered from an older snapshot");
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: feed batches while the readers hammer the store.
  const sim::SimConfig sim_cfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, sim_cfg);
  std::int64_t next_id = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const traj::TrajectoryDataset raw =
        simulator.generate(kTripsPerBatch, 500 + static_cast<std::uint64_t>(b));
    traj::TrajectoryDataset batch;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      batch.add(traj::Trajectory(TrajectoryId(next_id++), raw[i].points()));
    }
    ASSERT_TRUE(ingest.submit(std::move(batch)));
  }
  ingest.flush();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  for (unsigned t = 0; t < kQueryThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "reader " << t;
  }
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(ingest.batches_published(), kBatches);
  EXPECT_EQ(store.version(), kBatches);
  const auto final_snap = store.current();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_TRUE(final_snap->validate(net));
  EXPECT_EQ(reg.counter_value("neat_serve_ingest_batches_total", {{"result", "ok"}}),
            kBatches);
}

TEST(ServeConcurrency, ManyProducersWithRejectPolicyNeverDeadlock) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  Config cfg;
  cfg.refine.epsilon = 1000.0;
  serve::SnapshotStore store;
  obs::Registry reg;
  serve::IngestOptions opts;
  opts.queue_capacity = 1;
  opts.backpressure = serve::IngestOptions::Backpressure::kReject;
  serve::IngestService ingest(net, cfg, store, reg, opts);

  // 4 producers race tiny batches into a capacity-1 queue; some get shed,
  // none block, and every accepted batch is eventually processed.
  constexpr unsigned kProducers = 4;
  constexpr int kPerProducer = 25;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * 1000 + i;
        traj::TrajectoryDataset batch;
        batch.add(testutil::make_path_trajectory(net, id, {NodeId(0), NodeId(1), NodeId(2)}));
        if (ingest.submit(std::move(batch))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  ingest.flush();
  ingest.stop();

  const std::uint64_t ok =
      reg.counter_value("neat_serve_ingest_batches_total", {{"result", "ok"}});
  const std::uint64_t rejected =
      reg.counter_value("neat_serve_ingest_batches_total", {{"result", "rejected"}});
  EXPECT_EQ(ingest.batches_accepted(), accepted.load());
  EXPECT_EQ(ok, accepted.load());
  EXPECT_EQ(ok + rejected, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(store.version(), accepted.load());
}

}  // namespace
}  // namespace neat
