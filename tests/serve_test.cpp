// Tests for the serving subsystem: snapshot build/validate, snapshot store
// publication rules, query engine answers, bounded queue backpressure,
// ingest service end-to-end, and the metrics layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "core/clusterer.h"
#include "obs/registry.h"
#include "serve/bounded_queue.h"
#include "serve/ingest_service.h"
#include "serve/query_engine.h"
#include "test_util.h"

namespace neat {
namespace {

// A fig1 clustering result to serve: flows over the star network.
struct Fixture {
  roadnet::RoadNetwork net = testutil::fig1_network();
  Result result;

  Fixture() {
    traj::TrajectoryDataset data;
    for (auto& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
    Config cfg;
    cfg.refine.epsilon = 1000.0;
    result = NeatClusterer(net, cfg).run(data);
  }
};

TEST(ClusterSnapshot, BuildsValidIndices) {
  Fixture fx;
  ASSERT_FALSE(fx.result.flow_clusters.empty());
  const auto snap = serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                                  fx.result.final_clusters, 1);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_TRUE(snap->validate(fx.net));
  EXPECT_EQ(snap->flows().size(), fx.result.flow_clusters.size());

  // Every route segment of every flow maps back through the index.
  for (std::size_t f = 0; f < snap->flows().size(); ++f) {
    for (const SegmentId sid : snap->flows()[f].route) {
      const auto on_seg = snap->flows_on_segment(sid);
      EXPECT_NE(std::find(on_seg.begin(), on_seg.end(), static_cast<std::uint32_t>(f)),
                on_seg.end());
    }
  }
  // Unused / invalid segment ids answer empty, not UB.
  EXPECT_TRUE(snap->flows_on_segment(SegmentId::invalid()).empty());
  EXPECT_TRUE(snap->flows_on_segment(SegmentId(9999)).empty());

  // Density ranking is a permutation sorted by cardinality desc.
  const auto ranked = snap->flows_by_density();
  ASSERT_EQ(ranked.size(), snap->flows().size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(snap->flows()[ranked[i - 1]].cardinality(),
              snap->flows()[ranked[i]].cardinality());
  }
}

TEST(ClusterSnapshot, RejectsBadInputs) {
  Fixture fx;
  EXPECT_THROW(serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                             fx.result.final_clusters, 0),
               PreconditionError);
  // Final cluster referencing a nonexistent flow.
  std::vector<FinalCluster> bad_finals(1);
  bad_finals[0].flows = {fx.result.flow_clusters.size() + 5};
  EXPECT_THROW(
      serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters, bad_finals, 1),
      PreconditionError);
  // Flow routed over a segment the network does not have.
  std::vector<FlowCluster> bad_flows = fx.result.flow_clusters;
  bad_flows[0].route[0] = SegmentId(1234);
  EXPECT_THROW(serve::ClusterSnapshot::build(fx.net, bad_flows, {}, 1),
               PreconditionError);
}

TEST(SnapshotStore, PublishesMonotonicVersions) {
  Fixture fx;
  serve::SnapshotStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  store.publish(serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                              fx.result.final_clusters, 1));
  EXPECT_EQ(store.version(), 1u);
  store.publish(serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                              fx.result.final_clusters, 2));
  EXPECT_EQ(store.version(), 2u);
  // Same or lower version: refused.
  EXPECT_THROW(store.publish(serve::ClusterSnapshot::build(
                   fx.net, fx.result.flow_clusters, fx.result.final_clusters, 2)),
               PreconditionError);
  EXPECT_THROW(store.publish(nullptr), PreconditionError);
  // A reader pinning the old snapshot keeps it alive across a publish.
  const auto pinned = store.current();
  store.publish(serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                              fx.result.final_clusters, 3));
  EXPECT_EQ(pinned->version(), 2u);
  EXPECT_EQ(store.version(), 3u);
}

TEST(QueryEngine, AnswersAgainstPublishedSnapshot) {
  Fixture fx;
  serve::SnapshotStore store;
  serve::Metrics metrics;
  const serve::QueryEngine engine(fx.net, store, &metrics);

  // Before any publish: empty answers, no crash.
  EXPECT_FALSE(engine.nearest_flow({100.0, 0.0}, 500.0).has_value());
  EXPECT_TRUE(engine.flows_on_segment(SegmentId(0)).flows.empty());
  EXPECT_TRUE(engine.top_k_flows(3).flows.empty());
  EXPECT_GE(metrics.snapshot().empty_snapshot_queries, 3u);

  store.publish(serve::ClusterSnapshot::build(fx.net, fx.result.flow_clusters,
                                              fx.result.final_clusters, 1));

  // Point on S1 (between n1 and n2): the nearest flow must route over S1.
  const auto hit = engine.nearest_flow({50.0, 5.0}, 200.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->snapshot_version, 1u);
  EXPECT_EQ(hit->segment, SegmentId(0));
  EXPECT_NEAR(hit->distance_m, 5.0, 1e-9);
  const auto& route = fx.result.flow_clusters[hit->flow].route;
  EXPECT_NE(std::find(route.begin(), route.end(), SegmentId(0)), route.end());
  EXPECT_EQ(hit->cardinality, fx.result.flow_clusters[hit->flow].cardinality());

  // Far away: no hit.
  EXPECT_FALSE(engine.nearest_flow({5000.0, 5000.0}, 300.0).has_value());

  // Segment membership matches the ground truth from the result.
  for (std::size_t s = 0; s < fx.net.segment_count(); ++s) {
    const auto sid = SegmentId(static_cast<std::int32_t>(s));
    std::vector<std::uint32_t> expect;
    for (std::size_t f = 0; f < fx.result.flow_clusters.size(); ++f) {
      const auto& r = fx.result.flow_clusters[f].route;
      if (std::find(r.begin(), r.end(), sid) != r.end()) {
        expect.push_back(static_cast<std::uint32_t>(f));
      }
    }
    EXPECT_EQ(engine.flows_on_segment(sid).flows, expect) << "segment " << s;
  }

  // Top-k: k larger than the flow count returns all, densest first.
  const auto top = engine.top_k_flows(100);
  ASSERT_EQ(top.flows.size(), fx.result.flow_clusters.size());
  for (std::size_t i = 1; i < top.flows.size(); ++i) {
    EXPECT_GE(top.flows[i - 1].cardinality, top.flows[i].cardinality);
  }
  EXPECT_EQ(engine.top_k_flows(1).flows.size(), 1u);

  const serve::MetricsSnapshot m = metrics.snapshot();
  EXPECT_GT(m.queries_total, 0u);
  EXPECT_GT(m.nearest_flow_queries, 0u);
  EXPECT_GT(m.segment_queries, 0u);
  EXPECT_GT(m.top_k_queries, 0u);
}

TEST(BoundedQueue, RejectAndBlockBackpressure) {
  serve::BoundedQueue<int> q(2);
  EXPECT_THROW(serve::BoundedQueue<int>(0), PreconditionError);
  EXPECT_EQ(q.push(1, /*block=*/false), serve::PushResult::kAccepted);
  EXPECT_EQ(q.push(2, false), serve::PushResult::kAccepted);
  EXPECT_EQ(q.push(3, false), serve::PushResult::kRejected);
  EXPECT_EQ(q.size(), 2u);

  // A blocking push completes once the consumer frees a slot.
  std::thread producer([&] { EXPECT_EQ(q.push(3, true), serve::PushResult::kAccepted); });
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));

  // close() drains remaining items, then signals end-of-stream.
  q.push(7, false);
  q.close();
  EXPECT_EQ(q.push(8, false), serve::PushResult::kClosed);
  EXPECT_EQ(q.push(9, true), serve::PushResult::kClosed);
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(IngestService, PublishesSnapshotPerBatch) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  Config cfg;
  cfg.refine.epsilon = 1000.0;
  serve::SnapshotStore store;
  serve::Metrics metrics;
  serve::IngestService ingest(net, cfg, store, metrics);
  const serve::QueryEngine engine(net, store, &metrics);

  const NodeId n1(0), n2(1), n3(2), n5(4);
  traj::TrajectoryDataset batch1;
  batch1.add(testutil::make_path_trajectory(net, 1, {n1, n2, n3}));
  batch1.add(testutil::make_path_trajectory(net, 2, {n1, n2, n3}));
  traj::TrajectoryDataset batch2;
  batch2.add(testutil::make_path_trajectory(net, 3, {n1, n2, n5}));

  EXPECT_TRUE(ingest.submit(std::move(batch1)));
  EXPECT_TRUE(ingest.submit(std::move(batch2)));
  ingest.flush();

  EXPECT_EQ(ingest.batches_published(), 2u);
  EXPECT_EQ(store.version(), 2u);
  const auto snap = engine.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->validate(net));
  EXPECT_FALSE(snap->flows().empty());
  EXPECT_EQ(metrics.snapshot().batches_ingested, 2u);
  EXPECT_EQ(metrics.snapshot().trajectories_ingested, 3u);
  EXPECT_EQ(metrics.snapshot().snapshot_version, 2u);

  // A bad batch (a new id 4 next to the duplicate id 1) is counted failed;
  // the last good snapshot keeps serving.
  traj::TrajectoryDataset dup;
  dup.add(testutil::make_path_trajectory(net, 4, {n1, n2, n3}));
  dup.add(testutil::make_path_trajectory(net, 1, {n1, n2}));
  EXPECT_TRUE(ingest.submit(std::move(dup)));
  ingest.flush();
  EXPECT_EQ(metrics.snapshot().batches_failed, 1u);
  EXPECT_EQ(store.version(), 2u);

  // The failed batch was dropped whole, so its new id 4 is still free.
  traj::TrajectoryDataset retry;
  retry.add(testutil::make_path_trajectory(net, 4, {n1, n2, n3}));
  EXPECT_TRUE(ingest.submit(std::move(retry)));
  ingest.flush();
  EXPECT_EQ(metrics.snapshot().batches_failed, 1u);
  EXPECT_EQ(ingest.batches_published(), 3u);
  EXPECT_EQ(store.version(), 3u);

  ingest.stop();
  // After stop, submissions are refused.
  traj::TrajectoryDataset late;
  late.add(testutil::make_path_trajectory(net, 99, {n1, n2}));
  EXPECT_FALSE(ingest.submit(std::move(late)));
}

TEST(Metrics, HistogramQuantilesAndPrometheusExport) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.quantile_seconds(0.5), 0.0);
  // 10 obs at ~2 µs, 1 at ~1000 µs: p50 in a small bucket, p99+ in the big.
  for (int i = 0; i < 10; ++i) h.record(2e-6);
  h.record(1e-3);
  EXPECT_EQ(h.count(), 11u);
  EXPECT_LE(h.quantile_seconds(0.5), 8e-6);
  EXPECT_GE(h.quantile_seconds(0.999), 1e-3);
  EXPECT_GT(h.mean_seconds(), 0.0);
  // Quantiles are conservative upper edges: monotone in q.
  EXPECT_LE(h.quantile_seconds(0.2), h.quantile_seconds(0.9));

  serve::Metrics metrics;
  metrics.record_query(serve::Metrics::QueryKind::kNearestFlow, 1e-5);
  metrics.record_ingest(42, 0.01, 7);
  EXPECT_EQ(metrics.snapshot_version(), 7u);
  EXPECT_GE(metrics.snapshot_age_seconds(), 0.0);
  // The same numbers through the registry, the one export format.
  const obs::Registry& reg = metrics.registry();
  EXPECT_EQ(reg.counter_value("neat_serve_queries_total", {{"kind", "nearest_flow"}}), 1u);
  EXPECT_EQ(reg.counter_value("neat_serve_ingested_trajectories_total"), 42u);
  const std::string text = reg.to_prometheus();
  for (const char* line :
       {"\nneat_serve_queries_total{kind=\"nearest_flow\"} 1\n",
        "\nneat_serve_query_duration_seconds_count 1\n",
        "\nneat_serve_ingested_trajectories_total 42\n",
        "\nneat_serve_ingest_batches_total{result=\"ok\"} 1\n",
        "\nneat_serve_snapshot_version 7\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing " << line << " in " << text;
  }
}

TEST(Incremental, SnapshotStateIsDeepCopy) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  Config cfg;
  cfg.refine.epsilon = 1000.0;
  IncrementalClusterer inc(net, cfg);
  traj::TrajectoryDataset batch;
  for (auto& tr : testutil::fig1_trajectories(net)) batch.add(std::move(tr));
  inc.add_batch(batch);

  auto [flows, clusters] = inc.snapshot_state();
  EXPECT_EQ(flows.size(), inc.flows().size());
  EXPECT_EQ(clusters.size(), inc.clusters().size());
  // Mutating the copy leaves the live state untouched.
  ASSERT_FALSE(flows.empty());
  flows[0].participants.clear();
  EXPECT_FALSE(inc.flows()[0].participants.empty());
}

}  // namespace
}  // namespace neat
