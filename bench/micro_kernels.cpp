// Micro-benchmarks (google-benchmark) for the kernels the paper's cost
// arguments rest on: netflow set intersection, point-to-point and
// one-to-many node distances across the engine ladder (Dijkstra / ALT /
// contraction hierarchy), the bucket-based many-to-many table fill against
// repeated one-to-many queries, grid lookups, the modified Hausdorff distance
// with and without ELB pruning, t-fragment extraction, and the TraClus
// segment distance.
//
// Besides the usual console table, the binary writes
// bench_results/BENCH_micro.json (one row per benchmark, median-free: each
// google-benchmark repetition is already long enough to be stable) so
// tools/bench_diff.py can track the kernels across commits.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/stopwatch.h"
#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "core/netflow.h"
#include "core/refiner.h"
#include "eval/experiments.h"
#include "obs/prof/profiler.h"
#include "roadnet/ch_engine.h"
#include "roadnet/ch_table.h"
#include "roadnet/generators.h"
#include "roadnet/landmark_oracle.h"
#include "roadnet/shortest_path.h"
#include "roadnet/spatial_index.h"
#include "sim/mobility_simulator.h"
#include "traclus/segment_distance.h"

using namespace neat;

namespace {

/// Lazily built shared fixture: one mid-sized city + one dataset + flows,
/// plus the prebuilt distance accelerators the engine-ladder kernels share.
struct Fixture {
  roadnet::RoadNetwork net;
  roadnet::SegmentGridIndex index;
  roadnet::LandmarkOracle landmarks;
  roadnet::ChEngine ch;
  traj::TrajectoryDataset data;
  Result flow_result;

  static const Fixture& get() {
    static Fixture f;
    return f;
  }

 private:
  Fixture()
      : net(roadnet::make_city([] {
          roadnet::CityParams p;
          p.rows = 40;
          p.cols = 40;
          p.spacing_m = 140.0;
          p.seed = 99;
          return p;
        }())),
        index(net),
        landmarks(net),
        ch(net) {
    const sim::SimConfig scfg = sim::default_config(net, 3, 3);
    data = sim::MobilitySimulator(net, scfg).generate(200, 7);
    Config cfg;
    cfg.mode = Mode::kFlow;
    cfg.flow.min_card = 1.0;
    flow_result = NeatClusterer(net, cfg).run(data);
  }
};

void BM_NetflowIntersection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<TrajectoryId> a;
  std::vector<TrajectoryId> b;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(TrajectoryId(static_cast<std::int64_t>(2 * i)));
    b.push_back(TrajectoryId(static_cast<std::int64_t>(3 * i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_common(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NetflowIntersection)->Arg(16)->Arg(256)->Arg(4096);

void BM_DijkstraNodeDistance(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  roadnet::NodeDistanceOracle oracle(f.net);
  const auto far = NodeId(static_cast<std::int32_t>(f.net.node_count() - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.distance(NodeId(0), far));
  }
}
BENCHMARK(BM_DijkstraNodeDistance);

// The distance-engine ladder: 0 = Dijkstra, 1 = ALT, 2 = CH. Endpoints
// cycle over the network, so the CH rows measure the mixed regime the
// refiner sees: label builds on first touch, pure label merges afterwards.
void BM_PointToPointDistance(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  const int engine = static_cast<int>(state.range(0));
  roadnet::NodeDistanceOracle oracle(f.net);
  roadnet::ChEngine::Query query(f.ch);
  const auto n = static_cast<std::int32_t>(f.net.node_count());
  std::int32_t i = 0;
  for (auto _ : state) {
    const NodeId s(i % n);
    const NodeId t((i * 131 + 17) % n);
    ++i;
    const double d = engine == 2
                         ? query.distance(s, t)
                         : oracle.distance(s, t, roadnet::kInfDistance,
                                           engine == 1 ? &f.landmarks : nullptr);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PointToPointDistance)->Arg(0)->Arg(1)->Arg(2);

void BM_OneToManyDistances(benchmark::State& state) {
  // The Phase 3 batch shape: one endpoint settled against a target set in a
  // single computation. 0 = Dijkstra, 1 = ALT, 2 = CH.
  const Fixture& f = Fixture::get();
  const int engine = static_cast<int>(state.range(0));
  roadnet::NodeDistanceOracle oracle(f.net);
  roadnet::ChEngine::Query query(f.ch);
  const auto n = static_cast<std::int32_t>(f.net.node_count());
  constexpr std::size_t kTargets = 8;
  std::vector<NodeId> targets(kTargets, NodeId(0));
  std::vector<double> out(kTargets, 0.0);
  std::int32_t i = 0;
  for (auto _ : state) {
    const NodeId s(i % n);
    for (std::size_t k = 0; k < kTargets; ++k) {
      targets[k] = NodeId(static_cast<std::int32_t>(
          (i * 97 + 31 * static_cast<std::int32_t>(k) + 5) % n));
    }
    ++i;
    if (engine == 2) {
      query.distances(s, targets, out);
    } else {
      oracle.distances(s, targets, out, roadnet::kInfDistance,
                       engine == 1 ? &f.landmarks : nullptr);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTargets));
}
BENCHMARK(BM_OneToManyDistances)->Arg(0)->Arg(1)->Arg(2);

/// Lazily built many-to-many fixture: the fig7 network (ATL, honoring
/// NEAT_BENCH_NET_SCALE) with a hierarchy over it, plus a deterministic
/// 256 x 256 endpoint workload — a whole-matrix `/v1/table` request.
struct TableFixture {
  const roadnet::RoadNetwork& net;
  roadnet::ChEngine ch;
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  /// A `/v1/table?bound=` search bound: both kernels run bounded. The
  /// shared per-finite-cell resolution work (path unpack + re-sum, identical
  /// on both sides) grows with the bound and dilutes the merge-vs-join
  /// difference the kernels exist to measure.
  static constexpr double kBound = 1000.0;
  static constexpr std::size_t kSide = 256;

  static const TableFixture& get() {
    static TableFixture f;
    return f;
  }

 private:
  TableFixture() : net(eval::ExperimentEnv::instance().network("ATL")), ch(net) {
    const auto n = static_cast<std::int32_t>(net.node_count());
    for (std::size_t k = 0; k < kSide; ++k) {
      const auto i = static_cast<std::int32_t>(k);
      sources.push_back(NodeId((i * 131 + 17) % n));
      targets.push_back(NodeId((i * 197 + 59) % n));
    }
  }
};

void BM_TableRepeatedOneToMany(benchmark::State& state) {
  // The same matrix without the bucket join: one ChEngine::Query::distances()
  // call per source, each merging the source label against all 256 target
  // labels.
  const TableFixture& f = TableFixture::get();
  roadnet::ChEngine::Query query(f.ch);
  std::vector<double> out(f.targets.size(), 0.0);
  for (auto _ : state) {
    for (const NodeId s : f.sources) {
      query.distances(s, f.targets, out, TableFixture::kBound);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.sources.size() * f.targets.size()));
}
BENCHMARK(BM_TableRepeatedOneToMany);

void BM_TableManyToMany(benchmark::State& state) {
  // The bucket-based fill: one backward sweep deposits target labels into
  // per-node buckets, one forward scan per source joins against them.
  const TableFixture& f = TableFixture::get();
  roadnet::CHTableEngine table(f.ch);
  std::vector<double> out(f.sources.size() * f.targets.size(), 0.0);
  for (auto _ : state) {
    table.table(f.sources, f.targets, out, TableFixture::kBound);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_TableManyToMany);

void BM_GridNearestSegment(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  const roadnet::Bounds bb = f.net.bounding_box();
  double x = bb.min.x;
  for (auto _ : state) {
    x += 97.0;
    if (x > bb.max.x) x = bb.min.x;
    benchmark::DoNotOptimize(
        f.index.nearest_segment({x, (bb.min.y + bb.max.y) / 2}, 500.0));
  }
}
BENCHMARK(BM_GridNearestSegment);

void BM_FlowDistanceEval(benchmark::State& state) {
  // The Phase 3 inner loop: one full four-Dijkstra Hausdorff evaluation.
  const Fixture& f = Fixture::get();
  const auto& flows = f.flow_result.flow_clusters;
  if (flows.size() < 2) {
    state.SkipWithError("not enough flows");
    return;
  }
  RefineConfig cfg;
  const Refiner refiner(f.net, cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t a = i % flows.size();
    const std::size_t b = (i * 7 + 1) % flows.size();
    ++i;
    benchmark::DoNotOptimize(refiner.flow_distance(flows[a], flows[b]));
  }
}
BENCHMARK(BM_FlowDistanceEval);

void BM_ElbPrefilter(benchmark::State& state) {
  // The O(1) Euclidean check that replaces the four Dijkstras when it fires.
  const Fixture& f = Fixture::get();
  const auto& flows = f.flow_result.flow_clusters;
  if (flows.size() < 2) {
    state.SkipWithError("not enough flows");
    return;
  }
  RefineConfig cfg;
  const Refiner refiner(f.net, cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t a = i % flows.size();
    const std::size_t b = (i * 7 + 1) % flows.size();
    ++i;
    benchmark::DoNotOptimize(
        refiner.min_euclidean_endpoint_distance(flows[a], flows[b]));
  }
}
BENCHMARK(BM_ElbPrefilter);

void BM_FragmentTrajectory(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  const Fragmenter fragmenter(f.net);
  std::size_t i = 0;
  std::size_t points = 0;
  for (auto _ : state) {
    const traj::Trajectory& tr = f.data[i % f.data.size()];
    ++i;
    points += tr.size();
    benchmark::DoNotOptimize(fragmenter.fragment(tr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
}
BENCHMARK(BM_FragmentTrajectory);

void BM_TraclusSegmentDistance(benchmark::State& state) {
  const Point si{0, 0};
  const Point ei{120, 15};
  const Point sj{10, 22};
  const Point ej{140, 35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(traclus::segment_distance(si, ei, sj, ej));
  }
}
BENCHMARK(BM_TraclusSegmentDistance);

void BM_ShortestRoute(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  const auto far = NodeId(static_cast<std::int32_t>(f.net.node_count() - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        roadnet::shortest_route(f.net, NodeId(0), far, roadnet::Metric::kDistance));
  }
}
BENCHMARK(BM_ShortestRoute);

void BM_LocationDistance(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  roadnet::NodeDistanceOracle oracle(f.net);
  const auto n = static_cast<std::int32_t>(f.net.segment_count());
  std::int32_t i = 0;
  for (auto _ : state) {
    const roadnet::NetworkLocation a{SegmentId(i % n), 30.0};
    const roadnet::NetworkLocation b{SegmentId((i * 31 + 7) % n), 60.0};
    ++i;
    benchmark::DoNotOptimize(roadnet::location_distance(f.net, a, b, oracle));
  }
}
BENCHMARK(BM_LocationDistance);

void BM_Phase1Threads(benchmark::State& state) {
  // Phase 1 scaling with worker threads (results are identical; see tests).
  const Fixture& f = Fixture::get();
  const Fragmenter fragmenter(f.net);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fragmenter.build_base_clusters(f.data, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.data.total_points()));
}
BENCHMARK(BM_Phase1Threads)->Arg(1)->Arg(2)->Arg(4);

void BM_Phase2FlowFormation(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  const Fragmenter fragmenter(f.net);
  const Phase1Output p1 = fragmenter.build_base_clusters(f.data);
  FlowConfig cfg;
  for (auto _ : state) {
    const FlowBuilder builder(f.net, p1.base_clusters, cfg);
    benchmark::DoNotOptimize(builder.build());
  }
}
BENCHMARK(BM_Phase2FlowFormation);

/// Console output as usual, plus one BENCH_micro.json row per finished run
/// (seconds per iteration; counters like items/s stay in the console).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rows_.emplace_back(run.benchmark_name(),
                         std::vector<std::pair<std::string, double>>{
                             {"real_s_per_iter", run.real_accumulated_time / iters},
                             {"iterations", static_cast<double>(run.iterations)}});
    }
  }

  [[nodiscard]] const auto& rows() const { return rows_; }

 private:
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bench::BenchJson json("micro", 1.0, 1.0);
  for (const auto& [name, metrics] : reporter.rows()) json.add_row(name, metrics);

  // Derived row: the many-to-many acceptance ratio (repeated one-to-many
  // seconds over bucket-table seconds for the same 256 x 256 fill). Not an
  // `_s` metric, so bench_diff.py reports it without gating on it.
  double repeated_s = 0.0;
  double table_s = 0.0;
  for (const auto& [name, metrics] : reporter.rows()) {
    for (const auto& [key, value] : metrics) {
      if (key != "real_s_per_iter") continue;
      if (name == "BM_TableRepeatedOneToMany") repeated_s = value;
      if (name == "BM_TableManyToMany") table_s = value;
    }
  }
  if (repeated_s > 0.0 && table_s > 0.0) {
    json.add_row("ManyToManyTableSpeedup",
                 {{"speedup_x", repeated_s / table_s}});
  }

  // Hot-spot attribution: one full clustering run over the shared fixture
  // under the sampling profiler (untimed — google-benchmark already owns
  // the timings above), top symbols into the trajectory JSON.
  {
    const Fixture& f = Fixture::get();
    obs::prof::ProfilerOptions popts;
    popts.sample_hz = 997;  // the fixture run is short; sample densely
    Config cfg;
    cfg.refine.epsilon = 2000.0;
    const NeatClusterer profiled(f.net, cfg);
    const obs::prof::Profile profile = obs::prof::profile_call(
        [&] {
          // Re-run until ~a quarter second of work has accumulated so the
          // attribution is statistically meaningful even at smoke scale.
          const Stopwatch sw;
          do {
            static_cast<void>(profiled.run(f.data));
          } while (sw.elapsed_seconds() < 0.25);
        },
        popts);
    json.add_profile_row("ClusterRun_profile", profile.hot_symbols(10));
    std::cout << "profiled clustering run: " << profile.samples
              << " samples, top symbols in BENCH_micro.json\n";
  }
  const std::string json_path = eval::results_dir() + "/BENCH_micro.json";
  json.write(json_path);
  std::cout << "bench trajectory written to " << json_path
            << " (diff against a baseline with tools/bench_diff.py)\n";
  return 0;
}
