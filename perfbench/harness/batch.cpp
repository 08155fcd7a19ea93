// The batch workloads: city_csv (CSV -> in-memory Phase 1) and
// corridor_columnar (.neatcol -> streaming Phase 1). One pass goes from the
// input file on disk to the first 200 from /v1/nearest served on the
// snapshot built from it; then the served snapshot takes the query load.
#include <malloc.h>

#include <filesystem>
#include <iostream>
#include <memory>

#include "inputs.h"
#include "layers.h"
#include "obs/resource_sampler.h"
#include "roadnet/generators.h"
#include "serving.h"
#include "sim/synthetic_stream.h"
#include "store/columnar_store.h"
#include "traj/io.h"

namespace perfbench {

namespace {

constexpr int kSetups = 3;                 ///< setup_s is the median of this many set-ups.
constexpr std::size_t kCityTrips = 5000;   ///< MIA5000.
constexpr std::size_t kCorridorWalks = 20000;
constexpr double kClusterQuantile = 0.10;  ///< cluster_s is this quantile of pass times.
constexpr double kMiB = 1024.0 * 1024.0;

struct Spec {
  const char* name;
  bool columnar;
  double epsilon;
};

neat::Config config_for(const Spec& spec, unsigned threads) {
  neat::Config cfg;
  cfg.refine.epsilon = spec.epsilon;
  cfg.phase1_threads = threads;
  cfg.refine.threads = threads;
  return cfg;
}

/// What set-up leaves ready for the timed passes: the network, the input
/// file, the serial reference digest, and a running query plane.
struct BatchEnv {
  explicit BatchEnv(neat::roadnet::RoadNetwork n) : net(std::move(n)) {}
  neat::roadnet::RoadNetwork net;
  std::string input;
  Digest reference;
  std::size_t trajectories{0};
  std::size_t points{0};
  neat::serve::SnapshotStore store;
  std::unique_ptr<ServeStack> stack;
  RequestMix mix;
  neat::Point probe;  ///< Where a pass polls /v1/nearest for its first 200.
  std::uint64_t version{0};
};

std::unique_ptr<BatchEnv> set_up(Recorder& rec, const Spec& spec) {
  const Options& o = rec.options();
  auto env = std::make_unique<BatchEnv>(neat::roadnet::make_named_city("MIA"));
  std::filesystem::create_directories(o.out_dir + "/inputs");
  env->input = o.out_dir + "/inputs/" + spec.name + "-seed" + std::to_string(o.seed) +
               (spec.columnar ? ".neatcol" : ".csv");
  neat::Config serial = config_for(spec, 1);
  neat::Result ref;
  if (spec.columnar) {
    neat::sim::SyntheticStreamOptions so;
    so.trajectories = kCorridorWalks;
    so.seed = o.seed;
    const auto stats = neat::sim::generate_columnar_stream(env->net, env->input, so);
    env->trajectories = stats.trajectories;
    env->points = stats.points;
    const neat::store::ColumnarTrajectoryStore store(env->input);
    neat::store::ColumnarTrajectorySource source(store);
    ref = neat::NeatClusterer(env->net, serial).run(source);
  } else {
    const neat::traj::TrajectoryDataset data =
        neat::sim::MobilitySimulator(env->net, mia_sim_config(env->net))
            .generate(kCityTrips, o.seed);
    write_trajectory_csv(data, env->input);
    env->trajectories = data.size();
    env->points = data.total_points();
    ref = neat::NeatClusterer(env->net, serial).run(data);
  }
  malloc_trim(0);  // hand the generator's heap back before RSS is measured
  env->reference = digest_of(ref);
  env->mix.net = &env->net;
  env->mix.points = flow_points(env->net, ref.flow_clusters);
  env->mix.destinations = neat::sim::default_config(env->net, 1, 8).destinations;
  if (env->mix.points.empty()) throw std::runtime_error("reference run found no flows");
  env->probe = env->mix.points.front();
  env->store.publish(neat::serve::ClusterSnapshot::build(
      env->net, std::move(ref.flow_clusters), std::move(ref.final_clusters), ++env->version));
  env->stack = std::make_unique<ServeStack>(env->net, env->store, o.threads);
  if (!warm_up(env->stack->port(), env->mix, o.seed)) {
    throw std::runtime_error("query plane warm-up failed");
  }
  return env;
}

/// Publishes a pass's clusters and waits for the first 200 served on them.
bool hand_off(Recorder& rec, BatchEnv& env, std::vector<neat::FlowCluster> flows,
              std::vector<neat::FinalCluster> finals, std::vector<double>* build_s,
              std::vector<double>* publish_s, std::vector<double>* first_200_s) {
  rec.maybe_delay("serve");
  const std::uint64_t version = ++env.version;
  auto snapshot = timed(rec, "serve.snapshot_build", build_s, [&] {
    return neat::serve::ClusterSnapshot::build(env.net, std::move(flows), std::move(finals),
                                               version);
  });
  timed(rec, "serve.publish", publish_s, [&] { env.store.publish(std::move(snapshot)); });
  return timed(rec, "net.first_200", first_200_s,
               [&] { return wait_first_200(env.stack->port(), env.probe, version); });
}

/// One pass through NeatClusterer::run, as a user runs it (no spans).
double untraced_pass(Recorder& rec, BatchEnv& env, const Spec& spec, const neat::Config& cfg) {
  const Clock::time_point t0 = Clock::now();
  neat::Result res;
  std::unique_ptr<neat::store::ColumnarTrajectoryStore> store;
  neat::traj::TrajectoryDataset data;
  if (spec.columnar) {
    rec.maybe_delay("store");
    store = std::make_unique<neat::store::ColumnarTrajectoryStore>(env.input);
    neat::store::ColumnarTrajectorySource source(*store);
    res = neat::NeatClusterer(env.net, cfg).run(source);
  } else {
    rec.maybe_delay("traj");
    data = neat::traj::load_dataset(env.input);
    res = neat::NeatClusterer(env.net, cfg).run(data);
  }
  const Digest got = digest_of(res);
  const bool served = hand_off(rec, env, std::move(res.flow_clusters),
                               std::move(res.final_clusters), nullptr, nullptr, nullptr);
  const double seconds = seconds_since(t0);
  rec.attempt(got == env.reference, "pass digest " + got.str() + " != reference " +
                                        env.reference.str());
  rec.attempt(served, "no 200 from the new snapshot");
  return seconds;
}

/// Per-layer samples of the traced passes.
struct LayerSamples {
  std::vector<double> load, open, build, publish, first_200;
  CoreSamples core;
  std::uint64_t bytes_mapped{0};
};

/// Phase 1 over `input` (a dataset or a columnar source).
Phase1Fn phase1_over(const neat::traj::TrajectoryDataset* data,
                     neat::store::ColumnarTrajectorySource* source) {
  return [=](const neat::Fragmenter& f, unsigned threads) {
    return source != nullptr ? f.build_base_clusters(*source, threads)
                             : f.build_base_clusters(*data, threads);
  };
}

/// The same pass with every layer call made by the harness and spanned.
double traced_pass(Recorder& rec, BatchEnv& env, const Spec& spec, const neat::Config& cfg,
                   LayerSamples& s) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<neat::store::ColumnarTrajectoryStore> store;
  std::unique_ptr<neat::store::ColumnarTrajectorySource> source;
  neat::traj::TrajectoryDataset data;
  if (spec.columnar) {
    store = timed(rec, "store.open", &s.open, [&] {
      rec.maybe_delay("store");
      return std::make_unique<neat::store::ColumnarTrajectoryStore>(env.input);
    });
    s.bytes_mapped = store->bytes_mapped();
    source = std::make_unique<neat::store::ColumnarTrajectorySource>(*store);
  } else {
    data = timed(rec, "traj.load", &s.load, [&] {
      rec.maybe_delay("traj");
      return neat::traj::load_dataset(env.input);
    });
  }
  CoreOutput out = run_core_layers(rec, env.net, cfg, phase1_over(&data, source.get()), s.core);
  const bool served = hand_off(rec, env, std::move(out.flows), std::move(out.finals), &s.build,
                               &s.publish, &s.first_200);
  const double seconds = seconds_since(t0);
  rec.attempt(out.digest == env.reference, "traced pass digest " + out.digest.str() +
                                               " != reference " + env.reference.str());
  rec.attempt(served, "no 200 from the new snapshot");
  return seconds;
}

void report_layers(Recorder& rec, BatchEnv& env, const Spec& spec, const neat::Config& cfg,
                   const LayerSamples& s, const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  {
    std::unique_ptr<neat::store::ColumnarTrajectoryStore> store;
    std::unique_ptr<neat::store::ColumnarTrajectorySource> source;
    neat::traj::TrajectoryDataset data;
    if (spec.columnar) {
      store = std::make_unique<neat::store::ColumnarTrajectoryStore>(env.input);
      source = std::make_unique<neat::store::ColumnarTrajectorySource>(*store, false);
    } else {
      data = neat::traj::load_dataset(env.input);
    }
    const ForEachTrajectory each = [&](const auto& fn) {
      if (source) {
        for (std::size_t i = 0; i < source->size(); ++i) fn(source->at(i));
      } else {
        for (const auto& tr : data) fn(tr);
      }
    };
    const auto snapshot = env.store.current();  // the last pass's flows
    serial_layers(rec, env.net, cfg, phase1_over(&data, source.get()), each, snapshot->flows(),
                  env.reference, s.core);
  }
  report_core_layers(rec, s.core);
  const double pass = median(traced);
  rec.layer("traj.load_s", median(s.load), "s");
  rec.layer("traj.points", static_cast<double>(env.points), "count");
  rec.layer("store.open_s", median(s.open), "s");
  rec.layer("store.bytes_mapped_mb", static_cast<double>(s.bytes_mapped) / kMiB, "MiB");
  rec.layer("serve.snapshot_build_s", median(s.build), "s");
  rec.layer("serve.publish_s", median(s.publish), "s");
  rec.layer("net.first_200_ms", median(s.first_200) * 1e3, "ms");
  rec.layer("pass_s", pass, "s");
  rec.layer("obs.trace_overhead_pct", (pass / median(untraced) - 1.0) * 100.0, "%");
  // The layer shape the workload exists for (README: held-out seed check).
  const double phase1 = median(s.core.phase1);
  const double phase3 = median(s.core.phase3);
  rec.layer("shape.dominant_share",
            spec.columnar ? phase3 / pass : (median(s.load) + phase1) / pass, "ratio");
}

void run_batch(Recorder& rec, const Spec& spec) {
  const Options& o = rec.options();
  const neat::Config cfg = config_for(spec, o.threads);

  // Set-up, several times; the last environment serves the timed work.
  std::vector<double> setups;
  std::unique_ptr<BatchEnv> env;
  for (int i = 0; i < kSetups; ++i) {
    const Digest previous = env ? env->reference : Digest{};
    env.reset();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    env = set_up(rec, spec);
    setups.push_back(seconds_since(t0));
    if (i > 0) rec.attempt(env->reference == previous, "set-up is not deterministic");
  }
  std::cout << spec.name << ": " << env->trajectories << " trajectories, " << env->points
            << " points; reference " << env->reference.str() << '\n';
  rec.provenance("trajectories", static_cast<double>(env->trajectories));
  rec.provenance("points", static_cast<double>(env->points));
  rec.provenance("segments", static_cast<double>(env->net.segment_count()));
  rec.provenance("epsilon_m", spec.epsilon);
  rec.provenance("reference", env->reference.str());

  // The first pass warms the allocator and the page cache and is not
  // counted. An untraced run then spends all its time on timed passes; a
  // traced run alternates traced and untraced passes for 80% of it and
  // spends the rest on the query load behind the per-layer net.* figures.
  LayerSamples layers;
  (void)untraced_pass(rec, *env, spec, cfg);
  if (rec.tracing()) {
    LayerSamples warm;
    (void)traced_pass(rec, *env, spec, cfg, warm);
  }
  rec.attempt(neat::obs::reset_peak_rss(),
              "cannot reset the peak RSS; peak_rss_mb would include set-up");
  const Clock::time_point start = Clock::now();
  const double pass_budget = rec.tracing() ? 0.8 * o.seconds : o.seconds;
  std::vector<double> untraced, traced;
  while (untraced.size() < 3 || seconds_since(start) < pass_budget) {
    untraced.push_back(untraced_pass(rec, *env, spec, cfg));
    if (rec.tracing()) traced.push_back(traced_pass(rec, *env, spec, cfg, layers));
  }
  rec.end_to_end("setup_s", median(setups), "s");
  // A low quantile rather than the median: the host's speed drifts, and a
  // slow spell that covers only part of the run then leaves the figure alone.
  rec.end_to_end("cluster_s", quantile(untraced, kClusterQuantile), "s");
  rec.samples("cluster_s", untraced);
  rec.end_to_end("peak_rss_mb", static_cast<double>(neat::obs::peak_rss_bytes()) / kMiB, "MiB");
  rec.provenance("passes", static_cast<double>(untraced.size()));
  if (rec.tracing()) {
    QueryLoad load;
    open_loop(load, env->stack->port(), env->mix, 1000.0, 0.12 * o.seconds, 2, o.seed);
    closed_loop(load, env->stack->port(), env->mix, 0.08 * o.seconds, o.threads, o.seed);
    rec.add_attempts(load.attempted, load.failed);
    report_queries(rec, load, *env->stack, env->mix);
    report_layers(rec, *env, spec, cfg, layers, traced, untraced);
  }
  std::filesystem::remove(env->input);
}

}  // namespace

void run_city_csv(Recorder& rec) { run_batch(rec, Spec{"city_csv", false, 3000.0}); }

void run_corridor_columnar(Recorder& rec) {
  run_batch(rec, Spec{"corridor_columnar", true, 1000.0});
}

}  // namespace perfbench
