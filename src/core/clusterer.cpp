#include "core/clusterer.h"

#include "common/stopwatch.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat {

namespace {

// Phase wall-clock goes to the registry under the naming convention of
// DESIGN.md §"Observability"; one histogram series per phase label.
void record_phase_seconds(const char* phase, double seconds) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_core_phase_duration_seconds",
               "Wall-clock time of the NEAT phases, by phase (1, 2, 3).");
  reg.histogram("neat_core_phase_duration_seconds", {{"phase", phase}}).record(seconds);
}

}  // namespace

NeatClusterer::NeatClusterer(const roadnet::RoadNetwork& net, Config config)
    : net_(net), config_(config) {
  // Validate both sub-configs now rather than at run() time: constructing
  // the phase objects performs their precondition checks.
  const std::vector<BaseCluster> empty;
  (void)FlowBuilder(net_, empty, config_.flow);
  (void)Refiner(net_, config_.refine);
}

Result NeatClusterer::run(const traj::TrajectoryDataset& data) const {
  return run_impl(data.size(), [&](const Fragmenter& fragmenter) {
    return fragmenter.build_base_clusters(data, config_.phase1_threads);
  });
}

Result NeatClusterer::run(TrajectorySource& source) const {
  return run_impl(source.size(), [&](const Fragmenter& fragmenter) {
    return fragmenter.build_base_clusters(source, config_.phase1_threads);
  });
}

Result NeatClusterer::run_impl(
    std::size_t num_trajectories,
    const std::function<Phase1Output(const Fragmenter&)>& phase1) const {
  obs::ScopedSpan run_span("neat.run");
  run_span.arg("trajectories", static_cast<std::uint64_t>(num_trajectories));
  Result result;
  Stopwatch watch;

  // Phase 1: base cluster formation.
  NEAT_LOG(kDebug, "core").msg("phase 1 starting")
      .kv("trajectories", num_trajectories);
  {
    obs::ScopedSpan span("neat.phase1");
    const Fragmenter fragmenter(net_);
    Phase1Output p1 = phase1(fragmenter);
    result.base_clusters = std::move(p1.base_clusters);
    result.num_fragments = p1.num_fragments;
    result.num_gap_repairs = p1.num_gap_repairs;
    span.arg("fragments", static_cast<std::uint64_t>(result.num_fragments));
    span.arg("base_clusters", static_cast<std::uint64_t>(result.base_clusters.size()));
  }
  result.timing.phase1_s = watch.elapsed_seconds();
  record_phase_seconds("1", result.timing.phase1_s);
  NEAT_LOG(kInfo, "core")
      .msg("phase 1 finished")
      .kv("fragments", result.num_fragments)
      .kv("base_clusters", result.base_clusters.size())
      .kv("duration_ms", result.timing.phase1_s * 1e3);
  if (config_.mode == Mode::kBase) return result;

  // Phase 2: flow cluster formation.
  watch.restart();
  NEAT_LOG(kDebug, "core").msg("phase 2 starting")
      .kv("base_clusters", result.base_clusters.size());
  {
    obs::ScopedSpan span("neat.phase2");
    const FlowBuilder builder(net_, result.base_clusters, config_.flow);
    Phase2Output p2 = builder.build();
    result.flow_clusters = std::move(p2.flows);
    result.filtered_flows = std::move(p2.filtered_flows);
    result.effective_min_card = p2.effective_min_card;
    span.arg("flows", static_cast<std::uint64_t>(result.flow_clusters.size()));
    span.arg("filtered", static_cast<std::uint64_t>(result.filtered_flows.size()));
  }
  result.timing.phase2_s = watch.elapsed_seconds();
  record_phase_seconds("2", result.timing.phase2_s);
  NEAT_LOG(kInfo, "core")
      .msg("phase 2 finished")
      .kv("flows", result.flow_clusters.size())
      .kv("filtered", result.filtered_flows.size())
      .kv("duration_ms", result.timing.phase2_s * 1e3);
  if (config_.mode == Mode::kFlow) return result;

  // Phase 3: flow cluster refinement (parallel across RefineConfig::threads;
  // output is identical at any thread count).
  watch.restart();
  NEAT_LOG(kDebug, "core").msg("phase 3 starting")
      .kv("flows", result.flow_clusters.size());
  {
    obs::ScopedSpan span("neat.phase3");
    const Refiner refiner(net_, config_.refine);
    Phase3Output p3 = refiner.refine(result.flow_clusters);
    result.final_clusters = std::move(p3.clusters);
    result.sp_computations = p3.sp_computations;
    result.elb_pruned_pairs = p3.elb_pruned_pairs;
    result.lm_pruned_pairs = p3.lm_pruned_pairs;
    result.pairs_evaluated = p3.pairs_evaluated;
    result.settled_nodes = p3.settled_nodes;
    span.arg("final_clusters", static_cast<std::uint64_t>(result.final_clusters.size()));
    span.arg("sp_computations", static_cast<std::uint64_t>(result.sp_computations));
  }
  result.timing.phase3_s = watch.elapsed_seconds();
  record_phase_seconds("3", result.timing.phase3_s);
  NEAT_LOG(kInfo, "core")
      .msg("phase 3 finished")
      .kv("final_clusters", result.final_clusters.size())
      .kv("sp_computations", result.sp_computations)
      .kv("duration_ms", result.timing.phase3_s * 1e3);
  return result;
}

}  // namespace neat
