#include "layers.h"

#include "core/flow_builder.h"
#include "core/parallel_refiner.h"
#include "obs/resource_sampler.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kNoRssReset = "cannot reset the peak RSS; phase RSS would include set-up";

double peak_rss_mb() { return static_cast<double>(neat::obs::peak_rss_bytes()) / kMiB; }

}  // namespace

CoreOutput run_core_layers(Recorder& rec, const neat::roadnet::RoadNetwork& net,
                           const neat::Config& cfg, const Phase1Fn& phase1, CoreSamples& s) {
  const neat::Fragmenter fragmenter(net);
  rec.attempt(neat::obs::reset_peak_rss(), kNoRssReset);
  neat::Phase1Output p1 = timed(rec, "phase1", &s.phase1,
                                [&] { return phase1(fragmenter, cfg.phase1_threads); });
  s.phase1_rss.push_back(peak_rss_mb());
  neat::Phase2Output p2 = timed(rec, "phase2", &s.phase2, [&] {
    return neat::FlowBuilder(net, p1.base_clusters, cfg.flow).build();
  });
  rec.attempt(neat::obs::reset_peak_rss(), kNoRssReset);
  s.p3 = timed(rec, "phase3", &s.phase3,
               [&] { return neat::ParallelRefiner(net, cfg.refine).refine(p2.flows); });
  s.phase3_rss.push_back(peak_rss_mb());
  s.fragments = p1.num_fragments;
  s.gap_repairs = p1.num_gap_repairs;
  s.base_clusters = p1.base_clusters.size();
  s.flows = p2.flows.size();
  CoreOutput out;
  out.digest = digest_of(s.base_clusters, s.flows, s.p3.clusters);
  out.flows = std::move(p2.flows);
  out.finals = std::move(s.p3.clusters);
  return out;
}

void serial_layers(Recorder& rec, const neat::roadnet::RoadNetwork& net, const neat::Config& cfg,
                   const Phase1Fn& phase1, const ForEachTrajectory& each,
                   const std::vector<neat::FlowCluster>& flows, const Digest& reference,
                   const CoreSamples& s) {
  const neat::Fragmenter fragmenter(net);
  std::vector<double> serial1;
  (void)timed(rec, "phase1.serial", &serial1, [&] { return phase1(fragmenter, 1); });
  double fragment_s = 0.0;
  {
    const neat::obs::ScopedSpan span("phase1.fragment", rec.tracer());
    each([&](const neat::traj::Trajectory& tr) {
      const Clock::time_point t0 = Clock::now();
      (void)fragmenter.fragment(tr);
      fragment_s += seconds_since(t0);
    });
  }

  const neat::Refiner refiner(net, cfg.refine);
  const std::size_t n = flows.size();
  std::vector<double> pair_dist(n * (n > 0 ? n - 1 : 0) / 2);
  neat::Phase3Output counters;
  std::vector<double> pairs, merge;
  timed(rec, "phase3.pairs", &pairs, [&] {
    auto ctx = refiner.make_context();
    refiner.fill_pair_distances(flows, 0, pair_dist.size(), ctx, pair_dist, counters);
  });
  const neat::Phase3Output merged = timed(rec, "phase3.merge", &merge, [&] {
    return refiner.cluster_from_pair_distances(flows, pair_dist);
  });
  const Digest got = digest_of(s.base_clusters, n, merged.clusters);
  rec.attempt(got == reference, "serial Phase 3 digest " + got.str() + " != " + reference.str());

  const double serial3 = pairs.front() + merge.front();
  rec.layer("phase1.serial_s", serial1.front(), "s");
  rec.layer("phase1.speedup", serial1.front() / median(s.phase1), "x");
  rec.layer("phase1.fragment_s", fragment_s, "s");
  rec.layer("phase3.serial_s", serial3, "s");
  rec.layer("phase3.speedup", serial3 / median(s.phase3), "x");
  rec.layer("phase3.pairs_s", pairs.front(), "s");
  rec.layer("phase3.merge_s", merge.front(), "s");
}

void report_core_layers(Recorder& rec, const CoreSamples& s) {
  rec.layer("phase1_s", median(s.phase1), "s");
  rec.layer("phase1.rss_mb", median(s.phase1_rss), "MiB");
  rec.layer("phase1.fragments", static_cast<double>(s.fragments), "count");
  rec.layer("phase1.gap_repairs", static_cast<double>(s.gap_repairs), "count");
  rec.layer("phase1.base_clusters", static_cast<double>(s.base_clusters), "count");
  rec.layer("phase2_s", median(s.phase2), "s");
  rec.layer("phase2.flows", static_cast<double>(s.flows), "count");
  const double n = static_cast<double>(s.flows);
  const double total_pairs = n * (n - 1.0) / 2.0;
  rec.layer("phase3_s", median(s.phase3), "s");
  rec.layer("phase3.rss_mb", median(s.phase3_rss), "MiB");
  rec.layer("phase3.pairs_total", total_pairs, "count");
  rec.layer("phase3.elb_pruned", static_cast<double>(s.p3.elb_pruned_pairs), "count");
  rec.layer("phase3.pairs_evaluated", static_cast<double>(s.p3.pairs_evaluated), "count");
  rec.layer("phase3.sp_computations", static_cast<double>(s.p3.sp_computations), "count");
  rec.layer("phase3.settled_nodes", static_cast<double>(s.p3.settled_nodes), "count");
  rec.layer("phase3.prune_ratio",
            total_pairs > 0 ? static_cast<double>(s.p3.elb_pruned_pairs) / total_pairs : 0.0,
            "ratio");
}

}  // namespace perfbench
