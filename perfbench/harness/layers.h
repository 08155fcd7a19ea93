// The traced split of one clustering: Phases 1-3 as separate layer calls
// (exactly the calls NeatClusterer::run makes), each in its own span, plus
// their serial costs.
#pragma once

#include <functional>
#include <vector>

#include "bench.h"
#include "core/fragmenter.h"

namespace perfbench {

/// Phase 1 over a workload's input at `threads` worker threads.
using Phase1Fn = std::function<neat::Phase1Output(const neat::Fragmenter&, unsigned threads)>;

/// Calls its argument once per trajectory of the workload's input.
using ForEachTrajectory =
    std::function<void(const std::function<void(const neat::traj::Trajectory&)>&)>;

/// Samples of the traced core layers over a run, and the last call's counters.
struct CoreSamples {
  std::vector<double> phase1, phase2, phase3, phase1_rss, phase3_rss;
  std::size_t fragments{0};
  std::size_t gap_repairs{0};
  std::size_t base_clusters{0};
  std::size_t flows{0};
  neat::Phase3Output p3;  ///< Counters only; the clusters are handed to the caller.
};

/// What one layered clustering produced.
struct CoreOutput {
  std::vector<neat::FlowCluster> flows;
  std::vector<neat::FinalCluster> finals;
  Digest digest;
};

/// Fragmenter (Phase 1) -> FlowBuilder (Phase 2) -> ParallelRefiner (Phase 3),
/// each call spanned and timed into `s`, with the peak RSS of Phases 1 and 3.
[[nodiscard]] CoreOutput run_core_layers(Recorder& rec, const neat::roadnet::RoadNetwork& net,
                                         const neat::Config& cfg, const Phase1Fn& phase1,
                                         CoreSamples& s);

/// Measures once, outside the timed passes: Phase 1 at one thread, the sum of
/// Fragmenter::fragment over the input, and Phase 3's serial halves (the whole
/// pair matrix through fill_pair_distances, then cluster_from_pair_distances)
/// on `flows`; the serial clusters must reproduce `reference`.
void serial_layers(Recorder& rec, const neat::roadnet::RoadNetwork& net, const neat::Config& cfg,
                   const Phase1Fn& phase1, const ForEachTrajectory& each,
                   const std::vector<neat::FlowCluster>& flows, const Digest& reference,
                   const CoreSamples& s);

/// Reports the Phase 1-3 medians and counters of `s`.
void report_core_layers(Recorder& rec, const CoreSamples& s);

}  // namespace perfbench
