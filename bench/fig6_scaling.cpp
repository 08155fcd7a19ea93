// Figure 6 — performance of the NEAT algorithms.
//   (a) scaling of base-NEAT, flow-NEAT and opt-NEAT over the MIA datasets
//       (the paper's curves are near-linear, with opt-NEAT ~ flow-NEAT
//       because ELB keeps Phase 3 cheap);
//   (b) relative cost of Phase 1 (base cluster formation) vs Phase 2 (flow
//       cluster formation) — Phase 1 dominates because it scans every
//       location sample while Phase 2 only touches base clusters;
//   (c) beyond the paper: Phase 3 wall time with the parallel refiner at
//       1 / 2 / 4 / 8 threads on the largest MIA dataset, pruning disabled so
//       there is enough shortest-path work to distribute. The clusters are
//       bit-identical at every thread count; only the wall time moves.
//   (d) beyond the paper: the out-of-core rung. A synthetic 1M-trajectory
//       dataset (scaled like every other dataset) is streamed straight to
//       the columnar format, then Phase 1 runs over the mmap-backed store
//       in bounded-memory batches at 1 / 2 / 4 / 8 threads. The reported
//       peak RSS stays far below the dataset bytes — the point of the
//       out-of-core data plane — and base clusters are bit-identical to an
//       in-memory run by construction (exact batch merge).
#include <cstdio>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/table.h"
#include "obs/prof/profiler.h"
#include "obs/registry.h"
#include "obs/resource_sampler.h"
#include "sim/synthetic_stream.h"
#include "store/columnar_store.h"

using namespace neat;

namespace {

/// Registry readings the bench tables are built from. Taking before/after
/// deltas of the live metrics — instead of copying Result fields — keeps the
/// bench output and what a scraper would see from ever drifting apart.
struct RegistrySample {
  double phase1_s{};
  double phase2_s{};
  double phase3_s{};
  std::uint64_t flows{};

  static RegistrySample take() {
    const obs::Registry& reg = obs::Registry::global();
    RegistrySample s;
    s.phase1_s =
        reg.histogram_sum_seconds("neat_core_phase_duration_seconds", {{"phase", "1"}});
    s.phase2_s =
        reg.histogram_sum_seconds("neat_core_phase_duration_seconds", {{"phase", "2"}});
    s.phase3_s =
        reg.histogram_sum_seconds("neat_core_phase_duration_seconds", {{"phase", "3"}});
    s.flows = reg.counter_value("neat_core_flow_clusters_total");
    return s;
  }

  RegistrySample operator-(const RegistrySample& rhs) const {
    return {phase1_s - rhs.phase1_s, phase2_s - rhs.phase2_s, phase3_s - rhs.phase3_s,
            flows - rhs.flows};
  }
};

}  // namespace

int main() {
  eval::print_scale_banner(std::cout, "Figure 6: NEAT scaling (MIA datasets)");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  const roadnet::RoadNetwork& net = env.network("MIA");
  std::cout << "MIA network: " << net.segment_count() << " segments, " << net.node_count()
            << " junctions (" << bench::repeats() << " repeat(s), medians reported)\n\n";

  Config cfg;
  cfg.refine.epsilon = 3000.0;
  const NeatClusterer clusterer(net, cfg);

  eval::TextTable scaling({"dataset", "points", "base-NEAT s", "flow-NEAT s", "opt-NEAT s",
                           "#flows"});
  eval::TextTable relative({"dataset", "phase1 s", "phase2 s", "phase1 share %"});
  bench::BenchJson json("fig6", env.object_scale(), env.network_scale());

  for (const std::size_t objects : eval::kPaperObjectCounts) {
    const traj::TrajectoryDataset& data = env.dataset("MIA", objects);
    // NEAT_BENCH_REPEATS runs; every reported number is the median, so one
    // scheduler hiccup cannot poison the CI trajectory.
    std::vector<double> p1s, p2s, p3s;
    std::uint64_t flows = 0;
    for (int rep = 0; rep < bench::repeats(); ++rep) {
      const RegistrySample before = RegistrySample::take();
      static_cast<void>(clusterer.run(data));  // one run, cumulative timings
      const RegistrySample d = RegistrySample::take() - before;
      p1s.push_back(d.phase1_s);
      p2s.push_back(d.phase2_s);
      p3s.push_back(d.phase3_s);
      flows = d.flows;  // deterministic across repeats
    }
    const double phase1_s = bench::median(p1s);
    const double phase2_s = bench::median(p2s);
    const double phase3_s = bench::median(p3s);
    const double base_s = phase1_s;
    const double flow_s = phase1_s + phase2_s;
    const double opt_s = phase1_s + phase2_s + phase3_s;
    scaling.add_row({str_cat("MIA", objects), std::to_string(data.total_points()),
                     format_fixed(base_s, 3), format_fixed(flow_s, 3),
                     format_fixed(opt_s, 3), std::to_string(flows)});
    const double p12 = phase1_s + phase2_s;
    relative.add_row({str_cat("MIA", objects), format_fixed(phase1_s, 3),
                      format_fixed(phase2_s, 3),
                      format_fixed(p12 > 0 ? 100.0 * phase1_s / p12 : 0.0, 1)});
    json.add_row(str_cat("MIA", objects),
                 {{"base_s", base_s},
                  {"flow_s", flow_s},
                  {"opt_s", opt_s},
                  {"phase1_s", phase1_s},
                  {"phase2_s", phase2_s},
                  {"phase3_s", phase3_s},
                  {"points", static_cast<double>(data.total_points())},
                  {"flows", static_cast<double>(flows)}});
  }

  std::cout << "(a) cumulative running time per NEAT version:\n";
  scaling.print(std::cout);
  scaling.write_csv(eval::results_dir() + "/fig6a_scaling.csv");
  std::cout << "\n(shapes to check: near-linear growth in points; opt-NEAT curve nearly\n"
               "overlaps flow-NEAT because ELB makes Phase 3 almost free)\n";

  std::cout << "\n(b) Phase 1 vs Phase 2 relative cost:\n";
  relative.print(std::cout);
  relative.write_csv(eval::results_dir() + "/fig6b_phases.csv");
  std::cout << "\n(shape to check: Phase 1 dominates — it scans every location sample,\n"
               "Phase 2 only processes base clusters)\n";

  // (c) Parallel Phase 3. Disable pruning so the pairwise work is heavy
  // enough for threading to matter even at bench scale.
  const std::size_t largest = eval::kPaperObjectCounts.back();
  const traj::TrajectoryDataset& big = env.dataset("MIA", largest);
  eval::TextTable par({"dataset", "refine threads", "phase3 s", "speedup", "#clusters"});
  double serial_s = 0.0;
  for (const unsigned threads : std::vector<unsigned>{1, 2, 4, 8}) {
    Config pcfg;
    pcfg.refine.epsilon = 3000.0;
    pcfg.refine.use_elb = false;
    pcfg.refine.threads = threads;
    std::vector<double> p3s;
    std::size_t clusters = 0;
    for (int rep = 0; rep < bench::repeats(); ++rep) {
      const RegistrySample before = RegistrySample::take();
      const Result res = NeatClusterer(net, pcfg).run(big);
      p3s.push_back(RegistrySample::take().phase3_s - before.phase3_s);
      clusters = res.final_clusters.size();
    }
    const double phase3_s = bench::median(p3s);
    if (threads == 1) serial_s = phase3_s;
    par.add_row({str_cat("MIA", largest), std::to_string(threads),
                 format_fixed(phase3_s, 3),
                 format_fixed(phase3_s > 0 ? serial_s / phase3_s : 0.0, 2),
                 std::to_string(clusters)});
    json.add_row(str_cat("MIA", largest, "_refine_threads", threads),
                 {{"phase3_s", phase3_s},
                  {"clusters", static_cast<double>(clusters)}});
  }
  std::cout << "\n(c) Phase 3 wall time vs refine threads (pruning off), "
            << std::thread::hardware_concurrency() << " hardware threads:\n";
  par.print(std::cout);
  par.write_csv(eval::results_dir() + "/fig6c_parallel_refine.csv");
  std::cout << "\n(shape to check: phase-3 time falls as threads rise — up to the\n"
               "hardware thread count above — while the cluster count stays constant\n"
               "because the parallel refiner is bit-identical to the serial one)\n";

  // (d) The out-of-core rung. Generation, conversion and clustering all
  // stream, so the only O(dataset) storage is the columnar file itself;
  // Phase 1 walks it through the mmap-backed store in bounded batches,
  // releasing consumed pages. Peak RSS is reset before the runs so the
  // reported high-water mark belongs to this section alone.
  {
    const std::size_t ooc_paper_objects = 1'000'000;
    const std::size_t objects = env.scaled_objects(ooc_paper_objects);
    const std::string col_path = eval::results_dir() + "/fig6d_stream.neatcol";
    sim::SyntheticStreamOptions sopts;
    sopts.trajectories = objects;
    Stopwatch gen_watch;
    const sim::SyntheticStreamStats gen =
        sim::generate_columnar_stream(net, col_path, sopts);
    const double generate_s = gen_watch.elapsed_seconds();

    const store::ColumnarTrajectoryStore cstore(col_path);  // checksum-verified open
    const double dataset_bytes = static_cast<double>(cstore.bytes_mapped());
    std::cout << "\n(d) out-of-core Phase 1 over " << gen.trajectories
              << " columnar trajectories (" << gen.points << " points, "
              << format_fixed(dataset_bytes / (1024.0 * 1024.0), 1) << " MiB on disk, "
              << "generated+written in " << format_fixed(generate_s, 2) << " s):\n";

    const bool rss_reset = obs::reset_peak_rss();
    eval::TextTable ooc({"dataset", "phase1 threads", "phase1 s", "speedup",
                         "#base clusters"});
    double serial_phase1_s = 0.0;
    std::size_t base_clusters = 0;
    for (const unsigned threads : std::vector<unsigned>{1, 2, 4, 8}) {
      Config ocfg;
      ocfg.mode = Mode::kBase;
      ocfg.phase1_threads = threads;
      const NeatClusterer oclusterer(net, ocfg);
      std::vector<double> p1s;
      for (int rep = 0; rep < bench::repeats(); ++rep) {
        store::ColumnarTrajectorySource source(cstore);
        const RegistrySample before = RegistrySample::take();
        const Result res = oclusterer.run(source);
        p1s.push_back(RegistrySample::take().phase1_s - before.phase1_s);
        base_clusters = res.base_clusters.size();  // deterministic across repeats
      }
      const double phase1_s = bench::median(p1s);
      if (threads == 1) serial_phase1_s = phase1_s;
      ooc.add_row({str_cat("OOC", ooc_paper_objects), std::to_string(threads),
                   format_fixed(phase1_s, 3),
                   format_fixed(phase1_s > 0 ? serial_phase1_s / phase1_s : 0.0, 2),
                   std::to_string(base_clusters)});
      json.add_row(str_cat("OOC", ooc_paper_objects, "_phase1_threads", threads),
                   {{"phase1_s", phase1_s},
                    {"base_clusters", static_cast<double>(base_clusters)}});
    }
    const double peak_rss = static_cast<double>(obs::peak_rss_bytes());
    ooc.print(std::cout);
    ooc.write_csv(eval::results_dir() + "/fig6d_out_of_core.csv");
    std::cout << "peak RSS across the runs: "
              << format_fixed(peak_rss / (1024.0 * 1024.0), 1) << " MiB ("
              << format_fixed(dataset_bytes > 0 ? 100.0 * peak_rss / dataset_bytes : 0.0, 1)
              << "% of the dataset"
              << (rss_reset ? "" : "; process-lifetime high-water mark, reset unsupported")
              << "), " << std::thread::hardware_concurrency() << " hardware threads\n";
    std::cout << "(shapes to check: phase-1 time falls as threads rise — up to the\n"
                 "hardware thread count — and peak RSS stays well under the dataset\n"
                 "bytes because batches release their pages after the scan passes)\n";
    json.add_row(str_cat("OOC", ooc_paper_objects),
                 {{"generate_s", generate_s},
                  {"points", static_cast<double>(gen.points)},
                  {"dataset_bytes", dataset_bytes},
                  {"peak_rss_bytes", peak_rss},
                  {"rss_over_dataset_pct",
                   dataset_bytes > 0 ? 100.0 * peak_rss / dataset_bytes : 0.0}});
    std::remove(col_path.c_str());
  }

  // One extra repeat of the largest dataset under the sampling profiler —
  // not timed (the profiled run is excluded from every *_s median above),
  // just attributed: the top sampled symbols land in the trajectory JSON so
  // hot-spot drift across commits is as visible as timing drift.
  {
    obs::prof::ProfilerOptions popts;
    popts.sample_hz = 997;  // smoke-scale runs are short; sample densely
    const obs::prof::Profile profile = obs::prof::profile_call(
        [&] {
          // Re-run until ~a quarter second of work has accumulated so the
          // attribution is statistically meaningful even at smoke scale.
          const Stopwatch sw;
          do {
            static_cast<void>(clusterer.run(big));
          } while (sw.elapsed_seconds() < 0.25);
        },
        popts);
    json.add_profile_row(str_cat("MIA", largest, "_profile"),
                         profile.hot_symbols(10));
    std::cout << "\nprofiled repeat (MIA" << largest << "): " << profile.samples
              << " samples, top symbols in BENCH_fig6.json\n";
  }

  const std::string json_path = eval::results_dir() + "/BENCH_fig6.json";
  json.write(json_path);
  std::cout << "\nbench trajectory written to " << json_path
            << " (diff against a baseline with tools/bench_diff.py)\n";
  return 0;
}
