// neat_perfbench: one run of one benchmark workload.
//
//   neat_perfbench --workload city_csv|corridor_columnar
//                  --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--delay traj|store|serve=MS]
//
// Prints every metric with its unit and, as the last line of standard
// output, one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics when untraced, the per-layer metrics when traced. The
// full record (provenance included) goes to DIR/<workload>-seed<N>[-traced].json,
// a traced run's spans to the matching .trace.json. Exit code 0 only when
// every checked output was correct.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "neat_perfbench: " << why
            << "\nusage: neat_perfbench --workload city_csv|corridor_columnar "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--delay LAYER=MS]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--delay") {
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos) usage("--delay takes LAYER=MS");
        o.delay_layer = value.substr(0, eq);
        o.delay_ms = std::stod(value.substr(eq + 1));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options = parse(argc, argv);
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  perfbench::Recorder rec(options);
  rec.provenance("workload", options.workload);
  rec.provenance("seed", static_cast<double>(options.seed));
  rec.provenance("seconds", options.seconds);
  rec.provenance("nproc", static_cast<double>(options.threads));
  rec.provenance("phase1_threads", static_cast<double>(options.threads));
  rec.provenance("refine_threads", static_cast<double>(options.threads));
  rec.provenance("build_type", PERFBENCH_BUILD_TYPE);
  if (options.delay_ms > 0.0) {
    rec.provenance("delay", options.delay_layer + "=" + std::to_string(options.delay_ms) + "ms");
  }
  try {
    if (options.workload == "city_csv") {
      perfbench::run_city_csv(rec);
    } else if (options.workload == "corridor_columnar") {
      perfbench::run_corridor_columnar(rec);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "neat_perfbench: " << options.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  return rec.finish();
}
