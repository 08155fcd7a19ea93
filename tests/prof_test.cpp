// Tests for the sampling CPU profiler (src/obs/prof/).
//
// Carries the `concurrency` ctest label: the profiler's interesting failure
// modes are races between the SIGPROF handler, worker threads being
// sampled, and start/stop teardown, so CI runs this binary under TSan —
// including one test that profiles straight through a multi-threaded Phase 3
// run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clusterer.h"
#include "obs/http_exporter.h"
#include "obs/prof/profiler.h"
#include "obs/prof/sample.h"
#include "obs/prof/symbolize.h"
#include "obs/registry.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"

namespace neat::obs::prof {
namespace {

/// Burns roughly `ms` of wall time in a named, non-inlined frame so the
/// profiler has something attributable to sample. Returns the accumulated
/// junk so the loop cannot be optimized away.
__attribute__((noinline)) std::uint64_t burn_cpu_for_test(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::uint64_t acc = 1;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 10000; ++i) acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

/// Every folded line must be `frame;frame;...;frame count` with non-empty
/// frames and a positive integer count.
void expect_well_formed_folded(const std::string& folded) {
  const std::regex line_re(R"(^.+ \d+$)");
  std::istringstream in(folded);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad folded line: " << line;
    const std::string frames = line.substr(0, line.rfind(' '));
    ASSERT_FALSE(frames.empty());
    EXPECT_NE(frames.front(), ';');
    EXPECT_NE(frames.back(), ';');
    EXPECT_EQ(frames.find(";;"), std::string::npos) << "empty frame in: " << line;
  }
  EXPECT_GT(lines, 0u);
}

TEST(Profiler, StopWithoutStartIsEmptyAndIdempotent) {
  Profiler& p = Profiler::global();
  EXPECT_FALSE(p.active());
  const Profile empty = p.stop();
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_TRUE(empty.stacks.empty());
  const Profile again = p.stop();
  EXPECT_EQ(again.samples, 0u);
}

TEST(Profiler, DoubleStartReturnsFalse) {
  Profiler& p = Profiler::global();
  ASSERT_TRUE(p.start());
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(p.start());  // already running: busy, not an error
  EXPECT_TRUE(p.active());
  const Profile profile = p.stop();
  EXPECT_FALSE(p.active());
  static_cast<void>(profile);
}

TEST(Profiler, CapturesBusyWorkAndFoldsWellFormed) {
  ProfilerOptions opts;
  opts.sample_hz = 997;  // dense sampling so a short burn yields samples
  const Profile profile =
      profile_call([] { static_cast<void>(burn_cpu_for_test(400)); }, opts);
  EXPECT_GT(profile.samples, 0u);
  EXPECT_GE(profile.threads_seen, 1u);
  EXPECT_GT(profile.duration_s, 0.0);
  EXPECT_EQ(profile.sample_hz, 997);
  ASSERT_FALSE(profile.stacks.empty());
  for (const ProfileStack& s : profile.stacks) {
    EXPECT_GE(s.pcs.size(), 1u);
    EXPECT_LE(s.pcs.size(), kMaxFrames);
    EXPECT_GT(s.count, 0u);
  }
  expect_well_formed_folded(profile.to_folded());
}

TEST(Profiler, HotSymbolsReportInclusivePercentages) {
  ProfilerOptions opts;
  opts.sample_hz = 997;
  const Profile profile =
      profile_call([] { static_cast<void>(burn_cpu_for_test(400)); }, opts);
  ASSERT_GT(profile.samples, 0u);
  const std::vector<HotSymbol> top = profile.hot_symbols(5);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 5u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_FALSE(top[i].symbol.empty());
    EXPECT_GT(top[i].inclusive_pct, 0.0);
    EXPECT_LE(top[i].inclusive_pct, 100.0);
    if (i > 0) {
      EXPECT_LE(top[i].inclusive_pct, top[i - 1].inclusive_pct);
    }
  }
}

TEST(Profile, HexFallbackForUnmappedFrames) {
  // A hand-built profile whose pcs point nowhere any mapping or symbol
  // lives: folding must fall back to bare hex, never crash or drop frames.
  Profile profile;
  profile.samples = 3;
  profile.stacks.push_back({{0x1, 0x2}, 3});
  const std::string folded = profile.to_folded();
  expect_well_formed_folded(folded);
  EXPECT_NE(folded.find("0x"), std::string::npos);
  EXPECT_DOUBLE_EQ(profile.symbolized_fraction(), 0.0);
  EXPECT_TRUE(Symbolizer::is_hex("0x2"));
  EXPECT_FALSE(Symbolizer::is_hex("main"));
}

TEST(Profiler, TinyRingOverflowDropsWithoutCorruption) {
  const std::uint64_t dropped_before =
      Registry::global().counter_value("neat_obs_prof_dropped_total");
  ProfilerOptions opts;
  opts.sample_hz = 4000;  // flood
  opts.ring_slots = 2;    // minimum ring: overflow is certain
  const Profile profile =
      profile_call([] { static_cast<void>(burn_cpu_for_test(500)); }, opts);
  EXPECT_GT(profile.samples, 0u);
  EXPECT_GT(profile.dropped, 0u);
  // Whatever survived the overflow must still be structurally sound.
  for (const ProfileStack& s : profile.stacks) {
    EXPECT_GE(s.pcs.size(), 1u);
    EXPECT_LE(s.pcs.size(), kMaxFrames);
    EXPECT_GT(s.count, 0u);
    for (const std::uintptr_t pc : s.pcs) EXPECT_NE(pc, 0u);
  }
  EXPECT_GE(Registry::global().counter_value("neat_obs_prof_dropped_total"),
            dropped_before + profile.dropped);
}

TEST(Profiler, StatusJsonTracksSessionState) {
  Profiler& p = Profiler::global();
  ASSERT_TRUE(p.start());
  EXPECT_NE(p.status_json().find("\"active\":true"), std::string::npos);
  static_cast<void>(burn_cpu_for_test(50));
  const Profile profile = p.stop();
  const std::string idle = p.status_json();
  EXPECT_NE(idle.find("\"active\":false"), std::string::npos);
  EXPECT_NE(idle.find("\"samples\":"), std::string::npos);
  EXPECT_NE(idle.find("\"dropped\":"), std::string::npos);
  EXPECT_NE(idle.find("\"threads_seen\":"), std::string::npos);
  static_cast<void>(profile);
}

// The profiler sampling straight through a 4-thread Phase 3 run: worker
// threads are created and joined while SIGPROF fires across them. Under
// TSan this exercises handler-vs-thread-lifecycle races; the run must
// produce the same clusters as an unprofiled one.
TEST(Profiler, ConcurrentWithParallelRefiner) {
  roadnet::CityParams params;
  params.rows = 12;
  params.cols = 12;
  params.seed = 3;
  const roadnet::RoadNetwork net = roadnet::make_city(params);
  const sim::SimConfig scfg = sim::default_config(net, 2, 2);
  const traj::TrajectoryDataset data =
      sim::MobilitySimulator(net, scfg).generate(80, 9);
  Config cfg;
  cfg.refine.epsilon = 2500.0;
  cfg.refine.use_elb = false;  // keep Phase 3 busy enough to be sampled
  cfg.refine.threads = 4;
  const Result baseline = NeatClusterer(net, cfg).run(data);

  ProfilerOptions opts;
  opts.sample_hz = 997;
  Result profiled_result;
  const Profile profile = profile_call(
      [&] { profiled_result = NeatClusterer(net, cfg).run(data); }, opts);
  EXPECT_EQ(profiled_result.final_clusters.size(), baseline.final_clusters.size());
  EXPECT_EQ(profiled_result.flow_clusters.size(), baseline.flow_clusters.size());
  if (profile.samples > 0) expect_well_formed_folded(profile.to_folded());
}

TEST(HttpExporterProfilez, BusySessionAnswers409) {
  Registry registry;
  HttpExporterOptions opts;
  HttpExporter exporter(registry, opts);
  ASSERT_TRUE(Profiler::global().start());
  const std::string response = exporter.handle("GET", "/profilez?seconds=1");
  EXPECT_EQ(response.rfind("HTTP/1.1 409 Conflict\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("profiler_busy"), std::string::npos);
  static_cast<void>(Profiler::global().stop());
  exporter.stop();
}

TEST(HttpExporterProfilez, MalformedParametersAnswer400) {
  Registry registry;
  HttpExporter exporter(registry, {});
  // The last two wrap to 1 if narrowed to int before the range check.
  for (const char* target :
       {"/profilez?seconds=abc", "/profilez?seconds=-1", "/profilez?seconds=0",
        "/profilez?seconds=1e9", "/profilez?hz=0", "/profilez?hz=abc",
        "/profilez?seconds=0.1&hz=4294967297", "/profilez?seconds=0.1&hz=-4294967295"}) {
    const std::string response = exporter.handle("GET", target);
    EXPECT_NE(response.find("400"), std::string::npos) << target;
    EXPECT_NE(response.find("invalid_parameter"), std::string::npos) << target;
  }
  exporter.stop();
}

TEST(HttpExporterProfilez, ShortRunStreamsFoldedProfile) {
  Registry registry;
  HttpExporter exporter(registry, {});
  // Keep a core busy while the handler's session runs so the process CPU
  // clock advances and samples exist.
  std::atomic<bool> done{false};
  std::thread burner([&] {
    while (!done.load(std::memory_order_acquire)) {
      static_cast<void>(burn_cpu_for_test(10));
    }
  });
  const std::string response =
      exporter.handle("GET", "/profilez?seconds=0.3&hz=997");
  done.store(true, std::memory_order_release);
  burner.join();
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_FALSE(body.empty());
  if (body.rfind("# no samples", 0) != 0) expect_well_formed_folded(body);
  exporter.stop();
}

TEST(HttpExporterProfilez, StatuszCarriesProfilerSection) {
  Registry registry;
  HttpExporter exporter(registry, {});
  const std::string response = exporter.handle("GET", "/statusz");
  EXPECT_NE(response.find("\"profiler\":"), std::string::npos);
  EXPECT_NE(response.find("\"active\":"), std::string::npos);
  exporter.stop();
}

}  // namespace
}  // namespace neat::obs::prof
