// Statistics, the clustering digest, and the Recorder's output.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) { return "\"" + neat::obs::json_escape(s) + "\""; }

void append_metrics(std::string& out, const auto& metrics) {
  out += '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    first = false;
    out += json_string(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += '}';
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + upper) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t count_above(const std::vector<double>& v, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [threshold](double x) { return x > threshold; }));
}

std::string Digest::str() const {
  return "base=" + std::to_string(base_clusters) + " flows=" + std::to_string(flows) +
         " final=" + std::to_string(final_clusters) + " participants#" +
         std::to_string(participants_hash);
}

Digest digest_of(std::size_t base_clusters, std::size_t flows,
                 const std::vector<neat::FinalCluster>& finals) {
  // FNV-1a over (cluster size, participant ids...) per final cluster.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& c : finals) {
    mix(c.participants.size());
    for (const neat::TrajectoryId id : c.participants) mix(static_cast<std::uint64_t>(id.value()));
  }
  return Digest{base_clusters, flows, finals.size(), h};
}

Digest digest_of(const neat::Result& r) {
  return digest_of(r.base_clusters.size(), r.flow_clusters.size(), r.final_clusters);
}

Recorder::Recorder(const Options& options) : options_(options) {
  tracer_.set_enabled(options_.trace);
  // Room for every span of a traced run; none may be overwritten.
  tracer_.set_max_spans_per_thread(1 << 20);
}

void Recorder::end_to_end(const std::string& name, double value, const std::string& unit) {
  end_to_end_[name] = Metric{value, unit};
}

void Recorder::layer(const std::string& name, double value, const std::string& unit) {
  layers_[name] = Metric{value, unit};
}

void Recorder::samples(const std::string& name, const std::vector<double>& values) {
  samples_[name] = values;
}

void Recorder::provenance(const std::string& key, const std::string& value) {
  provenance_.emplace_back(key, json_string(value));
}

void Recorder::provenance(const std::string& key, double value) {
  provenance_.emplace_back(key, json_number(value));
}

void Recorder::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: FAILED: " << what << '\n';
}

void Recorder::add_attempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Recorder::maybe_delay(const char* layer) const {
  if (options_.delay_ms > 0.0 && options_.delay_layer == layer) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(options_.delay_ms));
  }
}

int Recorder::finish() {
  const bool correct = attempted_ > 0 && failed_ == 0;
  const auto& reported = options_.trace ? layers_ : end_to_end_;
  std::cout << "\n" << options_.workload << " seed " << options_.seed
            << (options_.trace ? " (traced)" : "") << ":\n";
  for (const auto& [name, m] : reported) {
    std::cout << "  " << name << " " << json_number(m.value) << " " << m.unit << '\n';
  }
  std::cout << "  failed_ratio " << json_number(static_cast<double>(failed_) /
                                                static_cast<double>(std::max<std::uint64_t>(attempted_, 1)))
            << " ratio (" << failed_ << " of " << attempted_ << " operations)\n";

  std::string metrics;
  append_metrics(metrics, reported);
  const std::string stem = options_.out_dir + "/" + options_.workload + "-seed" +
                           std::to_string(options_.seed) + (options_.trace ? "-traced" : "");
  std::string record = "{\"workload\":" + json_string(options_.workload) +
                       ",\"seed\":" + std::to_string(options_.seed) +
                       ",\"seconds\":" + json_number(options_.seconds) +
                       ",\"trace\":" + (options_.trace ? "true" : "false") +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) + ",\"provenance\":{";
  for (std::size_t i = 0; i < provenance_.size(); ++i) {
    record += (i ? "," : "") + json_string(provenance_[i].first) + ":" + provenance_[i].second;
  }
  record += "},\"metrics\":" + metrics + ",\"samples\":{";
  for (auto it = samples_.begin(); it != samples_.end(); ++it) {
    record += (it == samples_.begin() ? "" : ",") + json_string(it->first) + ":[";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      record += (i ? "," : "") + json_number(it->second[i]);
    }
    record += "]";
  }
  record += "}}\n";
  std::filesystem::create_directories(options_.out_dir);
  std::ofstream(stem + ".json") << record;
  if (options_.trace) {
    std::ofstream(stem + ".trace.json") << tracer_.to_chrome_json();
    std::cout << "  spans: " << tracer_.span_count() << " written to " << stem << ".trace.json\n";
  }

  std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted_
            << ",\"failed\":" << failed_ << ",\"metrics\":" << metrics << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
