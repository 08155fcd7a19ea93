// Wall-clock timing used by the per-phase instrumentation and the bench
// harness.
#pragma once

#include <chrono>

namespace neat {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch();

  /// Restarts the stopwatch from zero.
  void restart();

  /// Seconds elapsed since construction or the last restart().
  [[nodiscard]] double elapsed_seconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace neat
