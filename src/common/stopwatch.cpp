#include "common/stopwatch.h"

namespace neat {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

void Stopwatch::restart() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::elapsed_seconds() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start_).count();
}

}  // namespace neat
