// Log level of the paper-figure benches.
//
// The pipeline logs every phase at info level. A paper bench runs the
// pipeline dozens of times, so those JSON lines bury the table it prints on
// the same terminal. The benches therefore start at warn; NEAT_LOG_LEVEL,
// when set, still wins (the global logger reads it at construction).
#pragma once

#include <cstdlib>

#include "obs/log/log.h"

namespace neat::bench {

/// Sets the global logger's default level to warn unless NEAT_LOG_LEVEL is
/// set. Call first thing in main().
inline void default_logs_to_warn() {
  if (std::getenv("NEAT_LOG_LEVEL") == nullptr) {
    obs::log::Logger::global().set_default_level(obs::log::Level::kWarn);
  }
}

}  // namespace neat::bench
