// Former name of the Phase 3 refiner. Refiner::refine itself spreads the
// pair-distance evaluation across RefineConfig::threads workers; this alias
// keeps code written against the old name compiling.
#pragma once

#include "core/refiner.h"

namespace neat {

using ParallelRefiner = Refiner;

}  // namespace neat
