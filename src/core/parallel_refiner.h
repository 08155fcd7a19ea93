// Former name of the Phase 3 refiner. Refiner::refine itself spreads the
// pair-distance evaluation across RefineConfig::threads workers. The last
// user of this alias is perfbench/harness/layers.cpp; once it calls Refiner
// by name, this header can go.
#pragma once

#include "core/refiner.h"

namespace neat {

using ParallelRefiner = Refiner;

}  // namespace neat
