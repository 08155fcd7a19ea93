// Per-thread sample rings of the sampling CPU profiler — the only data
// structure the SIGPROF handler writes.
//
// Each sampled thread owns one SampleRing (obs/spsc_ring.h): the signal
// handler interrupting that thread is the single producer, and the
// profiler's stop() drain is the single consumer. A full ring drops the
// sample and bumps the drop counters: losing a sample under burst is
// harmless, corrupting one that a concurrent drain is reading is not.
//
// Slots are fixed-size so the handler never computes with sizes it would
// have to trust: a stack deeper than kMaxFrames is truncated (counted), a
// ring fuller than `capacity` drops (counted).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/spsc_ring.h"

namespace neat::obs::prof {

/// Deepest stack a sample can carry; deeper walks truncate (and say so).
inline constexpr std::size_t kMaxFrames = 48;

/// One captured stack: program counters leaf-first (`pc[0]` is the
/// interrupted instruction, higher indices walk toward main).
struct Sample {
  std::uint32_t tid{0};       ///< Kernel thread id (gettid) of the sampled thread.
  std::uint16_t depth{0};     ///< Valid entries of `pc`, >= 1.
  std::uint16_t truncated{0}; ///< 1 when the walk hit kMaxFrames and stopped.
  std::uintptr_t pc[kMaxFrames];
};

/// Ring of samples over the session slab. Producer = the SIGPROF handler
/// on the owning thread (`tid` is its kernel thread id); consumer = the
/// profiler drain after the timer is disarmed.
using SampleRing = SpscRing<Sample>;

}  // namespace neat::obs::prof
