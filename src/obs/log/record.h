// Per-thread record rings of the structured logger — the only data
// structure a NEAT_LOG statement writes.
//
// Each logging thread owns one RecordRing (obs/spsc_ring.h) per Logger it
// talks to: the thread is the single producer, and the logger's background
// writer is the single consumer, draining concurrently with production.
//
// Records are fixed-size so a statement never allocates: a message longer
// than kMaxMessage is truncated (and says so), a key=value payload that
// would overflow kMaxFields drops whole pairs (never half a pair, so the
// emitted JSON stays well-formed), and a full ring drops the record and
// bumps `neat_obs_log_dropped_total{module}` instead of blocking the
// caller or overwriting a slot the writer may be reading.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/spsc_ring.h"

namespace neat::obs::log {

/// Longest message payload a record carries; longer messages truncate.
inline constexpr std::size_t kMaxMessage = 240;

/// Longest preformatted key=value JSON payload; overflow drops whole pairs.
inline constexpr std::size_t kMaxFields = 496;

/// One structured log record, fully formatted on the producing thread.
/// `fields` holds preformatted `,"key":value` JSON fragments (comma-led so
/// the writer can splice them after the standard envelope keys).
struct Record {
  std::int64_t wall_ns{0};     ///< CLOCK_REALTIME nanoseconds at the call site.
  std::uint64_t trace_id{0};   ///< Ambient obs::current_trace_id(), 0 = none.
  std::uint32_t tid{0};        ///< Producing thread's logger-local id.
  std::uint8_t level{0};       ///< log::Level of the statement.
  std::uint8_t truncated{0};   ///< 1 when message or fields hit their cap.
  std::uint16_t msg_len{0};    ///< Valid bytes of `msg`.
  std::uint16_t fields_len{0}; ///< Valid bytes of `fields`.
  const void* module{nullptr}; ///< The owning Logger's Module*, stable.
  char msg[kMaxMessage];
  char fields[kMaxFields];
};

/// Ring of records. Producer = the owning thread's NEAT_LOG statements
/// (`tid` is its logger-local id); consumer = the logger's background
/// writer, draining live.
using RecordRing = SpscRing<Record>;

}  // namespace neat::obs::log
