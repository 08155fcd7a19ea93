// CSV persistence for trajectory datasets.
//
// Format: one row per location sample, grouped by trajectory and ordered by
// sequence number:
//   <trid>,<seq>,<sid>,<x>,<y>,<t>,<junction 0|1>
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "traj/dataset.h"

namespace neat::traj {

/// Writes the dataset to a stream.
void save_dataset(const TrajectoryDataset& data, std::ostream& out);

/// Writes the dataset to a file. Throws neat::Error when the file cannot be
/// opened.
void save_dataset(const TrajectoryDataset& data, const std::string& path);

/// Streams a trajectory CSV, invoking `fn` once per completed trajectory —
/// the one CSV path behind load_dataset and the CSV -> columnar converter.
/// `fn` runs on the calling thread, in file order.
///
/// The input is read in windows of 8 MiB; a longer line grows the window
/// until its newline comes. Each window is cut at its last newline into
/// 2 x std::thread::hardware_concurrency() (at least 2) line-aligned ranges
/// that are parsed in parallel, and a trajectory split by a cut is joined
/// again. Besides what `fn` keeps, memory is bounded by one window of text
/// plus the rows parsed from it. The worker count never changes the output
/// or the errors.
///
/// Rows are parsed with std::from_chars and no per-field allocation; rows
/// containing quoted fields fall back to the RFC-4180 CSV reader. Throws
/// neat::ParseError("line N: ...") at the first malformed row: not 7
/// fields, a malformed or non-finite number, a sid outside [0, INT32_MAX],
/// a timestamp before the previous one, or a trajectory id that comes back
/// after another. `fn` has then been called exactly as by a reader that
/// takes one row at a time and stops at line N.
void for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn);

/// Reads a dataset from a stream. Throws neat::ParseError on malformed data.
[[nodiscard]] TrajectoryDataset load_dataset(std::istream& in);

/// Reads a dataset from a file. Throws neat::Error / neat::ParseError.
[[nodiscard]] TrajectoryDataset load_dataset(const std::string& path);

}  // namespace neat::traj
