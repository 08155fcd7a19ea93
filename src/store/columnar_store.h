// Memory-mapped reader over the columnar trajectory format — the
// out-of-core half of the storage substrate (traj/columnar.h documents the
// file layout). The whole file is mapped read-only once; trajectories are
// exposed as zero-copy SoA spans into the mapping, so a scan over a dataset
// larger than RAM pages columns in on demand and release() hands consumed
// ranges back to the OS, keeping the resident footprint bounded by the
// working set instead of the dataset.
//
// The mapping is immutable and the store does no caching, so all accessors
// are safe to call concurrently. Views borrow the mapping: they are valid
// until the store is destroyed, and their pages may be evicted (transparently
// faulted back in) by release().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/ids.h"
#include "core/fragmenter.h"
#include "traj/columnar.h"
#include "traj/trajectory.h"

namespace neat::store {

/// Zero-copy SoA view of one trajectory: parallel spans into the mapped
/// point columns. Valid while the owning store lives.
struct TrajectoryView {
  TrajectoryId id;
  std::span<const double> t;
  std::span<const std::int32_t> seg;
  std::span<const double> x;
  std::span<const double> y;
  std::span<const std::uint8_t> flags;  ///< Bit 0 = junction point.

  [[nodiscard]] std::size_t size() const { return t.size(); }

  /// Copies the view into an owning row-oriented Trajectory.
  [[nodiscard]] traj::Trajectory materialize() const;
};

/// Tuning of a columnar store open.
struct ColumnarStoreOptions {
  /// Verify the footer checksum on open by streaming the file through
  /// read() (not the mapping, so verification does not inflate RSS).
  /// Disable only for huge files whose integrity is established elsewhere.
  bool verify_checksum{true};
};

/// Read-only mmap-backed store over one `.neatcol` file.
class ColumnarTrajectoryStore {
 public:
  /// Opens and maps `path`, validating header, section layout and footer
  /// (plus the checksum per `options`). Throws neat::Error when the file
  /// cannot be opened or mapped, neat::ParseError when it is not a valid
  /// columnar trajectory file.
  explicit ColumnarTrajectoryStore(const std::string& path, ColumnarStoreOptions options = {});
  ~ColumnarTrajectoryStore();

  ColumnarTrajectoryStore(const ColumnarTrajectoryStore&) = delete;
  ColumnarTrajectoryStore& operator=(const ColumnarTrajectoryStore&) = delete;

  [[nodiscard]] std::size_t size() const { return num_trajectories_; }
  [[nodiscard]] bool empty() const { return num_trajectories_ == 0; }
  [[nodiscard]] std::size_t num_points() const { return num_points_; }

  /// Bytes of file this store has mapped (the whole file).
  [[nodiscard]] std::uint64_t bytes_mapped() const { return size_; }

  /// Bytes of the mapped point columns, i.e. the dataset payload a full
  /// scan touches (excludes header, ids, index and padding).
  [[nodiscard]] std::uint64_t point_bytes() const;

  /// Zero-copy view of trajectory `i` (file order). Thread-safe.
  [[nodiscard]] TrajectoryView view(std::size_t i) const;

  /// Owning copy of trajectory `i`. Thread-safe.
  [[nodiscard]] traj::Trajectory materialize(std::size_t i) const;

  /// Advises the OS to drop the resident pages backing trajectories
  /// [begin, end) — the bounded-memory scan primitive. The data stays
  /// valid (it faults back in from the file); only whole pages fully
  /// inside the range are dropped. Thread-safe; no-op on ranges too small
  /// to cover a page.
  void release(std::size_t begin, std::size_t end) const;

  /// Sum of bytes_mapped() over all live stores in the process (what the
  /// neat_store_bytes_mapped gauge exports).
  [[nodiscard]] static std::uint64_t total_bytes_mapped();

 private:
  /// Point index range [first, last) of trajectory `i`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> point_range(std::size_t i) const;

  std::string path_;
  const std::byte* map_{nullptr};
  std::uint64_t size_{0};
  traj::ColumnarHeader header_{};
  std::size_t num_trajectories_{0};
  std::size_t num_points_{0};
  const std::int64_t* trids_{nullptr};
  const std::uint64_t* index_{nullptr};
};

/// Adapts a columnar store to the Phase 1 TrajectorySource interface.
/// `at` materializes from the mapping; `batch_done` releases the consumed
/// range (when `release_batches`), so a streaming Phase 1 run keeps only
/// about one batch (Fragmenter::kBatchSize trajectories) of points resident.
class ColumnarTrajectorySource final : public TrajectorySource {
 public:
  /// Keeps a reference to `store`; do not outlive it.
  explicit ColumnarTrajectorySource(const ColumnarTrajectoryStore& store,
                                    bool release_batches = true)
      : store_(store), release_batches_(release_batches) {}

  [[nodiscard]] std::size_t size() const override { return store_.size(); }
  [[nodiscard]] traj::Trajectory at(std::size_t i) const override {
    return store_.materialize(i);
  }
  void batch_done(std::size_t begin, std::size_t end) override {
    if (release_batches_) store_.release(begin, end);
  }

 private:
  const ColumnarTrajectoryStore& store_;
  bool release_batches_;
};

}  // namespace neat::store
