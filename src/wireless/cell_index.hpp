// Spatial cell index for the sharded wireless medium.
//
// The seed emulated one flat CSMA cell: every transceiver saw every frame,
// handoff scans walked every WavePoint, and contention was effectively
// O(N^2).  A CellIndex partitions the campus plane into a uniform grid of
// square cells so that only transceivers within radio range interact:
//   - it is built once from a fixed set of positions (WavePoints are fixed
//     infrastructure); id i names positions[i];
//   - it is dense: a row-major grid over the bounding box of the occupied
//     cells, each cell a [begin, end) range into one contiguous id array,
//     ids in registration order within each cell;
//   - disc queries ("everything within range r of p") visit the cells
//     overlapping the disc's bounding box in a fixed row-major scan order
//     (bottom-up, left-to-right), clamped to the grid.  Cells outside the
//     grid hold nothing, so the clamp changes neither the candidates nor
//     their order, and results are a pure function of the inputs, never of
//     hashing or threads;
//   - cell_size <= 0 selects the degenerate single-cell grid, which makes
//     every query a full scan in registration order -- byte-identical to
//     the seed's flat medium (the equivalence the regression tests pin).
//
// An index never changes after construction, so shard workers may query it
// concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/perf/perf.hpp"
#include "wireless/geometry.hpp"

namespace tracemod::wireless {

/// Grid configuration for the sharded medium.  Embedded in ChannelConfig;
/// the default (cell_size 0) keeps the flat seed behaviour.
struct SpatialConfig {
  /// Square cell edge in metres.  <= 0 disables sharding: the whole plane
  /// is one cell and the medium behaves exactly like the seed's flat
  /// channel.  A good value is the radio interaction range (every disc
  /// query then touches at most 3x3 cells).
  double cell_size = 0.0;

  /// Radio interaction range in metres: the radius inside which stations
  /// contend, interfere, and are handoff candidates.  Transmissions mark
  /// every cell within this range of the transmitter busy, which is what
  /// makes carrier sense correct across cell borders.
  double radio_range_m = 130.0;

  bool sharded() const { return cell_size > 0.0; }
};

/// The distance beyond which a transmitter at tx_dbm can no longer clear
/// rx_floor_dbm under the given path-loss parameters with no wall/zone
/// attenuation (obstacles only shorten it), clamped to the 1 m reference
/// distance.  The association scan uses it to skip candidates too far away
/// to beat the strongest one so far.  It does not size radio_range_m: the
/// campus interaction range is a fixed 130 m.
double association_range_m(double tx_dbm, double ref_loss_db,
                           double path_exponent, double rx_floor_dbm);

class CellIndex {
 public:
  /// Packed cell coordinate (row-major key derived from ix/iy).
  using CellKey = std::int64_t;

  /// Cap on the dense grid's cell count, so that a cell size far below
  /// the WavePoint spacing is refused instead of allocating without bound.
  static constexpr std::int64_t kMaxGridCells = std::int64_t{1} << 24;

  /// Indexes positions[i] under id i.  Throws std::invalid_argument when
  /// the grid over the occupied cells would exceed kMaxGridCells.
  explicit CellIndex(double cell_size = 0.0,
                     const std::vector<Vec2>& positions = {});

  bool sharded() const { return cell_size_ > 0.0; }
  double cell_size() const { return cell_size_; }

  /// The cell containing p (always key 0 in flat mode).
  CellKey cell_of(Vec2 p) const;

  /// Visits every id whose cell overlaps the disc (p, radius): a superset
  /// of the ids within radius, visited in deterministic order (cells in
  /// row-major scan order over the disc's bounding box, ids in
  /// registration order within each cell).  Flat mode visits everything
  /// in registration order -- the seed's full scan.
  template <typename Fn>
  void for_each_candidate(Vec2 p, double radius, Fn&& fn) const {
    sim::perf::PerfScope perf_scope(sim::perf::Domain::kCellIndex,
                                    "cell.query");
    std::int64_t x0, x1, y0, y1;
    if (!grid_span(p, radius, &x0, &x1, &y0, &y1)) return;
    for (std::int64_t iy = y0; iy <= y1; ++iy) {
      // Adjacent cells of one row are adjacent in ids_.
      const std::uint32_t* row = begin_.data() + iy * nx_;
      for (std::uint32_t k = row[x0]; k < row[x1 + 1]; ++k) fn(ids_[k]);
    }
  }

  /// Appends the keys of every cell overlapping the disc (p, radius) in
  /// the same deterministic scan order.  Flat mode appends the single key.
  void covered_cells(Vec2 p, double radius,
                     std::vector<CellKey>* out) const;

  std::size_t size() const { return ids_.size(); }

  /// Number of distinct occupied cells (diagnostics and tests).
  std::size_t occupied_cells() const;

 private:
  CellKey key_of(std::int64_t ix, std::int64_t iy) const;
  void cell_span(Vec2 p, double radius, std::int64_t* x0, std::int64_t* x1,
                 std::int64_t* y0, std::int64_t* y1) const;
  /// The disc's cell span in grid coordinates, clamped to the grid; false
  /// when the span misses the grid.
  bool grid_span(Vec2 p, double radius, std::int64_t* x0, std::int64_t* x1,
                 std::int64_t* y0, std::int64_t* y1) const;

  double cell_size_;
  std::int64_t gx0_ = 0;  ///< cell coordinates of the grid's first cell
  std::int64_t gy0_ = 0;
  std::int64_t nx_ = 0;   ///< grid extent in cells; 0 when empty
  std::int64_t ny_ = 0;
  /// Cell c holds ids_[begin_[c], begin_[c + 1]); nx_ * ny_ + 1 entries.
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace tracemod::wireless
