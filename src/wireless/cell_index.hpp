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
//     overlapping the disc's bounding box (cells_covering) in a fixed
//     row-major scan order (bottom-up, left-to-right), clamped to the
//     grid.  Cells outside the grid hold nothing, so the clamp changes
//     neither the candidates nor their order, and results are a pure
//     function of the inputs, never of hashing or threads;
//   - each id's cell is kept, so visits() tells whether a query visits an
//     id without running it;
//   - cell_size <= 0 selects the degenerate single-cell grid, which makes
//     every query a full scan in registration order -- byte-identical to
//     the seed's flat medium (the equivalence the regression tests pin).
//
// An index never changes after construction, so shard workers may query it
// concurrently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

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

  /// A block of cells [x0, x1] x [y0, y1] in plane cell coordinates: cell
  /// (ix, iy) holds the points whose coordinates floor to ix and iy when
  /// divided by the cell size.
  struct CellSpan {
    std::int64_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  };

  /// Packs a cell's two coordinates, truncated to 32 bits each; campus
  /// geometry is metres-scale, so the truncation never wraps in practice.
  static CellKey key_of(std::int64_t ix, std::int64_t iy) {
    return (static_cast<CellKey>(static_cast<std::uint32_t>(ix)) << 32) |
           static_cast<CellKey>(static_cast<std::uint32_t>(iy));
  }

  /// The cells overlapping the bounding box of the disc (p, radius),
  /// unclamped; flat mode: the single cell (0, 0).
  CellSpan cells_covering(Vec2 p, double radius) const;

  /// The grid's own cells: the bounding box of the occupied cells (flat
  /// mode: the single cell; x1 < x0 when nothing is indexed).
  CellSpan grid() const {
    return CellSpan{gx0_, gx0_ + nx_ - 1, gy0_, gy0_ + ny_ - 1};
  }

  /// True when a query over `cells` visits id (flat mode: always).
  bool visits(const CellSpan& cells, std::uint32_t id) const {
    return cells.x0 <= cx_[id] && cx_[id] <= cells.x1 &&
           cells.y0 <= cy_[id] && cy_[id] <= cells.y1;
  }

  /// Visits every id whose cell lies in `cells`, in deterministic order:
  /// cells row-major (bottom-up, left-to-right), ids in registration order
  /// within each cell.  Over cells_covering(p, radius) that is a superset
  /// of the ids within radius of p.  Flat mode visits everything in
  /// registration order -- the seed's full scan.
  template <typename Fn>
  void for_each_candidate(const CellSpan& cells, Fn&& fn) const {
    // Cells outside the grid hold nothing, so clamping to it changes
    // neither the ids nor their order.
    const std::int64_t x0 = std::max(cells.x0, gx0_) - gx0_;
    const std::int64_t x1 = std::min(cells.x1, gx0_ + nx_ - 1) - gx0_;
    const std::int64_t y0 = std::max(cells.y0, gy0_) - gy0_;
    const std::int64_t y1 = std::min(cells.y1, gy0_ + ny_ - 1) - gy0_;
    if (x0 > x1 || y0 > y1) return;
    for (std::int64_t iy = y0; iy <= y1; ++iy) {
      // Adjacent cells of one row are adjacent in ids_.
      const std::uint32_t* row = begin_.data() + iy * nx_;
      for (std::uint32_t k = row[x0]; k < row[x1 + 1]; ++k) fn(ids_[k]);
    }
  }

  /// for_each_candidate over cells_covering(p, radius).
  template <typename Fn>
  void for_each_candidate(Vec2 p, double radius, Fn&& fn) const {
    for_each_candidate(cells_covering(p, radius), std::forward<Fn>(fn));
  }

  std::size_t size() const { return ids_.size(); }

  /// Number of distinct occupied cells (diagnostics and tests).
  std::size_t occupied_cells() const;

 private:
  /// The cell coordinate of a plane coordinate v (sharded mode).
  std::int64_t coord(double v) const;

  double cell_size_;
  std::int64_t gx0_ = 0;  ///< cell coordinates of the grid's first cell
  std::int64_t gy0_ = 0;
  std::int64_t nx_ = 0;   ///< grid extent in cells; 0 when empty
  std::int64_t ny_ = 0;
  /// Cell c holds ids_[begin_[c], begin_[c + 1]); nx_ * ny_ + 1 entries.
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> ids_;
  /// Each id's cell coordinates (all 0 in flat mode).
  std::vector<std::int64_t> cx_;
  std::vector<std::int64_t> cy_;
};

}  // namespace tracemod::wireless
