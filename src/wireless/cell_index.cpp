#include "wireless/cell_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/assert.hpp"

namespace tracemod::wireless {

double association_range_m(double tx_dbm, double ref_loss_db,
                           double path_exponent, double rx_floor_dbm) {
  // Invert tx - (ref_loss + 10 n log10(d)) = floor for d; clamp at the
  // 1 m reference distance the path-loss model bottoms out at.
  const double exponent = (tx_dbm - ref_loss_db - rx_floor_dbm) /
                          (10.0 * path_exponent);
  return std::max(1.0, std::pow(10.0, exponent));
}

CellIndex::CellIndex(double cell_size, const std::vector<Vec2>& positions)
    : cell_size_(cell_size) {
  const std::size_t n = positions.size();
  TM_ASSERT(n < UINT32_MAX);
  if (n == 0) {
    begin_.assign(1, 0);
    return;
  }
  // Cell coordinates of every position (all (0, 0) in flat mode), then the
  // bounding box of the occupied cells.
  std::vector<std::int64_t> cx(n, 0), cy(n, 0);
  if (sharded()) {
    for (std::size_t i = 0; i < n; ++i) {
      cx[i] = coord(positions[i].x);
      cy[i] = coord(positions[i].y);
    }
  }
  const auto [xmin, xmax] = std::minmax_element(cx.begin(), cx.end());
  const auto [ymin, ymax] = std::minmax_element(cy.begin(), cy.end());
  gx0_ = *xmin;
  gy0_ = *ymin;
  nx_ = *xmax - gx0_ + 1;
  ny_ = *ymax - gy0_ + 1;
  // Each side is checked first, so the product cannot overflow.
  if (nx_ > kMaxGridCells || ny_ > kMaxGridCells ||
      nx_ * ny_ > kMaxGridCells) {
    throw std::invalid_argument(
        "cell size " + std::to_string(cell_size_) +
        " m needs a grid of " + std::to_string(nx_) + " x " +
        std::to_string(ny_) + " cells for " + std::to_string(n) +
        " positions (at most " + std::to_string(kMaxGridCells) + ")");
  }

  // Counting sort by cell.  Ids are placed in increasing order, so each
  // cell keeps registration order.
  std::vector<std::uint32_t> cell(n);
  begin_.assign(static_cast<std::size_t>(nx_ * ny_) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell[i] = static_cast<std::uint32_t>((cy[i] - gy0_) * nx_ + cx[i] - gx0_);
    ++begin_[cell[i] + 1];
  }
  for (std::size_t c = 1; c < begin_.size(); ++c) begin_[c] += begin_[c - 1];
  std::vector<std::uint32_t> next(begin_.begin(), begin_.end() - 1);
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids_[next[cell[i]]++] = static_cast<std::uint32_t>(i);
  }
  cx_ = std::move(cx);
  cy_ = std::move(cy);
}

std::int64_t CellIndex::coord(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_size_));
}

CellIndex::CellSpan CellIndex::cells_covering(Vec2 p, double radius) const {
  if (!sharded()) return CellSpan{};
  return CellSpan{coord(p.x - radius), coord(p.x + radius),
                  coord(p.y - radius), coord(p.y + radius)};
}

std::size_t CellIndex::occupied_cells() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c + 1 < begin_.size(); ++c) {
    if (begin_[c] != begin_[c + 1]) ++n;
  }
  return n;
}

}  // namespace tracemod::wireless
