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
    auto coord = [this](double v) {
      return static_cast<std::int64_t>(std::floor(v / cell_size_));
    };
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
}

CellIndex::CellKey CellIndex::key_of(std::int64_t ix, std::int64_t iy) const {
  // Pack two 32-bit coordinates; campus geometry is metres-scale, so the
  // truncation can never wrap in practice.
  return (static_cast<CellKey>(static_cast<std::uint32_t>(ix)) << 32) |
         static_cast<CellKey>(static_cast<std::uint32_t>(iy));
}

CellIndex::CellKey CellIndex::cell_of(Vec2 p) const {
  if (!sharded()) return 0;
  return key_of(static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
                static_cast<std::int64_t>(std::floor(p.y / cell_size_)));
}

void CellIndex::cell_span(Vec2 p, double radius, std::int64_t* x0,
                          std::int64_t* x1, std::int64_t* y0,
                          std::int64_t* y1) const {
  *x0 = static_cast<std::int64_t>(std::floor((p.x - radius) / cell_size_));
  *x1 = static_cast<std::int64_t>(std::floor((p.x + radius) / cell_size_));
  *y0 = static_cast<std::int64_t>(std::floor((p.y - radius) / cell_size_));
  *y1 = static_cast<std::int64_t>(std::floor((p.y + radius) / cell_size_));
}

bool CellIndex::grid_span(Vec2 p, double radius, std::int64_t* x0,
                          std::int64_t* x1, std::int64_t* y0,
                          std::int64_t* y1) const {
  if (nx_ == 0) return false;
  if (!sharded()) {
    *x0 = *x1 = *y0 = *y1 = 0;
    return true;
  }
  cell_span(p, radius, x0, x1, y0, y1);
  *x0 = std::max(*x0, gx0_) - gx0_;
  *x1 = std::min(*x1, gx0_ + nx_ - 1) - gx0_;
  *y0 = std::max(*y0, gy0_) - gy0_;
  *y1 = std::min(*y1, gy0_ + ny_ - 1) - gy0_;
  return *x0 <= *x1 && *y0 <= *y1;
}

void CellIndex::covered_cells(Vec2 p, double radius,
                              std::vector<CellKey>* out) const {
  if (!sharded()) {
    out->push_back(0);
    return;
  }
  std::int64_t x0, x1, y0, y1;
  cell_span(p, radius, &x0, &x1, &y0, &y1);
  for (std::int64_t iy = y0; iy <= y1; ++iy) {
    for (std::int64_t ix = x0; ix <= x1; ++ix) {
      out->push_back(key_of(ix, iy));
    }
  }
}

std::size_t CellIndex::occupied_cells() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c + 1 < begin_.size(); ++c) {
    if (begin_[c] != begin_[c + 1]) ++n;
  }
  return n;
}

}  // namespace tracemod::wireless
