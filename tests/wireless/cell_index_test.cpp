#include "wireless/cell_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tracemod::wireless {
namespace {

std::vector<std::uint32_t> candidates(const CellIndex& idx, Vec2 p,
                                      double radius) {
  std::vector<std::uint32_t> out;
  idx.for_each_candidate(p, radius, [&](std::uint32_t id) { out.push_back(id); });
  return out;
}

TEST(CellIndex, FlatModeVisitsEverythingInRegistrationOrder) {
  const CellIndex idx(0.0, {{1000.0, 1000.0}, {-500.0, 2.0}, {0.0, 0.0}});
  EXPECT_FALSE(idx.sharded());
  // Radius is irrelevant in flat mode: the whole plane is one cell.
  EXPECT_EQ(candidates(idx, {0, 0}, 1.0),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(idx.occupied_cells(), 1u);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(CellIndex, FlatModeCoversTheSingleCell) {
  CellIndex idx(0.0);
  const CellIndex::CellSpan cells = idx.cells_covering({123.0, -456.0}, 130.0);
  EXPECT_EQ(cells.x0, 0);
  EXPECT_EQ(cells.x1, 0);
  EXPECT_EQ(cells.y0, 0);
  EXPECT_EQ(cells.y1, 0);
}

TEST(CellIndex, ShardedQueryIsARangeSuperset) {
  const CellIndex idx(100.0, {
                                 {50.0, 50.0},    // cell (0,0)
                                 {250.0, 50.0},   // cell (2,0) -- two away
                                 {950.0, 950.0},  // far corner
                                 {-50.0, 50.0},   // cell (-1,0), across 0
                             });
  EXPECT_TRUE(idx.sharded());

  const auto near = candidates(idx, {60.0, 60.0}, 80.0);
  // Entries within radius must appear; the far corner must not.
  EXPECT_NE(std::find(near.begin(), near.end(), 0u), near.end());
  EXPECT_NE(std::find(near.begin(), near.end(), 3u), near.end());
  EXPECT_EQ(std::find(near.begin(), near.end(), 2u), near.end());
}

TEST(CellIndex, ShardedQueryOrderIsDeterministicRowMajor) {
  const CellIndex idx(100.0, {
                                 {150.0, 150.0},  // cell (1,1)
                                 {50.0, 50.0},    // cell (0,0)
                                 {150.0, 50.0},   // cell (1,0)
                                 {60.0, 55.0},    // cell (0,0), after 1
                             });
  // Scan rows bottom-up, cells left-to-right, ids in registration order.
  EXPECT_EQ(candidates(idx, {100.0, 100.0}, 100.0),
            (std::vector<std::uint32_t>{1, 3, 2, 0}));
}

/// The query's definition evaluated directly: every cell of the disc's
/// bounding box in row-major order, and in each the ids positioned in it,
/// in registration order.
std::vector<std::uint32_t> by_definition(const std::vector<Vec2>& pos,
                                         double cell, Vec2 p, double r) {
  auto c = [cell](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell));
  };
  std::vector<std::uint32_t> out;
  for (std::int64_t iy = c(p.y - r); iy <= c(p.y + r); ++iy) {
    for (std::int64_t ix = c(p.x - r); ix <= c(p.x + r); ++ix) {
      for (std::uint32_t id = 0; id < pos.size(); ++id) {
        if (c(pos[id].x) == ix && c(pos[id].y) == iy) out.push_back(id);
      }
    }
  }
  return out;
}

TEST(CellIndex, QueriesReachingPastTheOccupiedGridMatchTheDefinition) {
  // Occupied cells span x -2..1 and y -1..2, around the origin, with two
  // ids sharing cell (-2,-1) and two sharing (0,2).
  const std::vector<Vec2> pos = {{-150.0, -50.0}, {50.0, 250.0},
                                 {-120.0, 30.0},  {180.0, -40.0},
                                 {-140.0, -60.0}, {60.0, 260.0}};
  const CellIndex idx(100.0, pos);
  EXPECT_EQ(idx.occupied_cells(), 4u);
  const Vec2 queries[] = {
      {-130.0, -40.0},    // inside, negative coordinates
      {-290.0, 0.0},      // straddles the left edge
      {0.0, 340.0},       // straddles the top edge
      {-260.0, -160.0},   // straddles a corner, negative
      {250.0, 320.0},     // straddles the opposite corner
      {-1000.0, -1000.0}, // wholly outside, negative
      {1000.0, 50.0},     // wholly outside, right
  };
  for (const Vec2 p : queries) {
    SCOPED_TRACE(testing::Message() << p.x << "," << p.y);
    const std::vector<std::uint32_t> got = candidates(idx, p, 120.0);
    EXPECT_EQ(got, by_definition(pos, 100.0, p, 120.0));
    // visits() answers for one id what the query does.
    for (std::uint32_t id = 0; id < pos.size(); ++id) {
      EXPECT_EQ(idx.visits(idx.cells_covering(p, 120.0), id),
                std::find(got.begin(), got.end(), id) != got.end())
          << id;
    }
  }
  EXPECT_TRUE(candidates(idx, {-1000.0, -1000.0}, 120.0).empty());
  // A disc larger than the grid visits every id once.
  EXPECT_EQ(candidates(idx, {0.0, 0.0}, 5000.0),
            by_definition(pos, 100.0, {0.0, 0.0}, 5000.0));
  EXPECT_EQ(candidates(idx, {0.0, 0.0}, 5000.0).size(), pos.size());
}

TEST(CellIndex, RefusesAGridBeyondTheCellCap) {
  // 10 km apart on a 1 mm grid: 10^14 cells.
  EXPECT_THROW(CellIndex(1e-3, {{0.0, 0.0}, {1e4, 1e4}}),
               std::invalid_argument);
}

TEST(CellIndex, CoveredCellsSpanTheDiscBoundingBox) {
  CellIndex idx(100.0);
  // Disc centered mid-cell with radius one cell: 3x3 block.
  CellIndex::CellSpan cells = idx.cells_covering({150.0, 150.0}, 100.0);
  EXPECT_EQ(cells.x0, 0);
  EXPECT_EQ(cells.x1, 2);
  EXPECT_EQ(cells.y0, 0);
  EXPECT_EQ(cells.y1, 2);
  // Small disc away from any border: just the home cell.
  cells = idx.cells_covering({150.0, 150.0}, 10.0);
  EXPECT_EQ(cells.x0, 1);
  EXPECT_EQ(cells.x1, 1);
  EXPECT_EQ(cells.y0, 1);
  EXPECT_EQ(cells.y1, 1);
  // Negative coordinates floor away from zero.
  cells = idx.cells_covering({-50.0, 20.0}, 60.0);
  EXPECT_EQ(cells.x0, -2);
  EXPECT_EQ(cells.x1, 0);
  EXPECT_EQ(cells.y0, -1);
  EXPECT_EQ(cells.y1, 0);
}

TEST(CellIndex, AssociationRangeInvertsPathLoss) {
  // d = 10^((tx - ref - floor_rx) / (10 n)); with tx 18 dBm, ref 40 dB,
  // n = 3, floor -90 dBm: 10^(68/30).
  const double d = association_range_m(18.0, 40.0, 3.0, -90.0);
  EXPECT_NEAR(d, std::pow(10.0, 68.0 / 30.0), 1e-9);
  // At the computed distance the link budget exactly meets the floor.
  const double rx = 18.0 - (40.0 + 10.0 * 3.0 * std::log10(d));
  EXPECT_NEAR(rx, -90.0, 1e-9);
  // The 1 m reference clamp.
  EXPECT_EQ(association_range_m(0.0, 80.0, 3.0, -10.0), 1.0);
}

}  // namespace
}  // namespace tracemod::wireless
