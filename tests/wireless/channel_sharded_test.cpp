// The sharded-medium contracts (DESIGN.md section 11):
//   - distant cells transmit concurrently instead of serializing on one
//     global carrier-sense horizon;
//   - stations within radio range still defer across a cell border, and
//     across the edge of the grid that keeps carrier-sense horizons;
//   - a mobile that walks out of every WavePoint's query disc drops its
//     association, as in the flat medium;
//   - a single giant cell is bit-identical to the flat (seed) medium;
//   - the distance-bounded scan is bit-identical to the full one, and the
//     poll allocates nothing per mobile.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "net/ethernet.hpp"
#include "scenarios/campus.hpp"
#include "sim/perf/report.hpp"
#include "wireless/channel.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::wireless {
namespace {

net::Packet udp_packet(net::IpAddress src, net::IpAddress dst,
                       std::uint32_t size) {
  static std::uint64_t next_id = 1;
  net::Packet p = net::make_udp_packet(src, dst, 1, 2, size);
  p.id = next_id++;
  return p;
}

/// Where TwoIslands puts its two WavePoints and two mobiles, and the
/// transmit power of each kind of radio.
struct Layout {
  Vec2 wp_a, wp_b, radio_a, radio_b;
  double wp_dbm = 18.0;
  double radio_dbm = 12.0;
};

/// Two WavePoint islands, one mobile parked on each, separate backbones
/// with wired sinks recording delivery times.
struct TwoIslands {
  sim::EventLoop loop;
  WirelessChannel channel;
  net::EthernetSegment backbone_a{loop};
  net::EthernetSegment backbone_b{loop};
  WavePoint wp_a;
  WavePoint wp_b;
  net::EthernetDevice sink_a{backbone_a, "sink-a"};
  net::EthernetDevice sink_b{backbone_b, "sink-b"};
  net::IpAddress addr_a{10, 0, 0, 2};
  net::IpAddress addr_b{10, 0, 0, 3};
  net::IpAddress server_a{10, 0, 1, 1};
  net::IpAddress server_b{10, 0, 1, 2};
  Vec2 pos_a;  ///< where radio_a is; a test may move it
  Vec2 pos_b;
  WaveLanDevice radio_a;
  WaveLanDevice radio_b;
  std::vector<double> deliveries_a;
  std::vector<double> deliveries_b;

  /// WavePoints `gap` metres apart on the x axis, each mobile 5 m inside.
  TwoIslands(double cell_size, double gap)
      : TwoIslands(cell_size,
                   Layout{{0, 0}, {gap, 0}, {5, 0}, {gap - 5, 0}}) {}

  TwoIslands(double cell_size, const Layout& at)
      : channel(loop, SignalModel(SignalConfig{}, {}, {}, sim::Rng(2)),
                make_cfg(cell_size), sim::Rng(3)),
        wp_a(channel, backbone_a, at.wp_a, "wp-a", at.wp_dbm),
        wp_b(channel, backbone_b, at.wp_b, "wp-b", at.wp_dbm),
        pos_a(at.radio_a),
        pos_b(at.radio_b),
        radio_a(channel, addr_a, [this] { return pos_a; }, "wl-a",
                at.radio_dbm),
        radio_b(channel, addr_b, [this] { return pos_b; }, "wl-b",
                at.radio_dbm) {
    sink_a.claim_address(server_a);
    sink_a.set_receive_callback([this](net::Packet) {
      deliveries_a.push_back(sim::to_seconds(loop.now() - sim::kEpoch));
    });
    sink_b.claim_address(server_b);
    sink_b.set_receive_callback([this](net::Packet) {
      deliveries_b.push_back(sim::to_seconds(loop.now() - sim::kEpoch));
    });
    channel.start();
    loop.run_for(sim::milliseconds(1));  // associations settle
  }

  static ChannelConfig make_cfg(double cell_size) {
    ChannelConfig cfg;
    cfg.spatial.cell_size = cell_size;
    cfg.spatial.radio_range_m = 130.0;
    return cfg;
  }

  /// Both mobiles transmit one large frame at the same instant.
  void simultaneous_uplinks() {
    loop.schedule(sim::milliseconds(10), [this] {
      radio_a.transmit(udp_packet(addr_a, server_a, 1400));
      radio_b.transmit(udp_packet(addr_b, server_b, 1400));
    });
    loop.run_for(sim::seconds(1));
  }
};

TEST(ShardedChannel, DistantCellsTransmitConcurrently) {
  // 1 km apart: different cells, far outside radio range.
  TwoIslands sharded(130.0, 1000.0);
  sharded.simultaneous_uplinks();
  ASSERT_EQ(sharded.deliveries_a.size(), 1u);
  ASSERT_EQ(sharded.deliveries_b.size(), 1u);
  EXPECT_GT(sharded.channel.busy_cells_tracked(), 1u);

  TwoIslands flat(0.0, 1000.0);
  flat.simultaneous_uplinks();
  ASSERT_EQ(flat.deliveries_a.size(), 1u);
  ASSERT_EQ(flat.deliveries_b.size(), 1u);
  EXPECT_EQ(flat.channel.busy_cells_tracked(), 1u);

  // Flat: one global busy horizon serializes the two frames, so the later
  // one lands a full transmission time after the earlier.  Sharded: the
  // cells don't interact; both frames are in flight together.
  const double tx_time = 1400.0 * 8.0 / flat.channel.rate_bps(30.0);
  const double flat_spread =
      std::abs(flat.deliveries_a[0] - flat.deliveries_b[0]);
  const double sharded_spread =
      std::abs(sharded.deliveries_a[0] - sharded.deliveries_b[0]);
  EXPECT_GT(flat_spread, tx_time * 0.9);
  EXPECT_LT(sharded_spread, tx_time * 0.9);
}

TEST(ShardedChannel, CrossCellBorderStillDefers) {
  // Gap 140 puts the radios at x = 5 and x = 135: grid cells 0 and 1 with
  // a 130 m cell edge, but only 130 m apart -- inside interaction range
  // across the border.
  TwoIslands sharded(130.0, 140.0);
  sharded.simultaneous_uplinks();
  TwoIslands flat(0.0, 140.0);
  flat.simultaneous_uplinks();

  // Within radio range across the border: the sharded medium must
  // serialize exactly like the flat one -- identical delivery times.
  ASSERT_EQ(sharded.deliveries_a.size(), 1u);
  ASSERT_EQ(sharded.deliveries_b.size(), 1u);
  EXPECT_EQ(sharded.deliveries_a, flat.deliveries_a);
  EXPECT_EQ(sharded.deliveries_b, flat.deliveries_b);
}

TEST(ShardedChannel, StationsDeferAcrossTheCarrierSenseGridsEdge) {
  // Both WavePoints sit in grid cell (0, 0) (130 m cells), so carrier-sense
  // horizons are kept densely for cells x = -2..2 (the WavePoint grid
  // widened by ceil(130 / 130) + 1) and in a map beyond.  Two loud mobiles
  // associate beside their WavePoints, then move east, 120 m apart, where
  // the poll finds no candidate; their 40 dBm signals stay above the
  // association floor, so they keep their associations:
  //   - to x = 250 and 370 they share cells 1..2, inside the grid; the
  //     second one also covers cell 3, outside it;
  //   - to x = 450 and 570 they share only cells 3..4, both outside.
  // Either way they must serialize exactly like the flat medium.
  const Layout beside = {{129, 0}, {129, 129.5}, {129, 5}, {129, 125},
                         40.0, 40.0};
  const std::pair<Vec2, Vec2> moves[] = {{{250, 60}, {370, 70}},
                                         {{450, 60}, {570, 70}}};
  for (const auto& [to_a, to_b] : moves) {
    SCOPED_TRACE(to_a.x);
    TwoIslands sharded(130.0, beside);
    TwoIslands flat(0.0, beside);
    for (TwoIslands* w : {&sharded, &flat}) {
      ASSERT_EQ(w->channel.associated(w->radio_a.mobile_index()), &w->wp_a);
      ASSERT_EQ(w->channel.associated(w->radio_b.mobile_index()), &w->wp_b);
      w->pos_a = to_a;
      w->pos_b = to_b;
      w->simultaneous_uplinks();
      EXPECT_EQ(w->channel.associated(w->radio_b.mobile_index()), &w->wp_b);
    }
    ASSERT_EQ(sharded.deliveries_a.size(), 1u);
    ASSERT_EQ(sharded.deliveries_b.size(), 1u);
    EXPECT_EQ(sharded.deliveries_a, flat.deliveries_a);
    EXPECT_EQ(sharded.deliveries_b, flat.deliveries_b);
  }
}

TEST(ShardedChannel, AMobileThatLeavesCoverageDropsItsAssociation) {
  // 600 m west of wp-a, radio_a's query disc holds no WavePoint, so the
  // sharded poll finds no candidate.  Its association's own signal is far
  // under the floor there: both media must drop it, and refuse its
  // frames afterwards.
  TwoIslands sharded(130.0, 1000.0);
  TwoIslands flat(0.0, 1000.0);
  for (TwoIslands* w : {&sharded, &flat}) {
    SCOPED_TRACE(w == &sharded ? "sharded" : "flat");
    ASSERT_EQ(w->channel.associated(w->radio_a.mobile_index()), &w->wp_a);
    w->pos_a = {-600, 0};
    w->loop.run_for(sim::seconds(2));
    EXPECT_EQ(w->channel.associated(w->radio_a.mobile_index()), nullptr);
    const std::uint64_t dropped =
        w->channel.stats().frames_dropped_unassociated;
    w->radio_a.transmit(udp_packet(w->addr_a, w->server_a, 700));
    EXPECT_EQ(w->channel.stats().frames_dropped_unassociated, dropped + 1);
  }
}

/// Drives a little uplink traffic from both islands on a fixed schedule
/// and returns every (delivery time, which island) observation.
std::vector<std::pair<double, int>> traffic_log(TwoIslands& w) {
  std::vector<std::pair<double, int>> log;
  auto record = [&log, &w](int island) {
    log.emplace_back(sim::to_seconds(w.loop.now() - sim::kEpoch), island);
  };
  w.sink_a.set_receive_callback([record](net::Packet) { record(0); });
  w.sink_b.set_receive_callback([record](net::Packet) { record(1); });
  for (int i = 0; i < 20; ++i) {
    w.loop.schedule(sim::milliseconds(40 * i + 7), [&w] {
      w.radio_a.transmit(udp_packet(w.addr_a, w.server_a, 700));
    });
    w.loop.schedule(sim::milliseconds(40 * i + 9), [&w] {
      w.radio_b.transmit(udp_packet(w.addr_b, w.server_b, 900));
    });
  }
  w.loop.run_for(sim::seconds(2));
  return log;
}

TEST(ShardedChannel, OneGiantCellIsBitIdenticalToFlat) {
  // A cell large enough to hold all geometry reduces sharding to the flat
  // medium: same candidate order, same busy arithmetic, same rng draws.
  TwoIslands giant(1e6, 300.0);
  TwoIslands flat(0.0, 300.0);
  const auto log_giant = traffic_log(giant);
  const auto log_flat = traffic_log(flat);
  EXPECT_EQ(log_giant, log_flat);
  EXPECT_EQ(giant.channel.stats().frames_delivered,
            flat.channel.stats().frames_delivered);
  EXPECT_EQ(giant.channel.stats().retry_attempts,
            flat.channel.stats().retry_attempts);
}

TEST(ShardedChannel, HandoffScanFindsNewWavePointThroughCellIndex) {
  // A mobile walking between two WavePoints 200 m apart must hand off via
  // the cell-index candidate query (the WavePoints sit in different
  // cells).
  sim::EventLoop loop;
  ChannelConfig cfg = TwoIslands::make_cfg(130.0);
  WirelessChannel channel(loop, SignalModel(SignalConfig{}, {}, {},
                                            sim::Rng(2)),
                          cfg, sim::Rng(3));
  net::EthernetSegment backbone_a(loop), backbone_b(loop);
  WavePoint wp_a(channel, backbone_a, {0, 0}, "wp-a");
  WavePoint wp_b(channel, backbone_b, {200, 0}, "wp-b");
  Vec2 pos{5, 0};
  WaveLanDevice radio(channel, {10, 0, 0, 2}, [&pos] { return pos; }, "wl");
  channel.start();
  loop.run_for(sim::milliseconds(1));
  ASSERT_EQ(channel.associated(radio.mobile_index()), &wp_a);

  // Walk across over 20 virtual seconds.
  for (int step = 1; step <= 20; ++step) {
    loop.schedule(sim::seconds(step) - sim::milliseconds(1),
                  [&pos, step] { pos = Vec2{5.0 + 9.5 * step, 0}; });
  }
  loop.run_for(sim::seconds(21));
  EXPECT_EQ(channel.associated(radio.mobile_index()), &wp_b);
  EXPECT_GE(channel.stats().handoffs, 1u);
}

/// The association scan without the distance bound, the reference:
/// median_rx_dbm on every candidate in visiting order, first strict
/// maximum wins, and the current WavePoint's signal computed on its own.
AssociationScan full_scan(const CellIndex& index,
                          const std::vector<WavePointSite>& sites,
                          const SignalModel& model, Vec2 pos, double radius,
                          std::uint32_t current) {
  AssociationScan scan;
  index.for_each_candidate(pos, radius, [&](std::uint32_t id) {
    const double rx =
        model.median_rx_dbm(sites[id].pos, sites[id].tx_dbm, pos);
    if (rx > scan.best_rx) {
      scan.best_rx = rx;
      scan.best = id;
    }
  });
  if (current != kNoWavePoint) {
    scan.cur_rx = model.median_rx_dbm(sites[current].pos,
                                      sites[current].tx_dbm, pos);
  }
  return scan;
}

/// Runs both scans and expects the same winner and bit-identical signals;
/// returns the bounded scan.
AssociationScan expect_same_scan(double cell_size,
                                 const std::vector<WavePointSite>& sites,
                                 const SignalModel& model, Vec2 pos,
                                 std::uint32_t current) {
  std::vector<Vec2> positions;
  double max_tx = -HUGE_VAL;
  for (const WavePointSite& site : sites) {
    positions.push_back(site.pos);
    max_tx = std::max(max_tx, site.tx_dbm);
  }
  const CellIndex index(cell_size, positions);
  const AssociationScan bounded =
      scan_wavepoints(index, sites, max_tx, model, pos, 130.0, current);
  const AssociationScan full =
      full_scan(index, sites, model, pos, 130.0, current);
  EXPECT_EQ(bounded.best, full.best);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bounded.best_rx),
            std::bit_cast<std::uint64_t>(full.best_rx));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bounded.cur_rx),
            std::bit_cast<std::uint64_t>(full.cur_rx));
  return bounded;
}

TEST(AssociationScan, BoundedScanMatchesTheFullScan) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    // Up to 40 WavePoints of 12 or 18 dBm on a 600 m square; positive
    // walls and zones on half the layouts.
    std::vector<WavePointSite> sites(
        static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (WavePointSite& site : sites) {
      site.pos = {rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)};
      site.tx_dbm = rng.chance(0.5) ? 12.0 : 18.0;
    }
    std::vector<Wall> walls;
    std::vector<Zone> zones;
    if (seed % 2 == 0) {
      for (int w = 0; w < 4; ++w) {
        walls.push_back({{rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)},
                         {rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)},
                         rng.uniform(0.0, 12.0)});
      }
      zones.push_back({{rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)},
                       rng.uniform(5.0, 60.0), rng.uniform(0.0, 20.0)});
    }
    const SignalModel model(SignalConfig{}, walls, zones, sim::Rng(seed));
    ASSERT_TRUE(model.attenuation_only());
    for (double cell : {0.0, 130.0}) {
      for (int k = 0; k < 40; ++k) {
        // Mobiles range past the layout on every side: some queries
        // straddle the grid's edge, some miss it.
        const Vec2 pos{rng.uniform(-300.0, 900.0), rng.uniform(-300.0, 900.0)};
        const std::uint32_t current =
            rng.chance(0.3) ? kNoWavePoint
                            : static_cast<std::uint32_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(sites.size()) -
                                         1));
        expect_same_scan(cell, sites, model, pos, current);
      }
      // Chosen currents, for mobiles inside the layout: a weaker candidate
      // than the strongest, a WavePoint outside the query's cells, none,
      // and the strongest itself.
      std::vector<Vec2> positions;
      for (const WavePointSite& site : sites) positions.push_back(site.pos);
      const CellIndex index(cell, positions);
      for (int k = 0; k < 20; ++k) {
        const Vec2 pos{rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)};
        std::vector<char> is_candidate(sites.size(), 0);
        std::uint32_t weakest = kNoWavePoint;
        double weakest_rx = HUGE_VAL;
        index.for_each_candidate(pos, 130.0, [&](std::uint32_t id) {
          is_candidate[id] = 1;
          const double rx =
              model.median_rx_dbm(sites[id].pos, sites[id].tx_dbm, pos);
          if (rx < weakest_rx) {
            weakest_rx = rx;
            weakest = id;
          }
        });
        const AssociationScan none =
            expect_same_scan(cell, sites, model, pos, kNoWavePoint);
        if (none.best != kNoWavePoint) {
          expect_same_scan(cell, sites, model, pos, none.best);
        }
        if (weakest != kNoWavePoint && weakest != none.best) {
          expect_same_scan(cell, sites, model, pos, weakest);
        }
        for (std::uint32_t id = 0; id < sites.size(); ++id) {
          if (!is_candidate[id]) {
            expect_same_scan(cell, sites, model, pos, id);
            break;
          }
        }
      }
    }
  }
}

TEST(AssociationScan, TiesKeepTheFirstCandidate) {
  const SignalModel model(SignalConfig{}, {}, {}, sim::Rng(1));
  for (double cell : {0.0, 130.0}) {
    SCOPED_TRACE(cell);
    // Two equidistant WavePoints of equal power: the first one wins.
    const std::vector<WavePointSite> pair = {{{100.0, 200.0}, 18.0},
                                             {{300.0, 200.0}, 18.0}};
    EXPECT_EQ(expect_same_scan(cell, pair, model, {200.0, 250.0}, 1).best,
              0u);
    // Within 1 m of both, path loss clamps to the 1 m reference: a tie at
    // equal power, the stronger transmitter otherwise.
    const std::vector<WavePointSite> close = {{{100.0, 100.0}, 18.0},
                                              {{100.5, 100.2}, 18.0},
                                              {{100.1, 100.6}, 12.0}};
    EXPECT_EQ(expect_same_scan(cell, close, model, {100.2, 100.1},
                               kNoWavePoint)
                  .best,
              0u);
    const std::vector<WavePointSite> mixed = {{{100.0, 100.0}, 12.0},
                                              {{100.5, 100.2}, 18.0}};
    EXPECT_EQ(expect_same_scan(cell, mixed, model, {100.2, 100.1}, 0).best,
              1u);
  }
}

TEST(AssociationScan, NegativeLossTurnsTheBoundOff) {
  // A -40 dB "wall" across the far WavePoint's path makes it the stronger
  // one.  The bound would have skipped it after the near one.
  const std::vector<Wall> walls = {{{50.0, -20.0}, {50.0, 20.0}, -40.0}};
  const SignalModel model(SignalConfig{}, walls, {}, sim::Rng(1));
  EXPECT_FALSE(model.attenuation_only());
  const std::vector<WavePointSite> sites = {{{10.0, 0.0}, 18.0},
                                            {{100.0, 0.0}, 18.0}};
  for (double cell : {0.0, 130.0}) {
    SCOPED_TRACE(cell);
    EXPECT_EQ(expect_same_scan(cell, sites, model, {0.0, 0.0}, 0).best, 1u);
  }
}

TEST(ShardedChannel, PollAllocatesNothingPerMobile) {
  // The campus poll runs once per 250 ms for every mobile.  Its own
  // allocations may come only from the reschedule and from handoffs (each
  // schedules a closure), never from the per-mobile scan.
  sim::perf::ensure_alloc_interposer();
  ASSERT_TRUE(sim::perf::alloc_interposer_active());
  scenarios::CampusConfig cfg;
  cfg.hosts = 400;
  cfg.horizon = sim::seconds(10);
  cfg.seed = 1234;
  sim::perf::PerfProfiler profiler;
  scenarios::CampusResult r;
  {
    sim::perf::PerfSession session(profiler);
    r = scenarios::run_campus(cfg);
  }
  ASSERT_TRUE(r.ok);
  const sim::perf::PerfSnapshot snap = sim::perf::capture_perf(profiler);
  const sim::perf::PerfPath* poll = nullptr;
  const sim::perf::PerfPath* query = nullptr;
  for (const sim::perf::PerfPath& p : snap.paths) {
    if (p.path == "event_loop;wireless.poll") poll = &p;
    if (p.path == "event_loop;wireless.poll;cell.query") query = &p;
  }
  ASSERT_NE(poll, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_LE(poll->self_allocs, 2 * poll->count + 2 * r.handoffs);
  // Quiet mobiles (paused walkers) skip the scan, query included.
  EXPECT_LT(query->count, poll->count * cfg.hosts);
}

}  // namespace
}  // namespace tracemod::wireless
