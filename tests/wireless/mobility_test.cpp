#include "wireless/mobility.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace tracemod::wireless {
namespace {

std::pair<std::uint64_t, std::uint64_t> bits(Vec2 p) {
  return {std::bit_cast<std::uint64_t>(p.x), std::bit_cast<std::uint64_t>(p.y)};
}

MobilityModel simple_path() {
  // 10 m at 2 m/s, pause 3 s, then 20 m at 2 m/s.
  return MobilityModel({
      MobilityModel::Waypoint{"a", {0, 0}, 1.0, {}},
      MobilityModel::Waypoint{"b", {10, 0}, 2.0, sim::seconds(3)},
      MobilityModel::Waypoint{"c", {10, 20}, 2.0, {}},
  });
}

TEST(Mobility, DurationSumsTravelAndPauses) {
  const auto m = simple_path();
  EXPECT_NEAR(sim::to_seconds(m.duration()), 5.0 + 3.0 + 10.0, 1e-9);
}

TEST(Mobility, PositionInterpolatesAlongLegs) {
  const auto m = simple_path();
  EXPECT_EQ(m.position(sim::kEpoch), (Vec2{0, 0}));
  // Halfway through the first leg (t = 2.5 s of 5 s).
  const Vec2 mid = m.position(sim::kEpoch + sim::milliseconds(2500));
  EXPECT_NEAR(mid.x, 5.0, 1e-9);
  EXPECT_NEAR(mid.y, 0.0, 1e-9);
}

TEST(Mobility, PausesHoldPosition) {
  const auto m = simple_path();
  // During the pause at b (t in [5, 8]).
  for (double t : {5.1, 6.5, 7.9}) {
    const Vec2 p = m.position(sim::kEpoch + sim::from_seconds(t));
    EXPECT_NEAR(p.x, 10.0, 1e-9);
    EXPECT_NEAR(p.y, 0.0, 1e-9);
  }
}

TEST(Mobility, ClampsOutsideTheSchedule) {
  const auto m = simple_path();
  EXPECT_EQ(m.position(sim::kEpoch - sim::seconds(5)), (Vec2{0, 0}));
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(100)), (Vec2{10, 20}));
}

TEST(Mobility, CheckpointsCarryLabelsAndArrivalTimes) {
  const auto m = simple_path();
  const auto& cps = m.checkpoints();
  ASSERT_EQ(cps.size(), 3u);
  EXPECT_EQ(cps[0].label, "a");
  EXPECT_EQ(cps[1].label, "b");
  EXPECT_NEAR(sim::to_seconds(cps[1].at), 5.0, 1e-9);
  // c's arrival includes b's pause.
  EXPECT_NEAR(sim::to_seconds(cps[2].at), 5.0 + 3.0 + 10.0, 1e-9);
}

TEST(Mobility, InitialPauseDelaysDeparture) {
  MobilityModel m({
      MobilityModel::Waypoint{"a", {0, 0}, 1.0, sim::seconds(10)},
      MobilityModel::Waypoint{"b", {10, 0}, 1.0, {}},
  });
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(9)), (Vec2{0, 0}));
  const Vec2 p = m.position(sim::kEpoch + sim::seconds(15));
  EXPECT_NEAR(p.x, 5.0, 1e-9);
}

TEST(Mobility, StationaryModelNeverMoves) {
  const auto m = MobilityModel::stationary({3, 4}, sim::seconds(60), "s0");
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(30)), (Vec2{3, 4}));
  EXPECT_EQ(m.duration(), sim::seconds(60));
  EXPECT_EQ(m.checkpoints()[0].label, "s0");
}

TEST(Mobility, ContinuityEverywhere) {
  // Position must never jump: sample densely, bound the step size.
  const auto m = simple_path();
  Vec2 prev = m.position(sim::kEpoch);
  for (int i = 1; i <= 1800; ++i) {
    const Vec2 p = m.position(sim::kEpoch + sim::milliseconds(10 * i));
    EXPECT_LT(distance(prev, p), 0.05);  // 2 m/s * 10 ms = 0.02 m
    prev = p;
  }
}

RandomWaypointConfig golden_cfg() {
  RandomWaypointConfig cfg;
  cfg.area_min = {0, 0};
  cfg.area_max = {300, 200};
  cfg.speed_min_mps = 0.8;
  cfg.speed_max_mps = 1.8;
  cfg.pause_min = sim::seconds(1);
  cfg.pause_max = sim::seconds(5);
  cfg.horizon = sim::seconds(120);
  cfg.label_prefix = "g";
  return cfg;
}

TEST(RandomWaypoint, PositionGoldensUnderFixedSeed) {
  // Pinned against the fixed draw order (x, y, speed, pause).  Any change
  // to the generator's rng consumption shows up here before it silently
  // perturbs a campus run.
  sim::Rng rng(12345);
  const MobilityModel m = random_waypoint(golden_cfg(), rng);
  EXPECT_NEAR(sim::to_seconds(m.duration()), 284.40905045100004, 1e-9);
  const struct {
    double t, x, y;
  } golden[] = {
      {0.0, 223.1424489469768, 26.009106925566904},
      {10.0, 219.27869382706442, 27.583707420377603},
      {30.0, 204.26408785957742, 33.702626775269039},
      {60.0, 181.74217890834692, 42.881005807606186},
      {90.0, 159.22026995711639, 52.059384839943334},
      {120.0, 136.69836100588589, 61.237763872280489},
  };
  for (const auto& g : golden) {
    const Vec2 p = m.position(sim::kEpoch + sim::from_seconds(g.t));
    EXPECT_NEAR(p.x, g.x, 1e-9) << "t=" << g.t;
    EXPECT_NEAR(p.y, g.y, 1e-9) << "t=" << g.t;
  }
}

TEST(RandomWaypoint, StaysInsideTheArea) {
  sim::Rng rng(7);
  RandomWaypointConfig cfg = golden_cfg();
  cfg.horizon = sim::seconds(3600);
  const MobilityModel m = random_waypoint(cfg, rng);
  for (int i = 0; i <= 720; ++i) {
    const Vec2 p = m.position(sim::kEpoch + sim::seconds(5 * i));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 300.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 200.0);
  }
}

TEST(RandomWaypoint, ZeroHorizonDegeneratesToStationary) {
  // With no horizon to fill, the generator emits the initial waypoint
  // only -- the path must behave exactly like MobilityModel::stationary
  // at the drawn point.
  sim::Rng rng(42);
  RandomWaypointConfig cfg = golden_cfg();
  cfg.horizon = {};
  const MobilityModel m = random_waypoint(cfg, rng);
  ASSERT_EQ(m.checkpoints().size(), 1u);
  const Vec2 home = m.checkpoints()[0].pos;
  const MobilityModel still =
      MobilityModel::stationary(home, m.duration(), "x");
  for (double t : {0.0, 1.0, 100.0, 10000.0}) {
    const sim::TimePoint at = sim::kEpoch + sim::from_seconds(t);
    EXPECT_EQ(m.position(at), still.position(at)) << "t=" << t;
    EXPECT_EQ(m.position(at), home);
  }
  EXPECT_EQ(m.duration(), still.duration());
}

TEST(RandomWaypoint, SameSeedSamePathDifferentSeedDifferentPath) {
  sim::Rng a(5), b(5), c(6);
  const MobilityModel ma = random_waypoint(golden_cfg(), a);
  const MobilityModel mb = random_waypoint(golden_cfg(), b);
  const MobilityModel mc = random_waypoint(golden_cfg(), c);
  const sim::TimePoint at = sim::kEpoch + sim::seconds(47);
  EXPECT_EQ(ma.position(at), mb.position(at));
  EXPECT_NE(ma.position(at), mc.position(at));
}

TEST(GroupMobility, MembersTrackTheLeaderAtRigidOffsets) {
  // Golden walk for a 4-member group (leader + center member + 3-ring)
  // under a fixed seed: every member is the leader plus its offset at
  // every instant.
  sim::Rng rng(999);
  RandomWaypointConfig cfg = golden_cfg();
  cfg.horizon = sim::seconds(60);
  GroupMobility grp(random_waypoint(cfg, rng));
  EXPECT_EQ(grp.add_member({0, 0}), 0u);
  grp.add_ring(3, 2.5);
  ASSERT_EQ(grp.members(), 4u);

  const struct {
    double t;
    std::size_t k;
    double x, y;
  } golden[] = {
      {0.0, 0, 25.755252857758528, 79.621263577183086},
      {0.0, 1, 28.255252857758528, 79.621263577183086},
      {0.0, 2, 24.505252857758528, 81.786327086644178},
      {0.0, 3, 24.505252857758528, 77.456200067721994},
      {20.0, 0, 41.830690158181454, 64.427051145345573},
      {20.0, 1, 44.330690158181454, 64.427051145345573},
      {20.0, 2, 40.580690158181454, 66.592114654806664},
      {20.0, 3, 40.580690158181454, 62.261987635884473},
      {45.0, 0, 66.438198015844563, 41.168480020962704},
      {45.0, 1, 68.938198015844563, 41.168480020962704},
      {45.0, 2, 65.188198015844563, 43.333543530423803},
      {45.0, 3, 65.188198015844563, 39.003416511501605},
  };
  for (const auto& g : golden) {
    const Vec2 p = grp.position(g.k, sim::kEpoch + sim::from_seconds(g.t));
    EXPECT_NEAR(p.x, g.x, 1e-9) << "t=" << g.t << " k=" << g.k;
    EXPECT_NEAR(p.y, g.y, 1e-9) << "t=" << g.t << " k=" << g.k;
  }

  // Rigid formation: pairwise spacing is time-invariant.
  const sim::TimePoint t0 = sim::kEpoch;
  const sim::TimePoint t1 = sim::kEpoch + sim::seconds(33);
  for (std::size_t k = 1; k < grp.members(); ++k) {
    EXPECT_NEAR(distance(grp.position(0, t0), grp.position(k, t0)),
                distance(grp.position(0, t1), grp.position(k, t1)), 1e-12);
  }
}

TEST(TraceReplay, HitsRecordedSamplesExactly) {
  const MobilityModel m = MobilityModel::trace_replay(
      {
          {sim::kEpoch + sim::seconds(2), {10, 20}},
          {sim::kEpoch + sim::seconds(6), {30, 20}},
          {sim::kEpoch + sim::seconds(7), {30, 25}},
      },
      "t");
  // Recorded samples reproduce verbatim.
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(2)), (Vec2{10, 20}));
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(6)), (Vec2{30, 20}));
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(7)), (Vec2{30, 25}));
  // Anchored at the epoch before the first sample.
  EXPECT_EQ(m.position(sim::kEpoch), (Vec2{10, 20}));
  // Linear between samples, clamped after the last.
  const Vec2 mid = m.position(sim::kEpoch + sim::seconds(4));
  EXPECT_NEAR(mid.x, 20.0, 1e-9);
  EXPECT_NEAR(mid.y, 20.0, 1e-9);
  EXPECT_EQ(m.position(sim::kEpoch + sim::seconds(60)), (Vec2{30, 25}));
  EXPECT_EQ(m.duration(), sim::seconds(7));
  ASSERT_EQ(m.checkpoints().size(), 3u);
  EXPECT_EQ(m.checkpoints()[0].label, "t0");
  EXPECT_EQ(m.checkpoints()[2].label, "t2");
}

/// Instants that probe a path's leg boundaries: every leg's end (found by
/// walking the legs) and each checkpoint, each at -1, 0 and +1 ns; before
/// the start, after the end, and random times.  Shuffled, so a cached leg
/// is asked for times in no particular order.
std::vector<sim::TimePoint> probe_times(const MobilityModel& m,
                                        sim::Rng& rng) {
  std::vector<sim::TimePoint> knots;
  MobilityModel::Leg leg = m.leg_at(sim::kEpoch - sim::seconds(1));
  for (int i = 0; i < 10000 && leg.end != sim::TimePoint::max(); ++i) {
    knots.push_back(leg.end);
    leg = m.leg_at(leg.end + sim::nanoseconds(1));
  }
  for (const MobilityModel::Checkpoint& cp : m.checkpoints()) {
    knots.push_back(cp.at);
  }
  std::vector<sim::TimePoint> times;
  for (sim::TimePoint k : knots) {
    for (int ns : {-1, 0, 1}) times.push_back(k + sim::nanoseconds(ns));
  }
  const sim::TimePoint end = sim::kEpoch + m.duration();
  times.push_back(sim::kEpoch - sim::seconds(3600));
  times.push_back(end + sim::seconds(3600));
  times.push_back(sim::TimePoint::max());
  for (int i = 0; i < 400; ++i) {
    times.push_back(sim::kEpoch +
                    sim::from_seconds(rng.uniform(
                        -10.0, sim::to_seconds(m.duration()) + 10.0)));
  }
  for (std::size_t i = times.size() - 1; i > 0; --i) {
    std::swap(times[i], times[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  }
  return times;
}

/// A kept leg, refilled only when it does not cover t, returns
/// position(t)'s bits at every probe.
void expect_cached_legs_match(const MobilityModel& m, sim::Rng& rng) {
  MobilityModel::Leg cached;
  int refills = 0;
  for (sim::TimePoint t : probe_times(m, rng)) {
    SCOPED_TRACE(t.time_since_epoch().count());
    const MobilityModel::Leg fresh = m.leg_at(t);
    ASSERT_TRUE(fresh.covers(t));
    if (!cached.covers(t)) {
      cached = fresh;
      ++refills;
    }
    EXPECT_EQ(bits(cached.at(t)), bits(m.position(t)));
    EXPECT_EQ(bits(fresh.at(t)), bits(m.position(t)));
  }
  EXPECT_GT(refills, 0);
}

/// The seed's MobilityModel::position over an explicit knot list: the
/// reference the leg lookup must reproduce bit for bit.
Vec2 seed_position(const std::vector<MobilityModel::TracePoint>& knots,
                   sim::TimePoint t) {
  if (t <= knots.front().at) return knots.front().pos;
  if (t >= knots.back().at) return knots.back().pos;
  const auto it = std::lower_bound(
      knots.begin() + 1, knots.end(), t,
      [](const MobilityModel::TracePoint& k, sim::TimePoint when) {
        return k.at < when;
      });
  const auto& a = *(it - 1);
  const auto& b = *it;
  const auto span = b.at - a.at;
  if (span.count() == 0) return b.pos;
  return lerp(a.pos, b.pos,
              static_cast<double>((t - a.at).count()) /
                  static_cast<double>(span.count()));
}

/// A recorded track with repeated timestamps: a jump at 6 s and another
/// at the last sample, whose position holds from there on.
std::vector<MobilityModel::TracePoint> jumpy_track() {
  const sim::TimePoint t0 = sim::kEpoch;
  return {{t0 + sim::seconds(2), {10.1, 20.3}},
          {t0 + sim::seconds(6), {30.7, 20.9}},
          {t0 + sim::seconds(6), {31.3, 21.1}},
          {t0 + sim::milliseconds(7300), {30.2, 25.9}},
          {t0 + sim::milliseconds(9100), {17.3, 4.4}},
          {t0 + sim::milliseconds(9100), {40.6, 25.2}}};
}

TEST(Mobility, CachedLegsReturnTheFreshBits) {
  sim::Rng rng(2024);
  {
    SCOPED_TRACE("random waypoint");
    sim::Rng path_rng(31);
    expect_cached_legs_match(random_waypoint(golden_cfg(), path_rng), rng);
  }
  {
    SCOPED_TRACE("trace replay");
    std::vector<MobilityModel::TracePoint> track = jumpy_track();
    const MobilityModel m = MobilityModel::trace_replay(track);
    expect_cached_legs_match(m, rng);
    // And the bits are the seed's: the knots are the samples, anchored at
    // the epoch.  At the last sample the track holds that sample, not the
    // interpolation that reaches it.
    track.insert(track.begin(),
                 MobilityModel::TracePoint{sim::kEpoch, track.front().pos});
    for (sim::TimePoint t : probe_times(m, rng)) {
      EXPECT_EQ(bits(m.position(t)), bits(seed_position(track, t)))
          << t.time_since_epoch().count();
    }
    EXPECT_EQ(bits(m.position(track.back().at)), bits(track.back().pos));
  }
  {
    SCOPED_TRACE("stationary");
    expect_cached_legs_match(
        MobilityModel::stationary({3.25, -0.0}, sim::seconds(60)), rng);
  }
}

TEST(Mobility, MaxSpeedBoundsEveryDisplacement) {
  // Every pair of instants, near or far, same leg or not: the path moves
  // no farther than its bound times the time between them.
  auto expect_bounded = [](auto&& position, double v, double horizon_s,
                           sim::Rng& rng) {
    for (int i = 0; i < 3000; ++i) {
      const sim::TimePoint t1 =
          sim::kEpoch + sim::from_seconds(rng.uniform(-1.0, horizon_s + 1.0));
      const sim::Duration dt =
          i % 3 == 0 ? sim::nanoseconds(rng.uniform_int(1, 1000))
                     : sim::from_seconds(rng.uniform(0.0, horizon_s / 4));
      const double moved = distance(position(t1), position(t1 + dt));
      ASSERT_LE(moved, v * sim::to_seconds(dt) * (1.0 + 1e-9) + 1e-9)
          << "t1=" << sim::to_seconds(t1) << " dt=" << sim::to_seconds(dt);
    }
  };
  sim::Rng rng(77);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng path_rng(seed);
    RandomWaypointConfig cfg = golden_cfg();
    cfg.pause_min = {};
    const MobilityModel m = random_waypoint(cfg, path_rng);
    const double v = m.max_speed_mps();
    // Each leg's span is its travel time truncated to the nanosecond, so
    // the bound may pass the fastest drawn speed by a hair, never more.
    EXPECT_GE(v, cfg.speed_min_mps);
    EXPECT_LE(v, cfg.speed_max_mps * (1.0 + 1e-6));
    const double horizon = sim::to_seconds(m.duration());
    expect_bounded([&m](sim::TimePoint t) { return m.position(t); }, v,
                   horizon, rng);
    GroupMobility group(m);
    group.add_ring(3, 2.5);
    EXPECT_EQ(group.max_speed_mps(), v);
    expect_bounded([&group](sim::TimePoint t) { return group.position(2, t); },
                   v, horizon, rng);
  }
  // A waypoint path whose legs are walked at known speeds.
  EXPECT_NEAR(simple_path().max_speed_mps(), 2.0, 1e-9);
  // A replayed track: its fastest leg, or HUGE_VAL once it jumps.
  std::vector<MobilityModel::TracePoint> track = jumpy_track();
  const MobilityModel jumpy = MobilityModel::trace_replay(track);
  EXPECT_EQ(jumpy.max_speed_mps(), HUGE_VAL);
  track.erase(track.begin() + 2);  // the jump at 6 s
  track.pop_back();                // the jump at 9.1 s
  const MobilityModel smooth = MobilityModel::trace_replay(track);
  EXPECT_LT(smooth.max_speed_mps(), HUGE_VAL);
  EXPECT_GT(smooth.max_speed_mps(), 0.0);
  expect_bounded([&smooth](sim::TimePoint t) { return smooth.position(t); },
                 smooth.max_speed_mps(), 10.0, rng);
  // Standing still: zero.
  EXPECT_EQ(MobilityModel::stationary({1, 2}, sim::seconds(5)).max_speed_mps(),
            0.0);
}

}  // namespace
}  // namespace tracemod::wireless
