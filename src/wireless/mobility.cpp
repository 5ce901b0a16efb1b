#include "wireless/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "sim/assert.hpp"

namespace tracemod::wireless {

MobilityModel::MobilityModel(std::vector<Waypoint> waypoints) {
  TM_ASSERT(!waypoints.empty());
  sim::TimePoint t = sim::kEpoch;
  Vec2 prev = waypoints.front().pos;
  knots_.push_back(Knot{t, prev});
  checkpoints_.push_back(Checkpoint{waypoints.front().label, t, prev});
  if (waypoints.front().pause.count() > 0) {
    t += waypoints.front().pause;
    knots_.push_back(Knot{t, prev});
  }
  for (std::size_t i = 1; i < waypoints.size(); ++i) {
    const Waypoint& wp = waypoints[i];
    TM_ASSERT(wp.speed_mps > 0.0);
    const double d = distance(prev, wp.pos);
    const sim::Duration travel = sim::from_seconds(d / wp.speed_mps);
    widen_speed(d, travel);
    t += travel;
    knots_.push_back(Knot{t, wp.pos});
    checkpoints_.push_back(Checkpoint{wp.label, t, wp.pos});
    if (wp.pause.count() > 0) {
      t += wp.pause;
      knots_.push_back(Knot{t, wp.pos});
    }
    prev = wp.pos;
  }
  duration_ = t - sim::kEpoch;
}

void MobilityModel::widen_speed(double d, sim::Duration span) {
  if (span.count() == 0) {
    // Distinct positions at one instant: a jump no speed bounds.
    if (d > 0.0) max_speed_mps_ = HUGE_VAL;
    return;
  }
  // The span is the rounded travel time, so this can exceed the speed the
  // waypoint asked for.
  max_speed_mps_ = std::max(max_speed_mps_, d / sim::to_seconds(span));
}

MobilityModel::Leg MobilityModel::leg_at(sim::TimePoint t) const {
  const Knot& first = knots_.front();
  const Knot& last = knots_.back();
  if (t <= first.at) {
    return Leg{sim::TimePoint::min(), first.at, {}, first.pos, first.pos};
  }
  // From the last knot on, the path holds its last position, which need
  // not equal lerp(a, b, 1.0): the leg that reaches the last knot ends 1 ns
  // before it, and this one covers the knot's own instant.
  const sim::TimePoint tail = std::max(first.at, last.at - sim::nanoseconds(1));
  if (t >= last.at) {
    return Leg{tail, sim::TimePoint::max(), {}, last.pos, last.pos};
  }
  // Binary search for the first knot at or after t.  A zero-span leg
  // covers no instant, so it is never the one found.
  const auto it = std::lower_bound(
      knots_.begin() + 1, knots_.end(), t,
      [](const Knot& k, sim::TimePoint when) { return k.at < when; });
  const Knot& a = *(it - 1);
  const Knot& b = *it;
  return Leg{a.at, std::min(b.at, tail), b.at - a.at, a.pos, b.pos};
}

MobilityModel MobilityModel::stationary(Vec2 pos, sim::Duration dwell,
                                        const std::string& label) {
  return MobilityModel({Waypoint{label, pos, 1.0, dwell}});
}

MobilityModel MobilityModel::trace_replay(
    const std::vector<TracePoint>& points, const std::string& label_prefix) {
  TM_ASSERT(!points.empty());
  MobilityModel m;
  // Anchor at the epoch so the track is defined from t = 0 even when the
  // recording starts later.
  if (points.front().at > sim::kEpoch) {
    m.knots_.push_back(Knot{sim::kEpoch, points.front().pos});
  }
  sim::TimePoint prev_at = sim::kEpoch;
  for (std::size_t i = 0; i < points.size(); ++i) {
    TM_ASSERT(points[i].at >= prev_at);
    prev_at = points[i].at;
    if (!m.knots_.empty()) {
      const Knot& prev = m.knots_.back();
      m.widen_speed(distance(prev.pos, points[i].pos), points[i].at - prev.at);
    }
    m.knots_.push_back(Knot{points[i].at, points[i].pos});
    m.checkpoints_.push_back(Checkpoint{
        label_prefix + std::to_string(i), points[i].at, points[i].pos});
  }
  m.duration_ = points.back().at - sim::kEpoch;
  return m;
}

MobilityModel random_waypoint(const RandomWaypointConfig& cfg, sim::Rng& rng) {
  TM_ASSERT(cfg.area_max.x >= cfg.area_min.x);
  TM_ASSERT(cfg.area_max.y >= cfg.area_min.y);
  TM_ASSERT(cfg.speed_max_mps >= cfg.speed_min_mps);
  TM_ASSERT(cfg.speed_min_mps > 0.0);
  auto draw_point = [&] {
    // Fixed draw order (x then y) -- part of the determinism contract.
    const double x = rng.uniform(cfg.area_min.x, cfg.area_max.x);
    const double y = rng.uniform(cfg.area_min.y, cfg.area_max.y);
    return Vec2{x, y};
  };
  auto draw_pause = [&] {
    return sim::from_seconds(rng.uniform(sim::to_seconds(cfg.pause_min),
                                         sim::to_seconds(cfg.pause_max)));
  };
  std::vector<MobilityModel::Waypoint> wps;
  std::size_t n = 0;
  Vec2 prev = draw_point();
  sim::TimePoint t = sim::kEpoch;
  const sim::Duration pause0 = draw_pause();
  wps.push_back(MobilityModel::Waypoint{cfg.label_prefix + std::to_string(n++),
                                        prev, 1.0, pause0});
  t += pause0;
  while (t - sim::kEpoch < cfg.horizon) {
    const Vec2 next = draw_point();
    const double speed = rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps);
    const sim::Duration pause = draw_pause();
    t += sim::from_seconds(distance(prev, next) / speed) + pause;
    wps.push_back(MobilityModel::Waypoint{
        cfg.label_prefix + std::to_string(n++), next, speed, pause});
    prev = next;
    // A zero-area box with zero pauses never advances time; bail instead
    // of spinning (the path is stationary anyway).
    if (t == sim::kEpoch && wps.size() > 1) break;
  }
  return MobilityModel(std::move(wps));
}

std::size_t GroupMobility::add_member(Vec2 offset) {
  offsets_.push_back(offset);
  return offsets_.size() - 1;
}

void GroupMobility::add_ring(std::size_t count, double radius) {
  for (std::size_t i = 0; i < count; ++i) {
    const double theta =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) /
        static_cast<double>(count == 0 ? 1 : count);
    add_member(Vec2{radius * std::cos(theta), radius * std::sin(theta)});
  }
}

Vec2 GroupMobility::position(std::size_t member, sim::TimePoint t) const {
  TM_ASSERT(member < offsets_.size());
  return leader_.position(t) + offsets_[member];
}

}  // namespace tracemod::wireless
