// Checkpointed mobility paths and the campus mobility-model family.
//
// The paper's scenarios are traversals of labeled checkpoints (Porter x0-x6,
// Flagstaff y0-y9, Wean z0-z7).  A MobilityModel is a sequence of waypoints
// with walking speeds and pauses; it yields position as a function of time
// and the checkpoint schedule used for the figures' location axes.
//
// Every member of the family reduces to that one representation -- a
// piecewise-linear position track -- so the channel, devices, and traces
// never care which generator produced a path:
//   - random_waypoint() draws waypoints/speeds/pauses from an Rng into a
//     bounding box until a horizon is filled (the classic model; with a
//     degenerate box or zero horizon it collapses to stationary());
//   - GroupMobility superimposes fixed member offsets on one shared leader
//     track (leader/follower groups walking a campus together);
//   - MobilityModel::trace_replay() replays a recorded (time, position)
//     track verbatim, for paths captured from real traces.
#pragma once

#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "wireless/geometry.hpp"

namespace tracemod::wireless {

class MobilityModel {
 public:
  struct Waypoint {
    std::string label;      ///< checkpoint name, e.g. "x3"
    Vec2 pos;
    double speed_mps = 1.4; ///< speed of the leg *arriving* at this waypoint
    sim::Duration pause{};  ///< dwell time at this waypoint
  };

  struct Checkpoint {
    std::string label;
    sim::TimePoint at;  ///< arrival time
    Vec2 pos;
  };

  /// One piece of the position track, valid for begin < t <= end: it
  /// moves from a toward b over span, or holds b when span is zero (before
  /// the first knot, and from the last knot on).  position(t) is
  /// leg_at(t).at(t), so a caller that keeps a leg and evaluates it at any
  /// t it covers gets the bits position(t) returns.  A default leg covers
  /// nothing.
  struct Leg {
    sim::TimePoint begin = sim::TimePoint::max();  ///< exclusive
    sim::TimePoint end = sim::TimePoint::min();    ///< inclusive
    sim::Duration span{};  ///< from a's knot to b's; may outlast end
    Vec2 a;
    Vec2 b;

    bool covers(sim::TimePoint t) const { return begin < t && t <= end; }
    Vec2 at(sim::TimePoint t) const {
      if (span.count() == 0) return b;
      return lerp(a, b,
                  static_cast<double>((t - begin).count()) /
                      static_cast<double>(span.count()));
    }
  };

  /// Requires at least one waypoint; the first waypoint's speed is unused.
  explicit MobilityModel(std::vector<Waypoint> waypoints);

  /// Position at time t; clamps to the endpoints outside [0, duration].
  Vec2 position(sim::TimePoint t) const { return leg_at(t).at(t); }

  /// The leg covering t: a binary search over the knots.
  Leg leg_at(sim::TimePoint t) const;

  /// The fastest leg's speed, |b - a| / span over consecutive knots, in
  /// m/s: up to rounding, no two instants' positions are farther apart
  /// than this times the time between them.  HUGE_VAL when the path jumps
  /// (a zero-span leg between distinct positions); 0 when it never moves.
  double max_speed_mps() const { return max_speed_mps_; }

  /// Total traversal time (travel + pauses).
  sim::Duration duration() const { return duration_; }

  /// Checkpoint arrival schedule, in order.
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }

  /// A model that never moves (Chatterbox).
  static MobilityModel stationary(Vec2 pos, sim::Duration dwell,
                                  const std::string& label = "s0");

  /// Replays a recorded (time, position) track verbatim: the model passes
  /// through each sample at exactly its timestamp, linearly interpolating
  /// between samples.  Times must be non-decreasing from kEpoch.
  struct TracePoint {
    sim::TimePoint at;
    Vec2 pos;
  };
  static MobilityModel trace_replay(const std::vector<TracePoint>& points,
                                    const std::string& label_prefix = "t");

 private:
  MobilityModel() = default;  // for trace_replay

  struct Knot {
    sim::TimePoint at;
    Vec2 pos;
  };

  /// Raises max_speed_mps_ to a leg's speed: `d` metres in `span`.
  void widen_speed(double d, sim::Duration span);

  std::vector<Knot> knots_;  // piecewise-linear position track
  std::vector<Checkpoint> checkpoints_;
  sim::Duration duration_{};
  double max_speed_mps_ = 0.0;
};

/// Parameters for the random-waypoint generator.  Draw order per waypoint
/// is fixed (x, y, speed, pause) so a path is a pure function of the seed.
struct RandomWaypointConfig {
  Vec2 area_min{0.0, 0.0};  ///< bounding box of the walkable area
  Vec2 area_max{100.0, 100.0};
  double speed_min_mps = 0.7;  ///< slow stroll
  double speed_max_mps = 2.0;  ///< brisk walk
  sim::Duration pause_min{};
  sim::Duration pause_max = sim::seconds(30);
  /// Waypoints are appended until the path's duration covers the horizon.
  sim::Duration horizon = sim::seconds(600);
  std::string label_prefix = "rw";
};

/// The classic random-waypoint model: pick a uniform point in the box, walk
/// to it at a uniform speed, pause, repeat until the horizon is filled.
/// A zero-size box or zero horizon degenerates to a stationary model.
MobilityModel random_waypoint(const RandomWaypointConfig& cfg, sim::Rng& rng);

/// Group mobility by leader/offset superposition (the INET-style reference
/// point group model): one shared leader track, and each member rides at a
/// fixed offset from the leader's current position.  Offsets are constant,
/// so intra-group geometry is rigid -- a tour group crossing the campus.
class GroupMobility {
 public:
  explicit GroupMobility(MobilityModel leader) : leader_(std::move(leader)) {}

  /// Adds a member at the given offset from the leader; returns its index.
  std::size_t add_member(Vec2 offset);

  /// Adds `count` members on a deterministic ring of the given radius
  /// around the leader (evenly spaced; no RNG involved).
  void add_ring(std::size_t count, double radius);

  Vec2 position(std::size_t member, sim::TimePoint t) const;

  /// Members ride rigidly with the leader, so they share its bound.
  double max_speed_mps() const { return leader_.max_speed_mps(); }

  std::size_t members() const { return offsets_.size(); }
  const MobilityModel& leader() const { return leader_; }
  Vec2 offset(std::size_t member) const { return offsets_[member]; }

 private:
  MobilityModel leader_;
  std::vector<Vec2> offsets_;
};

}  // namespace tracemod::wireless
