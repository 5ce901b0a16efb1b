// Packet flight recorder: per-packet lifecycle events in virtual time.
//
// Hook points across the stack (wireless tx, ethernet serialization, IP
// forward, modulation delay queue, transport deliver) record begin/end/
// instant/counter events onto named tracks.  A track is a (node, layer)
// pair -- e.g. ("mobile", "modulation") -- and maps to one timeline in the
// exported Chrome trace-event JSON (one process per node, one thread per
// layer), so a packet's journey reads top-to-bottom in ui.perfetto.dev.
//
// Recording never schedules events, draws randomness, or blocks: enabling
// the recorder cannot perturb a simulation's behaviour, only observe it.
// Timestamps are explicit, so a hook may record a span whose endpoints lie
// in the (virtual) future -- e.g. the bottleneck-serialization window is
// known the moment a packet enqueues; the exporter sorts by time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tracemod::sim {

/// Index into the recorder's track table.  0 is "no track" (disabled).
using TrackId = std::uint32_t;
inline constexpr TrackId kNoTrack = 0;

/// One timeline: a node (exported as a process) and a layer within it
/// (exported as a thread).
struct Track {
  std::string node;
  std::string layer;
};

/// One recorded event.  A kBegin/kEnd pair with the same (track, name, id)
/// brackets a span; the id is the packet id, correlating one packet's
/// spans across layers.  kCounter events chart `value` over time.
struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd, kInstant, kCounter };
  Phase phase{};
  TrackId track = kNoTrack;
  const char* name = "";  ///< static string; hook sites pass literals
  std::uint64_t id = 0;   ///< packet id; 0 for unkeyed events
  TimePoint at{};
  double value = 0.0;  ///< counter value or span payload (e.g. bytes)
};

/// Bounded append-only event buffer plus the track table.  Once the buffer
/// reaches max_events further events are counted as dropped rather than
/// recorded, so a runaway scenario degrades to truncated output instead of
/// unbounded memory.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t max_events) : max_events_(max_events) {}

  /// Returns the track for a node/layer pair, creating it on first use.
  /// Ids are assigned in registration order, so a deterministic simulation
  /// yields a deterministic track table.
  TrackId track(const std::string& node, const std::string& layer);

  void begin(TrackId t, const char* name, std::uint64_t id, TimePoint at,
             double value = 0.0) {
    push({TraceEvent::Phase::kBegin, t, name, id, at, value});
  }
  void end(TrackId t, const char* name, std::uint64_t id, TimePoint at) {
    push({TraceEvent::Phase::kEnd, t, name, id, at, 0.0});
  }
  void instant(TrackId t, const char* name, std::uint64_t id, TimePoint at,
               double value = 0.0) {
    push({TraceEvent::Phase::kInstant, t, name, id, at, value});
  }
  void counter(TrackId t, const char* name, TimePoint at, double value) {
    push({TraceEvent::Phase::kCounter, t, name, 0, at, value});
  }

  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void push(TraceEvent e) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::size_t max_events_;
  std::vector<Track> tracks_;  // TrackId i names tracks_[i - 1]
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Writes the comma-separated Chrome trace-event objects for one recorder's
/// events (metadata events naming each track, then the events sorted by
/// timestamp).  Process ids start at pid_base + 1 and node names are
/// prefixed with `label/` when label is non-empty, so several simulations
/// can share one traceEvents array.  Emits a leading comma when
/// `continuation` is true.  Timestamps are virtual-time microseconds.
void write_chrome_trace_events(std::ostream& out,
                               const std::vector<Track>& tracks,
                               const std::vector<TraceEvent>& events,
                               const std::string& label = "", int pid_base = 0,
                               bool continuation = false);

}  // namespace tracemod::sim
