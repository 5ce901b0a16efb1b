// The observability subsystem: flight recorder + metrics + exporters.
//
// One Telemetry lives inside each SimContext.  It is disabled by default
// and costs a single predicted branch per hook point when disabled (hook
// sites pre-resolve the handle and guard with `if (!tel.enabled()) ...`),
// so default experiment outputs stay bit-identical with the subsystem
// compiled in.  Enabling it (SimContext's TelemetryConfig constructor arg)
// turns on:
//   - the packet flight recorder (sim/trace_event.hpp): per-packet
//     lifecycle spans across wireless / ethernet / IP / modulation /
//     transport, in virtual time;
//   - richer metrics: named histograms and sim-time-sampled series in the
//     context's MetricsRegistry (delay-queue depth, bottleneck backlog,
//     replay-buffer fill, end-to-end latency).
// Everything it records is in virtual time; which handlers ran and what
// they cost on the host is the wall-clock perf plane's (sim/perf/).
//
// A finished run is captured into a TelemetrySnapshot -- a plain value
// that can cross threads -- and exported as Chrome trace-event JSON (loads
// in ui.perfetto.dev / chrome://tracing), a Prometheus-style text dump, or
// a human-readable report, whose per-handler dispatch lines come from a
// perf-plane snapshot of the same run.  Each experiment's sink is isolated
// by construction (one Telemetry per SimContext); merged exports take
// labelled snapshots in caller-chosen (trial) order, so parallel and
// serial runs merge identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/trace_event.hpp"

namespace tracemod::sim {

class SimContext;
namespace perf {
struct PerfSnapshot;
}

struct TelemetryConfig {
  bool enabled = false;
  /// Flight-recorder cap; events beyond it are counted, not stored.
  std::size_t max_events = 1u << 20;
  /// End-to-end latency histogram shape (milliseconds).
  double e2e_hist_lo_ms = 0.0;
  double e2e_hist_hi_ms = 2000.0;
  std::size_t e2e_hist_bins = 40;
};

class Telemetry {
 public:
  /// The one guard every hook point checks.  False by default; recording
  /// calls must not be made while disabled.
  bool enabled() const { return enabled_; }

  const TelemetryConfig& config() const { return cfg_; }

  /// The flight recorder.  Valid only while enabled().
  FlightRecorder& recorder() { return *recorder_; }
  const FlightRecorder& recorder() const { return *recorder_; }

  /// Registers (or looks up) a track; returns kNoTrack while disabled, so
  /// constructors may resolve track handles unconditionally.
  TrackId track(const std::string& node, const std::string& layer) {
    return enabled_ ? recorder_->track(node, layer) : kNoTrack;
  }

 private:
  friend class SimContext;
  void enable(const TelemetryConfig& cfg) {
    cfg_ = cfg;
    if (!cfg.enabled) return;
    enabled_ = true;
    recorder_ = std::make_unique<FlightRecorder>(cfg.max_events);
  }

  bool enabled_ = false;
  TelemetryConfig cfg_;
  std::unique_ptr<FlightRecorder> recorder_;
};

/// Everything observable in virtual time from one finished simulation, as
/// a plain value: the flight-recorder contents, the metrics registry
/// (counters, histograms, series), and the event loop's dispatch count
/// and queue high water.  Snapshots are taken per experiment and merged
/// deterministically by the exporters below.
struct TelemetrySnapshot {
  std::vector<Track> tracks;
  std::vector<TraceEvent> events;
  std::uint64_t events_dropped = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, Histogram>> histograms;
  std::vector<std::pair<std::string, TimeSeries>> series;
  std::uint64_t dispatched = 0;
  std::size_t queue_high_water = 0;

  /// Number of distinct layer names across all tracks.
  std::size_t distinct_layers() const;
};

/// Copies the context's telemetry state into a snapshot.  Cheap relative
/// to a simulation; call once after the run completes.
TelemetrySnapshot capture_telemetry(const SimContext& ctx);

/// A snapshot tagged with the experiment it came from ("trial3", ...).
struct LabeledTelemetry {
  std::string label;
  std::shared_ptr<const TelemetrySnapshot> snapshot;
};

/// Chrome trace-event JSON for one snapshot or a merged set.  Each
/// snapshot's nodes become processes (offset so labels never collide);
/// tracks become named threads; timestamps are virtual-time microseconds.
void write_chrome_trace(std::ostream& out, const TelemetrySnapshot& snap);
void write_chrome_trace(std::ostream& out,
                        const std::vector<LabeledTelemetry>& snaps);

/// Prometheus-style text dump: counters, histogram buckets (cumulative,
/// `le` labels), and series summarized as gauges.  Deterministic for a
/// deterministic simulation (no wall-clock content).
void write_metrics_text(std::ostream& out, const TelemetrySnapshot& snap,
                        const std::string& label = "");
void write_metrics_text(std::ostream& out,
                        const std::vector<LabeledTelemetry>& snaps);

/// Human-readable report: flight-recorder summary, series channels,
/// histograms, counters, and the event loop.  One line per handler tag
/// comes from the event_loop root scopes of `dispatch`, the perf-plane
/// snapshot of the same run: its count, and its whole handler time only
/// when include_wall_time is set, so tests can pin the deterministic text.
void write_report(std::ostream& out, const TelemetrySnapshot& snap,
                  const perf::PerfSnapshot& dispatch,
                  bool include_wall_time = true);

}  // namespace tracemod::sim
