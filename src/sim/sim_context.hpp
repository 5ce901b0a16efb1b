// The per-simulation world: one SimContext per simulated universe.
//
// Everything mutable that a simulation needs -- virtual time, the root
// random stream, the packet-id counter, metrics -- lives here rather than
// in process globals.  That makes two properties structural instead of
// accidental:
//   - isolation: any number of simulations can run concurrently in one
//     process (one SimContext per thread/task) without sharing state;
//   - determinism: a simulation's behaviour is a pure function of its seed
//     and inputs, bit-identical regardless of what else the process runs.
// Components receive a SimContext& (or just its EventLoop&) from whoever
// builds the world; nothing reaches for a global.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/perf/alloc_telemetry.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace tracemod::sim {

/// Named metric channels scoped to one simulation: monotonic counters,
/// histograms, and sim-time-sampled series.  References are stable for the
/// registry's lifetime (node-based maps), so hot paths can cache the
/// reference once and record without a lookup.  Registration is
/// idempotent: re-registering an existing name returns the same channel
/// (histogram shape arguments are ignored on the second call).
class MetricsRegistry {
 public:
  /// Returns the counter with the given name, creating it at zero.
  std::uint64_t& counter(const std::string& name);

  /// Current value, or 0 for a counter that was never touched.
  std::uint64_t value(const std::string& name) const;

  /// All counters in name order (for reports and tests).
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// Returns the named histogram, creating it with the given shape.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  /// Returns the named time series, creating it empty.
  TimeSeries& series(const std::string& name);

  /// Lookup without creation; nullptr when absent.
  const Histogram* find_histogram(const std::string& name) const;
  const TimeSeries* find_series(const std::string& name) const;

  /// All channels in name order (for exporters and tests).
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, TimeSeries>& series_channels() const {
    return series_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
};

class SimContext {
 public:
  explicit SimContext(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {
    // Anchors the allocation-telemetry interposer (sim/perf/) into every
    // binary that simulates anything; costs one no-op call.
    perf::ensure_alloc_interposer();
  }

  /// Builds a world with telemetry configured up front, so every component
  /// constructed against this context can resolve its track handles in its
  /// constructor.  When cfg.enabled is false this is identical to
  /// SimContext(seed).
  SimContext(std::uint64_t seed, const TelemetryConfig& cfg)
      : seed_(seed), rng_(seed) {
    perf::ensure_alloc_interposer();
    telemetry_.enable(cfg);
  }

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The seed this world was built from.
  std::uint64_t seed() const { return seed_; }

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

  /// The root random stream.  World builders draw sub-seeds and fork
  /// per-subsystem streams from it in a fixed order.
  Rng& rng() { return rng_; }

  /// Derives an independent child stream from the root.
  Rng fork_rng() { return rng_.fork(); }

  /// Packet ids, unique within this context (trace correlation and
  /// diagnostics).  Ids are dense from 1 in stamping order, so a context's
  /// id sequence is deterministic however many sibling contexts exist.
  std::uint64_t next_packet_id() { return next_packet_id_++; }
  std::uint64_t packet_ids_issued() const { return next_packet_id_ - 1; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The context's observability sink (disabled by default; see
  /// sim/telemetry.hpp).  Components record through this; the runner
  /// captures it into a TelemetrySnapshot when the simulation ends.
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }

 private:
  std::uint64_t seed_;
  EventLoop loop_;
  Rng rng_;
  std::uint64_t next_packet_id_ = 1;
  MetricsRegistry metrics_;
  Telemetry telemetry_;
};

}  // namespace tracemod::sim
