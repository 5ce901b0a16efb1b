// The in-kernel modulation layer (paper Section 3.3).
//
// Sits between IP and the link layer on the host under test and subjects
// every inbound and outbound packet to the delays and drops of the current
// quality tuple:
//   - a single unified delay queue: both directions serialize through the
//     same emulated bottleneck (per-byte cost Vb), so they interfere with
//     each other exactly as on the real path;
//   - latency F and residual per-byte cost Vr add delay but never queue;
//   - each packet is dropped with probability L -- after it has passed
//     through the bottleneck queue, as in the paper;
//   - releases are scheduled on clock ticks (default 10 ms): the release
//     time rounds to the nearest tick, and delays under half a tick send
//     immediately (the artifact behind the Andrew-benchmark divergence,
//     Section 5.4);
//   - delay compensation: the long-term mean bottleneck per-byte cost of
//     the *physical* modulation network is subtracted from Vb for inbound
//     packets (Figure 1).
#pragma once

#include <memory>
#include <string>

#include "core/replay_device.hpp"
#include "net/device.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/telemetry.hpp"
#include "sim/tick_clock.hpp"

namespace tracemod::sim {
class SimContext;
}

namespace tracemod::core {

struct ModulationConfig {
  /// Clock-interrupt resolution for release scheduling; 0 = ideal clock.
  sim::Duration tick = sim::milliseconds(10);
  /// The endpoint-placement artifact of the paper's kernel implementation:
  /// inbound packets have already been serialized by the *physical*
  /// modulating network when the delay queue charges them the full
  /// emulated bottleneck cost, so uncompensated inbound traffic pays both
  /// (Figure 1's uncompensated fetch curve).  This is that physical
  /// per-byte cost; the Emulator sets it from its Ethernet configuration.
  double inbound_physical_vb = 0.0;
  /// Compensation (Section 3.3): the measured long-term mean bottleneck
  /// per-byte cost of the physical network, subtracted from the effective
  /// inbound Vb.  0 disables compensation.
  double inbound_vb_compensation = 0.0;
  std::uint64_t drop_seed = 0x7ace;
};

class ModulationLayer : public net::DeviceShim {
 public:
  struct Stats {
    std::uint64_t modulated_out = 0;
    std::uint64_t modulated_in = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sent_immediately = 0;  ///< under the half-tick threshold
    std::uint64_t scheduled = 0;
    std::uint64_t passed_unmodulated = 0;  ///< no tuple available
    std::uint64_t tuples_consumed = 0;
  };

  ModulationLayer(std::unique_ptr<net::NetDevice> inner, sim::EventLoop& loop,
                  ReplayPseudoDevice& device, ModulationConfig cfg = {});

  const Stats& stats() const { return stats_; }
  const ModulationConfig& config() const { return cfg_; }

  /// The currently active tuple (mostly for tests/diagnostics).
  const QualityTuple* active_tuple() const {
    return have_tuple_ ? &tuple_ : nullptr;
  }

  /// Wires the layer into the context's metrics (drop counter) and, when
  /// telemetry is enabled, the flight recorder ("<node>/modulation" track)
  /// plus the delay-queue depth and bottleneck-backlog series.  Call once
  /// from the world builder.
  void set_telemetry(sim::SimContext& ctx, const std::string& node);

 protected:
  void on_outbound(net::Packet pkt) override;
  void on_inbound(net::Packet pkt) override;

 private:
  enum class Direction { kOut, kIn };
  void modulate(net::Packet pkt, Direction dir);
  /// Sends a modulated packet on: down the stack or up it.
  void release(net::Packet pkt, Direction dir);
  bool refresh_tuple();

  sim::EventLoop& loop_;
  ReplayPseudoDevice& device_;
  ModulationConfig cfg_;
  sim::TickClock tick_;
  sim::Rng rng_;
  QualityTuple tuple_{};
  bool have_tuple_ = false;
  sim::TimePoint tuple_expires_ = sim::kEpoch;
  sim::TimePoint bottleneck_busy_until_ = sim::kEpoch;
  Stats stats_;
  std::uint64_t* m_drops_ = nullptr;  // context drop counter, when wired
  sim::Telemetry* tel_ = nullptr;     // non-null only while enabled
  sim::TrackId trk_ = sim::kNoTrack;
  sim::TimeSeries* depth_series_ = nullptr;
  sim::TimeSeries* backlog_series_ = nullptr;
  std::size_t delay_queue_depth_ = 0;  // packets awaiting tick release
};

}  // namespace tracemod::core
