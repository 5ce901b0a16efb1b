// The campus generator: 1k-100k roaming hosts on the sharded medium.
//
// The paper walked one mobile host past a handful of WavePoints; the
// ROADMAP's north star needs worlds three to five orders of magnitude
// wider.  CampusWorld synthesizes such a world from a seed:
//   - a square quad tiled with a grid of WavePoints, each bridging to its
//     own backbone Ethernet segment with a local campus-server sink (one
//     shared 10 Mb/s bus would be the bottleneck long before the air is);
//   - a population of roaming hosts drawn from the mobility family
//     (wireless/mobility.hpp): solo random-waypoint walkers plus rigid
//     leader/offset groups;
//   - lightweight periodic uplink traffic per host (a UDP report frame
//     every few seconds, echoed back by the sink when echo_downlink is
//     set), exercising association, handoff, contention, and both air
//     directions without paying for 100k TCP stacks;
//   - the sharded channel: spatial cells sized by CampusConfig.
//
// Everything is a pure function of the seed: construction draws from the
// context's master rng in one fixed order, and run() produces a result
// digest that is byte-identical across repeat runs -- the equivalence the
// campus tests and CI smoke job pin.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "scenarios/benchmarks.hpp"
#include "scenarios/scenario.hpp"
#include "sim/sim_context.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::scenarios {

struct CampusConfig {
  std::size_t hosts = 1000;
  /// Edge of the square campus in metres; 0 sizes it automatically so the
  /// host density per WavePoint stays roughly constant as hosts grows
  /// (that is what makes throughput scale sub-quadratically).
  double area_m = 0.0;
  double wp_spacing_m = 120.0;  ///< WavePoint grid pitch
  /// Spatial shard size (ChannelConfig::spatial).  0 = flat seed medium;
  /// the default matches the radio range so queries touch <= 3x3 cells.
  double cell_size_m = 130.0;
  double radio_range_m = 130.0;
  /// Fraction of hosts walking in rigid groups (leader + ring offsets).
  unsigned group_pct = 20;
  std::size_t group_size = 4;  ///< hosts per group, leader included
  sim::Duration horizon = sim::seconds(30);  ///< virtual time to simulate
  sim::Duration app_period = sim::seconds(2);  ///< per-host uplink period
  std::uint32_t app_payload_bytes = 256;
  bool echo_downlink = true;
  std::uint64_t seed = 42;
  /// Unused: the association scan runs on the event-loop thread.  Kept
  /// only because perfbench/ still sets it.
  unsigned threads = 0;
  /// Wall-clock supervision for run() (benchmarks.hpp semantics).
  WatchdogConfig watchdog{};
  sim::TelemetryConfig telemetry{};
};

struct CampusResult {
  bool ok = false;          ///< reached the virtual horizon
  RunStatus status = RunStatus::kDrained;
  std::size_t hosts = 0;
  std::size_t wavepoints = 0;
  double virtual_s = 0.0;   ///< virtual time actually simulated
  std::uint64_t events = 0;  ///< event-loop dispatches
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;  ///< all drop causes summed
  std::uint64_t handoffs = 0;
  std::uint64_t uplink_sent = 0;
  std::uint64_t echoes_received = 0;
  std::size_t occupied_cells = 0;  ///< WavePoint cells (1 when flat)
  /// FNV-1a digest over the counters above plus per-host tx/rx counts and
  /// final position bit patterns: the byte-equivalence handle for the
  /// repeat-run contract.
  std::uint64_t digest = 0;
  /// Wall-clock seconds and derived rate; filled by run_campus (the only
  /// nondeterministic fields, never part of the digest).
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

class CampusWorld {
 public:
  explicit CampusWorld(const CampusConfig& cfg);
  ~CampusWorld();

  CampusWorld(const CampusWorld&) = delete;
  CampusWorld& operator=(const CampusWorld&) = delete;

  /// Drives the world to the virtual horizon under the configured
  /// watchdog.  Fills everything in CampusResult except the wall-clock
  /// fields.
  CampusResult run();

  sim::SimContext& context() { return ctx_; }
  wireless::WirelessChannel& channel() { return *channel_; }
  std::size_t hosts() const { return devices_.size(); }
  std::size_t wavepoint_count() const { return wavepoints_.size(); }
  double side_m() const { return side_m_; }

  /// Host position at a virtual time (any host index).  Reads the host's
  /// cached leg, refilled when it does not cover t; not thread-safe.
  wireless::Vec2 host_position(std::size_t host, sim::TimePoint t) const;

 private:
  struct HostPath {
    int group = -1;        ///< index into groups_, or -1 for solo
    std::size_t path = 0;  ///< index into paths_ when solo
  };

  /// A host's position is leg.at(t) + offset: the cached leg of the path
  /// it rides, and its group offset, or -0.0 for a solo walker (x + -0.0
  /// is x, bit for bit, so one sum serves both).
  struct HostLeg {
    wireless::MobilityModel::Leg leg;
    wireless::Vec2 offset;
  };

  /// The path host walks: its own, or its group leader's.
  const wireless::MobilityModel& path_of(std::size_t host) const;

  void app_tick(std::size_t host);

  CampusConfig cfg_;
  sim::SimContext ctx_;
  double side_m_ = 0.0;
  std::unique_ptr<wireless::WirelessChannel> channel_;
  std::vector<std::unique_ptr<net::EthernetSegment>> backbones_;
  std::vector<std::unique_ptr<wireless::WavePoint>> wavepoints_;
  std::vector<std::unique_ptr<net::EthernetDevice>> sinks_;
  std::vector<wireless::MobilityModel> paths_;       // solo walkers, leaders
  std::vector<wireless::GroupMobility> groups_;
  std::vector<HostPath> host_paths_;
  mutable std::vector<HostLeg> host_legs_;  ///< host_position's cache
  std::vector<std::unique_ptr<wireless::WaveLanDevice>> devices_;
  std::vector<sim::Duration> app_offsets_;  // per-host first-tick jitter
  std::vector<std::uint64_t> tx_counts_;
  std::vector<std::uint64_t> rx_counts_;
  bool done_ = false;
};

/// Builds the world, runs it, and reports including wall-clock rate.
CampusResult run_campus(const CampusConfig& cfg);

/// A single-mobile campus-quad Scenario on the sharded medium: a 4x3
/// WavePoint grid and a diagonal walk across it, with
/// channel.spatial enabled.  Runs through the full sweep / distillation /
/// audit pipeline via `sweep --scenarios campus`; deliberately NOT part of
/// all_scenarios(), which stays pinned to the paper's four.
Scenario campus_walk();

}  // namespace tracemod::scenarios
