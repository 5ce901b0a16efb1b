#include "scenarios/campus.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <chrono>

#include "sim/assert.hpp"

namespace tracemod::scenarios {

namespace {

/// Every backbone segment hosts a sink claiming this address: "the campus
/// server" as seen from any WavePoint's wired side.
const net::IpAddress kCampusServerAddr(10, 1, 0, 1);

constexpr std::uint16_t kAppPort = 4000;
constexpr std::uint32_t kEchoPayloadBytes = 64;

net::IpAddress host_addr(std::size_t i) {
  // 10.2.0.0 upward; unique for any campus size we can simulate.
  return net::IpAddress(0x0A020000u + static_cast<std::uint32_t>(i));
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

}  // namespace

CampusWorld::CampusWorld(const CampusConfig& cfg)
    : cfg_(cfg), ctx_(cfg.seed, cfg.telemetry) {
  TM_ASSERT(cfg_.hosts > 0);
  TM_ASSERT(cfg_.wp_spacing_m > 0.0);

  // WavePoint grid: fixed density when auto-sized, so adding hosts adds
  // coverage area and infrastructure instead of piling contention into one
  // cell (the sub-quadratic-scaling premise).
  std::size_t cols;
  if (cfg_.area_m > 0.0) {
    side_m_ = cfg_.area_m;
    cols = std::max<std::size_t>(
        2, static_cast<std::size_t>(side_m_ / cfg_.wp_spacing_m) + 1);
  } else {
    const double target_wps =
        std::max(4.0, static_cast<double>(cfg_.hosts) / 32.0);
    cols = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::ceil(std::sqrt(target_wps))));
    side_m_ = cfg_.wp_spacing_m * static_cast<double>(cols - 1);
  }

  sim::Rng& master = ctx_.rng();
  sim::EventLoop& loop = ctx_.loop();

  // Fixed fork order (signal, channel, then per-host draws): the whole
  // world is a function of the seed.
  wireless::SignalModel model(wireless::SignalConfig{}, {}, {},
                              master.fork());
  wireless::ChannelConfig chan;
  chan.spatial.cell_size = cfg_.cell_size_m;
  chan.spatial.radio_range_m = cfg_.radio_range_m;
  channel_ = std::make_unique<wireless::WirelessChannel>(
      loop, std::move(model), chan, master.fork());
  channel_->set_telemetry(ctx_);

  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < cols; ++i) {
      const wireless::Vec2 pos{cfg_.wp_spacing_m * static_cast<double>(i),
                               cfg_.wp_spacing_m * static_cast<double>(j)};
      auto backbone = std::make_unique<net::EthernetSegment>(loop);
      auto wp = std::make_unique<wireless::WavePoint>(
          *channel_, *backbone, pos,
          "wp" + std::to_string(j * cols + i));
      auto sink = std::make_unique<net::EthernetDevice>(
          *backbone, "sink" + std::to_string(j * cols + i));
      sink->claim_address(kCampusServerAddr);
      net::EthernetDevice* sink_ptr = sink.get();
      sink->set_receive_callback([this, sink_ptr](net::Packet pkt) {
        if (!cfg_.echo_downlink) return;
        net::Packet echo = net::make_udp_packet(
            kCampusServerAddr, pkt.src, kAppPort, kAppPort,
            kEchoPayloadBytes);
        echo.id = ctx_.next_packet_id();
        echo.created_at = ctx_.loop().now();
        sink_ptr->transmit(std::move(echo));
      });
      backbones_.push_back(std::move(backbone));
      wavepoints_.push_back(std::move(wp));
      sinks_.push_back(std::move(sink));
    }
  }

  // Mobility population.  The first `grouped` hosts walk in rigid
  // leader/offset groups; the rest are solo random-waypoint walkers.  All
  // rng draws happen here, host by host, in index order.
  wireless::RandomWaypointConfig rw;
  rw.area_min = {0.0, 0.0};
  rw.area_max = {side_m_, side_m_};
  rw.pause_max = sim::seconds(10);
  rw.horizon = cfg_.horizon;
  rw.label_prefix = "c";

  const std::size_t grouped =
      cfg_.group_size > 1
          ? std::min(cfg_.hosts,
                     cfg_.hosts * std::min(cfg_.group_pct, 100u) / 100)
          : 0;
  host_paths_.reserve(cfg_.hosts);
  std::size_t h = 0;
  while (h < grouped) {
    const std::size_t block = std::min(cfg_.group_size, grouped - h);
    wireless::GroupMobility group(random_waypoint(rw, master));
    group.add_member({0.0, 0.0});  // the leader itself
    group.add_ring(block - 1, 2.5);
    groups_.push_back(std::move(group));
    for (std::size_t k = 0; k < block; ++k) {
      HostPath hp;
      hp.group = static_cast<int>(groups_.size() - 1);
      hp.member = k;
      host_paths_.push_back(hp);
    }
    h += block;
  }
  for (; h < cfg_.hosts; ++h) {
    paths_.push_back(random_waypoint(rw, master));
    HostPath hp;
    hp.path = paths_.size() - 1;
    host_paths_.push_back(hp);
  }

  // Per-host first-tick jitter, drawn in index order so traffic phase is
  // part of the same deterministic contract as the paths.
  app_offsets_.reserve(cfg_.hosts);
  for (std::size_t i = 0; i < cfg_.hosts; ++i) {
    app_offsets_.push_back(sim::from_seconds(
        master.uniform(0.0, sim::to_seconds(cfg_.app_period))));
  }

  tx_counts_.assign(cfg_.hosts, 0);
  rx_counts_.assign(cfg_.hosts, 0);
  devices_.reserve(cfg_.hosts);
  for (std::size_t i = 0; i < cfg_.hosts; ++i) {
    auto dev = std::make_unique<wireless::WaveLanDevice>(
        *channel_, host_addr(i),
        [this, i] { return host_position(i, ctx_.loop().now()); },
        "m" + std::to_string(i));
    dev->set_receive_callback([this, i](net::Packet) { ++rx_counts_[i]; });
    devices_.push_back(std::move(dev));
  }

  channel_->start();
}

CampusWorld::~CampusWorld() = default;

wireless::Vec2 CampusWorld::host_position(std::size_t host,
                                          sim::TimePoint t) const {
  const HostPath& hp = host_paths_[host];
  if (hp.group >= 0) {
    return groups_[static_cast<std::size_t>(hp.group)].position(hp.member, t);
  }
  return paths_[hp.path].position(t);
}

void CampusWorld::app_tick(std::size_t host) {
  if (done_) return;
  net::Packet pkt =
      net::make_udp_packet(host_addr(host), kCampusServerAddr, kAppPort,
                           kAppPort, cfg_.app_payload_bytes);
  pkt.id = ctx_.next_packet_id();
  pkt.created_at = ctx_.loop().now();
  ++tx_counts_[host];
  devices_[host]->transmit(std::move(pkt));
  ctx_.loop().schedule(cfg_.app_period, [this, host] { app_tick(host); },
                       "campus.app");
}

CampusResult CampusWorld::run() {
  sim::EventLoop& loop = ctx_.loop();
  for (std::size_t i = 0; i < cfg_.hosts; ++i) {
    loop.schedule_at(sim::kEpoch + app_offsets_[i],
                     [this, i] { app_tick(i); }, "campus.app");
  }
  loop.schedule_at(sim::kEpoch + cfg_.horizon, [this] { done_ = true; },
                   "campus.done");

  CampusResult r;
  r.hosts = cfg_.hosts;
  r.wavepoints = wavepoints_.size();
  if (sim::status::StatusBoard* board = cfg_.watchdog.status;
      board != nullptr && board->enabled()) {
    // A campus run's natural progress axis is the virtual horizon; the
    // dispatch heartbeat advances units_done via the published sim clock.
    board->set_units("sim-seconds", sim::to_seconds(cfg_.horizon));
    board->set_units_follow_sim(true);
    board->set_phase("campus:" + std::to_string(cfg_.hosts) + "-hosts");
  }
  // The +1s slack means the status tells us what actually happened: the
  // done flag (kCompleted) rather than the deadline fence.
  r.status = run_event_loop_until(loop, done_, cfg_.horizon + sim::seconds(1),
                                  cfg_.watchdog);
  r.ok = r.status == RunStatus::kCompleted;
  r.virtual_s = sim::to_seconds(loop.now() - sim::kEpoch);
  r.events = loop.dispatched();

  const wireless::WirelessChannel::Stats& s = channel_->stats();
  r.frames_delivered = s.frames_delivered;
  r.frames_dropped = s.frames_dropped_retries + s.frames_dropped_backlog +
                     s.frames_dropped_handoff + s.frames_dropped_unassociated;
  r.handoffs = s.handoffs;
  r.occupied_cells = channel_->wavepoint_index().occupied_cells();
  for (std::size_t i = 0; i < cfg_.hosts; ++i) {
    r.uplink_sent += tx_counts_[i];
    r.echoes_received += rx_counts_[i];
  }

  std::uint64_t d = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  d = fnv_mix(d, r.hosts);
  d = fnv_mix(d, r.wavepoints);
  d = fnv_mix(d, r.events);
  d = fnv_mix(d, r.frames_delivered);
  d = fnv_mix(d, r.frames_dropped);
  d = fnv_mix(d, s.retry_attempts);
  d = fnv_mix(d, r.handoffs);
  d = fnv_mix(d, r.uplink_sent);
  d = fnv_mix(d, r.echoes_received);
  d = fnv_mix(d, ctx_.packet_ids_issued());
  const sim::TimePoint end = sim::kEpoch + cfg_.horizon;
  for (std::size_t i = 0; i < cfg_.hosts; ++i) {
    d = fnv_mix(d, tx_counts_[i]);
    d = fnv_mix(d, rx_counts_[i]);
    const wireless::Vec2 p = host_position(i, end);
    d = fnv_mix(d, double_bits(p.x));
    d = fnv_mix(d, double_bits(p.y));
  }
  r.digest = d;
  return r;
}

CampusResult run_campus(const CampusConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  CampusWorld world(cfg);
  CampusResult r = world.run();
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  return r;
}

Scenario campus_walk() {
  Scenario s;
  s.name = "campus";
  // A 4x3 WavePoint grid over a 360x240 m quad; no interior walls.
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 4; ++i) {
      s.wavepoint_positions.push_back({120.0 * i, 120.0 * j});
    }
  }
  using WP = wireless::MobilityModel::Waypoint;
  s.path = {
      WP{"c0", {10.0, 10.0}, 1.4, sim::seconds(10)},
      WP{"c1", {120.0, 70.0}, 1.4, sim::seconds(5)},
      WP{"c2", {230.0, 130.0}, 1.4, sim::seconds(5)},
      WP{"c3", {350.0, 230.0}, 1.4, sim::seconds(10)},
  };
  // The point of this scenario: the sharded medium under the full
  // collection/distillation/audit pipeline.
  s.channel.spatial.cell_size = 130.0;
  s.channel.spatial.radio_range_m = 130.0;
  s.collection_duration = sim::seconds(360);
  return s;
}

}  // namespace tracemod::scenarios
