#include "wireless/channel.hpp"

#include <gtest/gtest.h>

#include "net/ethernet.hpp"
#include "net/node.hpp"
#include "sim/stats.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::wireless {
namespace {

net::Packet udp_packet(net::IpAddress src, net::IpAddress dst,
                       std::uint32_t size) {
  // Hand-stamped ids: these packets bypass a Node (and thus a SimContext),
  // so uniqueness within the test binary is all that matters.
  static std::uint64_t next_id = 1;
  net::Packet p = net::make_udp_packet(src, dst, 1, 2, size);
  p.id = next_id++;
  return p;
}

/// One mobile, one WavePoint bridging to an Ethernet with a wired sink.
struct Cell {
  sim::EventLoop loop;
  net::EthernetSegment backbone{loop};
  WirelessChannel channel;
  WavePoint wp;
  net::EthernetDevice wired_sink{backbone, "sink"};
  net::IpAddress mobile_addr{10, 0, 0, 2};
  net::IpAddress server_addr{10, 0, 0, 1};
  WaveLanDevice radio;
  Vec2 mobile_pos{10, 0};

  explicit Cell(ChannelConfig cfg = {}, SignalConfig sig = {})
      : channel(loop, SignalModel(sig, {}, {}, sim::Rng(2)), cfg, sim::Rng(3)),
        wp(channel, backbone, {0, 0}, "wp0"),
        radio(channel, mobile_addr, [this] { return mobile_pos; }, "wl0") {
    wired_sink.claim_address(server_addr);
    channel.start();
    loop.run_for(sim::milliseconds(1));  // let association settle
  }
};

TEST(Channel, MobileAssociatesWithWavePoint) {
  Cell cell;
  EXPECT_EQ(cell.channel.associated(cell.radio.mobile_index()), &cell.wp);
  EXPECT_TRUE(cell.radio.associated());
}

TEST(Channel, UplinkFrameBridgesToEthernet) {
  Cell cell;
  int got = 0;
  cell.wired_sink.set_receive_callback([&](net::Packet p) {
    ++got;
    EXPECT_EQ(p.dst, cell.server_addr);
  });
  cell.radio.transmit(udp_packet(cell.mobile_addr, cell.server_addr, 256));
  cell.loop.run_for(sim::seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_GE(cell.channel.stats().frames_delivered, 1u);
}

TEST(Channel, DownlinkReachesTheMobile) {
  Cell cell;
  int got = 0;
  cell.radio.set_receive_callback([&](net::Packet) { ++got; });
  // A wired frame for the mobile: the WavePoint claims its address.
  cell.wired_sink.transmit(udp_packet(cell.server_addr, cell.mobile_addr, 256));
  cell.loop.run_for(sim::seconds(1));
  EXPECT_EQ(got, 1);
}

TEST(Channel, SerializationDelayMatchesRate) {
  Cell cell;
  sim::TimePoint arrival{};
  cell.wired_sink.set_receive_callback(
      [&](net::Packet) { arrival = cell.loop.now(); });
  net::Packet p = udp_packet(cell.mobile_addr, cell.server_addr, 1000);
  const std::uint32_t wire = p.wire_size();
  const sim::TimePoint t0 = cell.loop.now();
  cell.radio.transmit(std::move(p));
  cell.loop.run_for(sim::seconds(1));
  ASSERT_NE(arrival, sim::TimePoint{});
  // At close range the rate is the full effective rate; delay must be at
  // least preamble + serialization and below that plus max backoff + eth.
  const auto& cfg = cell.channel.config();
  const double min_s = sim::to_seconds(cfg.preamble) +
                       wire * 8.0 / cfg.effective_rate_bps;
  const double elapsed = sim::to_seconds(arrival - t0);
  EXPECT_GE(elapsed, min_s);
  EXPECT_LT(elapsed, min_s + 0.05);
}

TEST(Channel, UnassociatedFramesAreDropped) {
  // Mobile 10 km away: below the association floor.
  Cell cell;
  cell.mobile_pos = {10000, 0};
  cell.loop.run_for(sim::seconds(1));  // association poll notices
  cell.radio.transmit(udp_packet(cell.mobile_addr, cell.server_addr, 100));
  cell.loop.run_for(sim::seconds(1));
  EXPECT_GE(cell.channel.stats().frames_dropped_unassociated, 1u);
}

TEST(Channel, SignalInfoTracksDistance) {
  Cell cell;
  const SignalInfo near = cell.radio.signal();
  cell.mobile_pos = {60, 0};
  const SignalInfo far = cell.radio.signal();
  EXPECT_GT(near.level, far.level);
}

TEST(Channel, RateFallsWithSnr) {
  Cell cell;
  EXPECT_GT(cell.channel.rate_bps(25.0), cell.channel.rate_bps(8.0));
  EXPECT_GE(cell.channel.rate_bps(-10.0),
            cell.channel.config().effective_rate_bps *
                cell.channel.config().min_rate_factor - 1.0);
}

TEST(Channel, FrameErrorProbabilityShape) {
  Cell cell;
  // Monotone in SNR.
  EXPECT_GT(cell.channel.frame_error_prob(4.0, 1000),
            cell.channel.frame_error_prob(12.0, 1000));
  // Monotone in size.
  EXPECT_GT(cell.channel.frame_error_prob(8.0, 1500),
            cell.channel.frame_error_prob(8.0, 60));
  // Extremes.
  EXPECT_LT(cell.channel.frame_error_prob(30.0, 1000), 1e-3);
  EXPECT_GT(cell.channel.frame_error_prob(-10.0, 1000), 0.99);
}

TEST(Channel, MarginalLinkLosesFramesButRetries) {
  // Put the mobile at a distance where 1 KB frames are marginal.
  ChannelConfig cfg;
  Cell cell(cfg);
  cell.mobile_pos = {55, 0};  // uplink snr ~ 8-9
  cell.loop.run_for(sim::seconds(1));
  int got = 0;
  cell.wired_sink.set_receive_callback([&](net::Packet) { ++got; });
  for (int i = 0; i < 300; ++i) {
    cell.radio.transmit(udp_packet(cell.mobile_addr, cell.server_addr, 1200));
    cell.loop.run_for(sim::milliseconds(50));
  }
  cell.loop.run_for(sim::seconds(2));
  EXPECT_GT(got, 200);   // most get through
  EXPECT_LT(got, 300);   // but not all
  EXPECT_GT(cell.channel.stats().retry_attempts, 0u);
  EXPECT_GT(cell.channel.stats().frames_dropped_retries, 0u);
}

TEST(Channel, HandoffMovesAddressClaimAndDefersFrames) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  ChannelConfig cfg;
  cfg.handoff_outage = sim::milliseconds(100);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(2)), cfg,
                          sim::Rng(3));
  WavePoint wp_a(channel, backbone, {0, 0}, "wp-a");
  WavePoint wp_b(channel, backbone, {100, 0}, "wp-b");
  net::EthernetDevice sink(backbone, "sink");
  sink.claim_address(net::IpAddress(10, 0, 0, 1));

  Vec2 pos{5, 0};
  WaveLanDevice radio(channel, net::IpAddress(10, 0, 0, 2),
                      [&pos] { return pos; }, "wl0");
  channel.start();
  loop.run_for(sim::seconds(1));
  EXPECT_EQ(channel.associated(radio.mobile_index()), &wp_a);
  EXPECT_TRUE(wp_a.ethernet().accepts(net::IpAddress(10, 0, 0, 2)));

  int got = 0;
  sink.set_receive_callback([&](net::Packet) { ++got; });

  // Walk to wp_b; transmit steadily through the handoff.
  pos = {95, 0};
  for (int i = 0; i < 20; ++i) {
    radio.transmit(udp_packet(net::IpAddress(10, 0, 0, 2),
                              net::IpAddress(10, 0, 0, 1), 200));
    loop.run_for(sim::milliseconds(100));
  }
  loop.run_for(sim::seconds(1));

  EXPECT_EQ(channel.associated(radio.mobile_index()), &wp_b);
  EXPECT_EQ(channel.stats().handoffs, 1u);
  EXPECT_FALSE(wp_a.ethernet().accepts(net::IpAddress(10, 0, 0, 2)));
  EXPECT_TRUE(wp_b.ethernet().accepts(net::IpAddress(10, 0, 0, 2)));
  // Deferred frames were flushed, not lost.
  EXPECT_EQ(got, 20);
}

TEST(Channel, ContentionSerializesTransmitters) {
  // Two mobiles blasting simultaneously: per-frame delay grows vs solo.
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(2)),
                          ChannelConfig{}, sim::Rng(3));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  net::EthernetDevice sink(backbone, "sink");
  sink.claim_address(net::IpAddress(10, 0, 0, 1));
  WaveLanDevice r1(channel, net::IpAddress(10, 0, 0, 2),
                   [] { return Vec2{5, 0}; }, "wl1");
  WaveLanDevice r2(channel, net::IpAddress(10, 0, 0, 3),
                   [] { return Vec2{-5, 0}; }, "wl2");
  channel.start();
  loop.run_for(sim::milliseconds(1));

  std::vector<sim::TimePoint> arrivals;
  sink.set_receive_callback(
      [&](net::Packet) { arrivals.push_back(loop.now()); });
  for (int i = 0; i < 10; ++i) {
    r1.transmit(udp_packet(net::IpAddress(10, 0, 0, 2),
                           net::IpAddress(10, 0, 0, 1), 1400));
    r2.transmit(udp_packet(net::IpAddress(10, 0, 0, 3),
                           net::IpAddress(10, 0, 0, 1), 1400));
  }
  loop.run_for(sim::seconds(5));
  ASSERT_GE(arrivals.size(), 18u);  // a few may die to fading
  // All 20 frames of ~1.45 KB at ~1.9 Mb/s: at least 6 ms apiece on air.
  const double span = sim::to_seconds(arrivals.back() - arrivals.front());
  EXPECT_GT(span, 0.10);
}

/// Registers two mobiles that share an address, or a radio registered
/// twice, and starts the channel.
void start_with_duplicate(bool same_radio) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(2)),
                          ChannelConfig{}, sim::Rng(3));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  const net::IpAddress a(10, 0, 0, 2), b(10, 0, 0, 3);
  WaveLanDevice r1(channel, a, [] { return Vec2{5, 0}; }, "wl1");
  WaveLanDevice r2(channel, same_radio ? b : a, [] { return Vec2{-5, 0}; },
                   "wl2");
  if (same_radio) channel.add_mobile(&r1, net::IpAddress(10, 0, 0, 4));
  channel.start();
}

TEST(ChannelDeathTest, DuplicateRegistrationFailsAtStart) {
  // The downlink's address table and the index each radio carries assume
  // one registration per radio and per address.
  EXPECT_DEATH(start_with_duplicate(false), "assertion failed");
  EXPECT_DEATH(start_with_duplicate(true), "assertion failed");
}

TEST(Channel, BacklogCapDropsWhenSwamped) {
  ChannelConfig cfg;
  cfg.backlog_cap = sim::milliseconds(50);
  Cell cell(cfg);
  for (int i = 0; i < 100; ++i) {
    cell.radio.transmit(udp_packet(cell.mobile_addr, cell.server_addr, 1400));
  }
  cell.loop.run_for(sim::seconds(5));
  EXPECT_GT(cell.channel.stats().frames_dropped_backlog, 0u);
}

}  // namespace
}  // namespace tracemod::wireless
