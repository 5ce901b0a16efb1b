// Parameterized sweeps over the wireless channel's physical behaviour.
#include <gtest/gtest.h>

#include "net/ethernet.hpp"
#include "net/node.hpp"
#include "wireless/wavelan_device.hpp"
#include "wireless/wavepoint.hpp"

namespace tracemod::wireless {
namespace {

/// Delivered fraction of 200 one-KB uplink frames at a given distance.
double delivered_fraction(double distance_m, std::uint64_t seed) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(seed)),
                          ChannelConfig{}, sim::Rng(seed + 1));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  net::EthernetDevice sink(backbone, "sink");
  sink.claim_address(net::IpAddress(10, 0, 0, 1));
  WaveLanDevice radio(channel, net::IpAddress(10, 0, 0, 2),
                      [distance_m] { return Vec2{distance_m, 0}; }, "wl");
  channel.start();
  loop.run_for(sim::milliseconds(1));

  int got = 0;
  sink.set_receive_callback([&](net::Packet) { ++got; });
  for (int i = 0; i < 200; ++i) {
    net::Packet p = net::make_udp_packet(net::IpAddress(10, 0, 0, 2),
                                         net::IpAddress(10, 0, 0, 1), 1, 2,
                                         1000);
    p.id = static_cast<std::uint64_t>(i) + 1;
    radio.transmit(std::move(p));
    loop.run_for(sim::milliseconds(50));
  }
  loop.run_for(sim::seconds(2));
  return got / 200.0;
}

class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, DeliveryDependsOnDistanceBand) {
  const double d = GetParam();
  const double frac = delivered_fraction(d, 11);
  if (d <= 30) {
    EXPECT_GT(frac, 0.97) << "at " << d << " m";
  } else if (d >= 110) {
    EXPECT_LT(frac, 0.60) << "at " << d << " m";
  } else {
    EXPECT_GT(frac, 0.30) << "at " << d << " m";  // transitional band
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(5.0, 15.0, 30.0, 55.0, 90.0,
                                           120.0));

TEST(ChannelProperty, DeliveryIsMonotoneAcrossTheBands) {
  const double near = delivered_fraction(10, 21);
  const double mid = delivered_fraction(55, 21);
  const double far = delivered_fraction(110, 21);
  EXPECT_GE(near, mid);
  EXPECT_GE(mid, far);
}

TEST(ChannelProperty, SignalLevelMonotoneInDistance) {
  sim::EventLoop loop;
  net::EthernetSegment backbone(loop);
  WirelessChannel channel(loop, SignalModel({}, {}, {}, sim::Rng(3)),
                          ChannelConfig{}, sim::Rng(4));
  WavePoint wp(channel, backbone, {0, 0}, "wp");
  Vec2 pos{1, 0};
  WaveLanDevice radio(channel, net::IpAddress(10, 0, 0, 2),
                      [&pos] { return pos; }, "wl");
  channel.start();
  loop.run_for(sim::milliseconds(1));

  double prev = 1e9;
  for (double d : {2.0, 8.0, 20.0, 45.0, 80.0, 150.0}) {
    pos = {d, 0};
    // Median-based check: average several (shadowed) samples.
    double sum = 0;
    for (int i = 0; i < 16; ++i) {
      loop.run_for(sim::milliseconds(200));
      sum += radio.signal().level;
    }
    const double level = sum / 16;
    EXPECT_LE(level, prev + 1.0) << "at " << d;  // allow shadow wiggle
    prev = level;
  }
}

}  // namespace
}  // namespace tracemod::wireless
