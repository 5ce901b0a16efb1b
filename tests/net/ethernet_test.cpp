#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include <any>
#include <string>
#include <utility>
#include <vector>

namespace tracemod::net {
namespace {

Packet test_packet(IpAddress dst, std::uint32_t size) {
  return make_udp_packet(IpAddress(10, 0, 0, 1), dst, 1, 2, size);
}

struct Bus {
  sim::EventLoop loop;
  EthernetSegment segment{loop};
  EthernetDevice a{segment, "eth-a"};
  EthernetDevice b{segment, "eth-b"};
  IpAddress addr_a{10, 0, 0, 1};
  IpAddress addr_b{10, 0, 0, 2};
  Bus() {
    a.claim_address(addr_a);
    b.claim_address(addr_b);
  }
};

TEST(Ethernet, DeliversToClaimant) {
  Bus bus;
  std::vector<Packet> got;
  bus.b.set_receive_callback([&](Packet p) { got.push_back(std::move(p)); });
  bus.a.transmit(test_packet(bus.addr_b, 100));
  bus.loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, bus.addr_b);
}

TEST(Ethernet, DoesNotDeliverToSenderOrNonClaimant) {
  Bus bus;
  int got_a = 0, got_b = 0;
  bus.a.set_receive_callback([&](Packet) { ++got_a; });
  bus.b.set_receive_callback([&](Packet) { ++got_b; });
  bus.a.transmit(test_packet(IpAddress(10, 0, 0, 99), 100));  // unclaimed
  bus.loop.run();
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 0);
}

TEST(Ethernet, DeliveryMovesAHeapBackedPayloadWithoutCopies) {
  // An app descriptor whose copy would allocate (here a long string) must
  // reach the claimant without one copy: the frame is moved into its
  // delivery event and from there to the receiving device.
  struct Tracked {
    std::string body;
    int* copies;
    Tracked(std::string b, int* c) : body(std::move(b)), copies(c) {}
    Tracked(const Tracked& o) : body(o.body), copies(o.copies) { ++*copies; }
    Tracked(Tracked&&) noexcept = default;
  };
  Bus bus;
  int copies = 0;
  std::size_t got = 0;
  bus.b.set_receive_callback([&](Packet p) {
    got = std::any_cast<Tracked>(&p.payload)->body.size();
  });
  Packet p = test_packet(bus.addr_b, 100);
  p.payload = Tracked(std::string(4096, 'x'), &copies);
  bus.a.transmit(std::move(p));
  bus.loop.run();
  EXPECT_EQ(got, 4096u);
  EXPECT_EQ(copies, 0);
}

TEST(Ethernet, SerializationDelayMatchesBandwidth) {
  Bus bus;
  sim::TimePoint arrival{};
  bus.b.set_receive_callback([&](Packet) { arrival = bus.loop.now(); });
  Packet p = test_packet(bus.addr_b, 1000 - kEthernetHeaderBytes - 28);
  const double expected_tx = 1000.0 * 8.0 / 10e6;  // 1000B at 10 Mb/s
  bus.a.transmit(std::move(p));
  bus.loop.run();
  const double prop = sim::to_seconds(bus.segment.config().propagation);
  EXPECT_NEAR(sim::to_seconds(arrival), expected_tx + prop, 1e-9);
}

TEST(Ethernet, BackToBackFramesSerialize) {
  Bus bus;
  std::vector<sim::TimePoint> arrivals;
  bus.b.set_receive_callback([&](Packet) { arrivals.push_back(bus.loop.now()); });
  for (int i = 0; i < 3; ++i) bus.a.transmit(test_packet(bus.addr_b, 954));
  bus.loop.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1000B frame takes 800us on the wire + 10us interframe gap.
  const auto gap01 = arrivals[1] - arrivals[0];
  const auto gap12 = arrivals[2] - arrivals[1];
  EXPECT_NEAR(sim::to_seconds(gap01), 810e-6, 1e-8);
  EXPECT_NEAR(sim::to_seconds(gap12), 810e-6, 1e-8);
}

TEST(Ethernet, TwoSendersShareTheBus) {
  Bus bus;
  EthernetDevice c(bus.segment, "eth-c");
  IpAddress addr_c(10, 0, 0, 3);
  c.claim_address(addr_c);

  int got = 0;
  sim::TimePoint last{};
  bus.b.set_receive_callback([&](Packet) {
    ++got;
    last = bus.loop.now();
  });
  // a and c both blast a frame at b at t=0; the bus must serialize them.
  bus.a.transmit(test_packet(bus.addr_b, 954));
  c.transmit(test_packet(bus.addr_b, 954));
  bus.loop.run();
  EXPECT_EQ(got, 2);
  EXPECT_GT(sim::to_seconds(last), 2 * 800e-6);  // second frame waited
}

TEST(Ethernet, QueueOverflowDrops) {
  Bus bus;
  int got = 0;
  bus.b.set_receive_callback([&](Packet) { ++got; });
  // Queue holds 128 packets; one more is in flight.  Blast 200.
  for (int i = 0; i < 200; ++i) bus.a.transmit(test_packet(bus.addr_b, 954));
  bus.loop.run();
  EXPECT_EQ(got, 129);
  EXPECT_EQ(bus.a.queue_stats().dropped, 200u - 129u);
}

TEST(Ethernet, BridgeClaimsForeignAddress) {
  // A WavePoint-style bridge claims the mobile host's address on the wire.
  Bus bus;
  IpAddress mobile(10, 9, 9, 9);
  bus.b.claim_address(mobile);
  int got = 0;
  bus.b.set_receive_callback([&](Packet) { ++got; });
  bus.a.transmit(test_packet(mobile, 64));
  bus.loop.run();
  EXPECT_EQ(got, 1);
  bus.b.unclaim_address(mobile);
  bus.a.transmit(test_packet(mobile, 64));
  bus.loop.run();
  EXPECT_EQ(got, 1);  // unclaimed now
}

TEST(Ethernet, FramesCarriedCounter) {
  Bus bus;
  bus.b.set_receive_callback([](Packet) {});
  for (int i = 0; i < 5; ++i) bus.a.transmit(test_packet(bus.addr_b, 100));
  bus.loop.run();
  EXPECT_EQ(bus.segment.frames_carried(), 5u);
}

}  // namespace
}  // namespace tracemod::net
