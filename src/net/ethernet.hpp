// Shared-bus Ethernet.
//
// An EthernetSegment serializes frames from all attached devices at the
// segment bandwidth (the paper's modulation testbed is an isolated 10 Mb/s
// Ethernet).  Each EthernetDevice owns a drop-tail transmit queue; frames
// are delivered to the attached device(s) whose address filter accepts the
// destination, which is how WavePoint bridges claim the mobile host's
// address on the wired side.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/device.hpp"
#include "net/queue.hpp"
#include "sim/event_loop.hpp"
#include "sim/telemetry.hpp"

namespace tracemod::net {

class EthernetDevice;

struct EthernetConfig {
  double bandwidth_bps = 10e6;
  sim::Duration propagation = sim::microseconds(5);
  /// Minimum gap between frames (models interframe spacing + MAC cost).
  sim::Duration interframe_gap = sim::microseconds(10);
};

class EthernetSegment {
 public:
  using Config = EthernetConfig;

  explicit EthernetSegment(sim::EventLoop& loop, Config cfg = {});

  /// Registers a port; called by EthernetDevice's constructor.
  void attach(EthernetDevice* dev);
  void detach(EthernetDevice* dev);

  /// Reserves the bus for one frame of the given size starting no earlier
  /// than now; returns the transmission start time.
  sim::TimePoint reserve(std::uint32_t frame_bytes,
                         sim::TimePoint* end_of_frame);

  /// Delivers a frame (already serialized on the bus) to accepting ports,
  /// moving it to the first claimant.
  void deliver(Packet pkt, const EthernetDevice* sender);

  sim::EventLoop& loop() { return loop_; }
  const Config& config() const { return cfg_; }
  std::uint64_t frames_carried() const { return frames_; }

 private:
  sim::EventLoop& loop_;
  Config cfg_;
  std::vector<EthernetDevice*> ports_;
  sim::TimePoint busy_until_ = sim::kEpoch;
  std::uint64_t frames_ = 0;
};

class EthernetDevice : public NetDevice {
 public:
  EthernetDevice(EthernetSegment& segment, std::string name,
                 std::size_t queue_packets = 128,
                 std::size_t queue_bytes = 256 * 1024);
  ~EthernetDevice() override;

  void transmit(Packet pkt) override;
  std::string name() const override { return name_; }

  /// Address filter: the device accepts frames whose IP destination it has
  /// claimed.  A host claims its own address; a bridge also claims the
  /// addresses it proxies for.
  void claim_address(IpAddress addr) { addresses_.insert(addr); }
  void unclaim_address(IpAddress addr) { addresses_.erase(addr); }
  bool accepts(IpAddress dst) const { return addresses_.count(dst) != 0; }

  /// Called by the segment when a frame addressed to us finishes arriving.
  void receive_frame(Packet pkt) { deliver_up(std::move(pkt)); }

  const DropTailQueue::Stats& queue_stats() const { return queue_.stats(); }

  /// Attaches the flight recorder (no-op while telemetry is disabled).
  /// The node label names this device's "eth" track in the export.
  void set_telemetry(sim::Telemetry& tel, const std::string& node) {
    if (!tel.enabled()) return;
    tel_ = &tel;
    trk_ = tel.track(node, "eth");
  }

 private:
  void pump();

  EthernetSegment& segment_;
  std::string name_;
  DropTailQueue queue_;
  std::unordered_set<IpAddress> addresses_;
  bool transmitting_ = false;
  sim::Telemetry* tel_ = nullptr;  // non-null only while enabled
  sim::TrackId trk_ = sim::kNoTrack;
};

}  // namespace tracemod::net
