#include "net/ethernet.hpp"

#include <algorithm>

namespace tracemod::net {

EthernetSegment::EthernetSegment(sim::EventLoop& loop, Config cfg)
    : loop_(loop), cfg_(cfg) {
  TM_ASSERT(cfg_.bandwidth_bps > 0);
}

void EthernetSegment::attach(EthernetDevice* dev) { ports_.push_back(dev); }

void EthernetSegment::detach(EthernetDevice* dev) {
  ports_.erase(std::remove(ports_.begin(), ports_.end(), dev), ports_.end());
}

sim::TimePoint EthernetSegment::reserve(std::uint32_t frame_bytes,
                                        sim::TimePoint* end_of_frame) {
  const sim::TimePoint start = std::max(loop_.now(), busy_until_);
  const auto tx_time =
      sim::from_seconds(static_cast<double>(frame_bytes) * 8.0 /
                        cfg_.bandwidth_bps);
  busy_until_ = start + tx_time + cfg_.interframe_gap;
  ++frames_;
  if (end_of_frame) *end_of_frame = start + tx_time;
  return start;
}

void EthernetSegment::deliver(Packet pkt, const EthernetDevice* sender) {
  for (EthernetDevice* port : ports_) {
    if (port == sender) continue;
    if (port->accepts(pkt.dst)) {
      port->receive_frame(std::move(pkt));
      return;  // unicast: first claimant wins (bridge tables are disjoint)
    }
  }
  // No claimant: frame falls off the segment, like a miss in a real bridge.
}

EthernetDevice::EthernetDevice(EthernetSegment& segment, std::string name,
                               std::size_t queue_packets,
                               std::size_t queue_bytes)
    : segment_(segment),
      name_(std::move(name)),
      queue_(queue_packets, queue_bytes) {
  segment_.attach(this);
}

EthernetDevice::~EthernetDevice() { segment_.detach(this); }

void EthernetDevice::transmit(Packet pkt) {
  const std::uint64_t id = pkt.id;
  if (!queue_.push(std::move(pkt))) {  // drop-tail
    if (tel_ != nullptr) {
      tel_->recorder().instant(trk_, "eth.drop", id, segment_.loop().now());
    }
    return;
  }
  pump();
}

void EthernetDevice::pump() {
  if (transmitting_ || queue_.empty()) return;
  transmitting_ = true;
  Packet pkt = queue_.pop();
  sim::TimePoint end_of_frame;
  const sim::TimePoint start = segment_.reserve(pkt.wire_size(), &end_of_frame);
  if (tel_ != nullptr) {
    // The serialization window is known now; record it with its (possibly
    // future) endpoints rather than scheduling anything.
    tel_->recorder().begin(trk_, "eth.tx", pkt.id, start,
                           static_cast<double>(pkt.wire_size()));
    tel_->recorder().end(trk_, "eth.tx", pkt.id, end_of_frame);
  }
  const sim::TimePoint arrival = end_of_frame + segment_.config().propagation;
  segment_.loop().schedule_at(
      arrival,
      [this, pkt = std::move(pkt)]() mutable {
        segment_.deliver(std::move(pkt), this);
      },
      "eth.deliver");
  // The transmitter is free again as soon as the frame leaves the wire; the
  // segment's busy window (frame + interframe gap) spaces the next one.
  segment_.loop().schedule_at(
      end_of_frame,
      [this] {
        transmitting_ = false;
        pump();
      },
      "eth.pump");
}

}  // namespace tracemod::net
