// The mobile host's WaveLAN network interface.
//
// Bridges a Node's protocol stack to the WirelessChannel, and exposes the
// driver's signal readings (signal level / quality / silence) that the
// trace-collection layer samples periodically (paper Section 3.1.1).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/device.hpp"
#include "wireless/channel.hpp"

namespace tracemod::wireless {

class WaveLanDevice : public net::NetDevice, public Transceiver {
 public:
  using PositionFn = std::function<Vec2()>;
  static constexpr double kTxPowerDbm = 12.0;  ///< the default

  /// Registers with the channel under the given interface address.  The
  /// position function is sampled on every transmission (mobility), and
  /// moves no faster than max_speed_mps (WirelessChannel::add_mobile).
  WaveLanDevice(WirelessChannel& channel, net::IpAddress addr,
                PositionFn position, std::string name,
                double tx_power_dbm = kTxPowerDbm,
                double max_speed_mps = HUGE_VAL)
      : channel_(channel),
        position_(std::move(position)),
        name_(std::move(name)),
        tx_power_dbm_(tx_power_dbm),
        index_(channel_.add_mobile(this, addr, max_speed_mps)) {}

  // --- net::NetDevice ---
  void transmit(net::Packet pkt) override {
    channel_.transmit_from_mobile(index_, std::move(pkt));
  }
  std::string name() const override { return name_; }

  // --- Transceiver ---
  Vec2 position() const override { return position_(); }
  double tx_power_dbm() const override { return tx_power_dbm_; }
  void receive_frame(net::Packet pkt) override { deliver_up(std::move(pkt)); }
  std::string label() const override { return name_; }

  /// Driver signal readings at the current instant.
  SignalInfo signal() { return channel_.signal_info(index_); }

  bool associated() const { return channel_.associated(index_) != nullptr; }

  WirelessChannel& channel() { return channel_; }
  /// The index the channel registered this radio under.
  std::uint32_t mobile_index() const { return index_; }

 private:
  WirelessChannel& channel_;
  PositionFn position_;
  std::string name_;
  double tx_power_dbm_;
  std::uint32_t index_;
};

}  // namespace tracemod::wireless
