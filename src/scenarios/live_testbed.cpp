#include "scenarios/live_testbed.hpp"

namespace tracemod::scenarios {

namespace {
constexpr std::uint16_t kInterfererNfsPort = 2050;
}

LiveTestbed::LiveTestbed(const Scenario& scenario, std::uint64_t seed,
                         LiveTestbedConfig cfg)
    : scenario_(scenario),
      cfg_(cfg),
      ctx_(seed, cfg.telemetry),
      clock_(cfg.mobile_clock, sim::Rng(seed ^ 0xC10C)),
      mobility_(scenario.mobility()) {
  // The context's root stream is the trial's master rng; every subsystem
  // stream is forked from it in a fixed order, so the whole world is a
  // deterministic function of the seed.
  sim::Rng& master = ctx_.rng();
  sim::EventLoop& loop = ctx_.loop();

  wireless::SignalModel model(scenario_.signal, scenario_.walls,
                              scenario_.zones, master.fork());
  channel_ = std::make_unique<wireless::WirelessChannel>(
      loop, std::move(model), scenario_.channel, master.fork());
  channel_->set_telemetry(ctx_);
  backbone_ = std::make_unique<net::EthernetSegment>(loop);

  int wp_index = 0;
  for (const wireless::Vec2& pos : scenario_.wavepoint_positions) {
    wavepoints_.push_back(std::make_unique<wireless::WavePoint>(
        *channel_, *backbone_, pos, "wp" + std::to_string(wp_index++)));
  }

  server_ = std::make_unique<transport::Host>(ctx_, "server",
                                              master.next_u64(), cfg_.tcp);
  auto server_dev =
      std::make_unique<net::EthernetDevice>(*backbone_, "server-eth0");
  server_dev->claim_address(cfg_.server_addr);
  server_dev->set_telemetry(ctx_.telemetry(), "server");
  server_->node().add_interface(std::move(server_dev), cfg_.server_addr);
  server_->node().set_default_route(0);

  mobile_ = std::make_unique<transport::Host>(ctx_, "mobile",
                                              master.next_u64(), cfg_.tcp);
  auto radio = std::make_unique<wireless::WaveLanDevice>(
      *channel_, cfg_.mobile_addr,
      [this] { return mobility_.position(ctx_.loop().now()); }, "wavelan0");
  wireless::WaveLanDevice* radio_ptr = radio.get();
  mobile_->node().add_interface(std::move(radio), cfg_.mobile_addr);
  mobile_->node().set_default_route(0);

  // Hook the collection tap between IP and the WaveLAN device; it samples
  // the driver's signal readings once per second while open.
  mobile_->node().wrap_interface(
      0, [&](std::unique_ptr<net::NetDevice> inner) {
        auto tap = std::make_unique<trace::TraceTap>(
            std::move(inner), ctx_.loop(), clock_,
            [radio_ptr] { return radio_ptr->signal(); });
        tap_ = tap.get();
        return tap;
      });

  // Chatterbox: interfering laptops running SynRGen against NFS.
  if (scenario_.interferers > 0) {
    interferer_nfs_ =
        std::make_unique<apps::NfsServer>(*server_, kInterfererNfsPort);
    const wireless::Vec2 room = mobility_.position(sim::kEpoch);
    for (int i = 0; i < scenario_.interferers; ++i) {
      auto host = std::make_unique<transport::Host>(
          ctx_, "laptop" + std::to_string(i), master.next_u64(), cfg_.tcp);
      const net::IpAddress addr(10, 1, 0,
                                static_cast<std::uint8_t>(10 + i));
      const wireless::Vec2 pos{room.x + 1.0 + 0.7 * i,
                               room.y - 1.5 + 0.6 * i};
      auto dev = std::make_unique<wireless::WaveLanDevice>(
          *channel_, addr, [pos] { return pos; },
          "wavelan-l" + std::to_string(i));
      host->node().add_interface(std::move(dev), addr);
      host->node().set_default_route(0);
      auto user = std::make_unique<apps::SynRGenUser>(
          *host, net::Endpoint{cfg_.server_addr, kInterfererNfsPort},
          std::string("u") + std::to_string(i), master.next_u64());
      user->start();
      interferer_hosts_.push_back(std::move(host));
      interferer_users_.push_back(std::move(user));
    }
  }

  channel_->start();
}

trace::CollectedTrace LiveTestbed::collect_trace() {
  trace::CollectionDaemon daemon(ctx_.loop(), *tap_);
  trace::PingWorkload ping(*mobile_, cfg_.server_addr, clock_);
  daemon.start();
  ping.start();
  ctx_.loop().run_until(ctx_.loop().now() + scenario_.collection_duration);
  ping.stop();
  daemon.stop();
  return daemon.take_trace();
}

}  // namespace tracemod::scenarios
