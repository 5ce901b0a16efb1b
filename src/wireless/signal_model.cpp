#include "wireless/signal_model.hpp"

#include <algorithm>
#include <cmath>

namespace tracemod::wireless {

SignalModel::SignalModel(SignalConfig cfg, std::vector<Wall> walls,
                         std::vector<Zone> zones, sim::Rng rng)
    : cfg_(cfg),
      walls_(std::move(walls)),
      zones_(std::move(zones)),
      rng_(rng) {
  // A NaN loss or exponent counts as negative.
  attenuation_only_ =
      cfg_.path_exponent > 0.0 &&
      std::none_of(walls_.begin(), walls_.end(),
                   [](const Wall& w) { return !(w.loss_db >= 0.0); }) &&
      std::none_of(zones_.begin(), zones_.end(),
                   [](const Zone& z) { return !(z.extra_loss_db >= 0.0); });
  free_space_ =
      cfg_.path_exponent > 0.0 && walls_.empty() && zones_.empty();
}

double SignalModel::median_rx_dbm(Vec2 from, double tx_dbm, Vec2 to) const {
  const double d = std::max(distance(from, to), 1.0);
  double loss = cfg_.ref_loss_db + 10.0 * cfg_.path_exponent * std::log10(d);
  loss += wall_loss_db(walls_, from, to);
  loss += zone_loss_db(zones_, from, to);
  return tx_dbm - loss;
}

void SignalModel::advance_shadow(sim::TimePoint t) {
  if (t <= shadow_at_) return;
  const double dt = sim::to_seconds(t - shadow_at_);
  shadow_at_ = t;
  // Exact OU update: x' = x e^{-dt/tau} + sigma sqrt(1 - e^{-2dt/tau}) N.
  const double decay = std::exp(-dt / cfg_.shadow_tau_s);
  const double noise_scale =
      cfg_.shadow_sigma_db * std::sqrt(std::max(0.0, 1.0 - decay * decay));
  shadow_db_ = shadow_db_ * decay + rng_.normal(0.0, noise_scale);
}

double SignalModel::rx_dbm(Vec2 from, double tx_dbm, Vec2 to,
                           sim::TimePoint t) {
  advance_shadow(t);
  return median_rx_dbm(from, tx_dbm, to) + shadow_db_;
}

SignalInfo SignalModel::to_signal_info(double rx) const {
  SignalInfo info;
  // Mapping chosen so that a strong in-room link (~ -55 dBm) reads ~19 and
  // the driver's noise threshold of 5 corresponds to ~ -82 dBm, matching
  // the dynamic range of the paper's Figures 2-5.
  info.level = std::clamp((rx + 92.0) / 2.0, 0.0, 40.0);
  const double snr = snr_db(rx);
  info.quality = std::clamp(snr / 2.5, 0.0, 15.0);
  info.silence = std::clamp((cfg_.noise_floor_dbm + 96.0) / 2.0, 0.0, 40.0);
  return info;
}

}  // namespace tracemod::wireless
