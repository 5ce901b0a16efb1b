// Radio propagation and WaveLAN signal reporting.
//
// Log-distance path loss with wall/zone attenuation, slow log-normal
// shadowing (an Ornstein-Uhlenbeck process, so consecutive samples are
// correlated the way real shadowing is), and per-packet fast fading.
// Received power maps onto WaveLAN driver units: signal level (~0-40,
// noise floor at 5 per the paper's figures), signal quality, silence level.
#pragma once

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "wireless/geometry.hpp"

namespace tracemod::wireless {

struct SignalConfig {
  double ref_loss_db = 40.0;       ///< path loss at 1 m, 900 MHz-ish
  double path_exponent = 3.0;      ///< indoor-heavy environment
  double noise_floor_dbm = -92.0;
  double shadow_sigma_db = 3.0;    ///< stationary stddev of shadowing
  double shadow_tau_s = 8.0;       ///< OU relaxation time
  double fast_fade_sigma_db = 2.0; ///< per-packet fading
};

/// WaveLAN-style device readings (paper Section 3.1.1).
struct SignalInfo {
  double level = 0.0;    ///< signal level units; < 5 is background noise
  double quality = 0.0;  ///< 0..15
  double silence = 0.0;  ///< noise reading in the same units as level
};

class SignalModel {
 public:
  SignalModel(SignalConfig cfg, std::vector<Wall> walls, std::vector<Zone> zones,
              sim::Rng rng);

  /// Deterministic median received power (no shadowing/fading).
  double median_rx_dbm(Vec2 from, double tx_dbm, Vec2 to) const;

  /// True when the path exponent is positive and no wall or zone loss is
  /// negative.  median_rx_dbm then never exceeds
  /// tx_dbm - ref_loss_db - 10 n log10(max(d, 1)), the bound that lets the
  /// association scan skip distant candidates.
  bool attenuation_only() const { return attenuation_only_; }

  /// True when there is no wall and no zone and the path exponent is
  /// positive: median_rx_dbm is then exactly
  /// tx_dbm - ref_loss_db - 10 n log10(max(d, 1)), which the association
  /// poll's stable radius inverts.
  bool free_space() const { return free_space_; }

  /// Received power including the current shadowing state; advances the
  /// shadowing process to time t first.
  double rx_dbm(Vec2 from, double tx_dbm, Vec2 to, sim::TimePoint t);

  /// One per-packet fast-fade draw (dB, zero mean).
  double fast_fade_db() { return rng_.normal(0.0, cfg_.fast_fade_sigma_db); }

  /// Maps received power to WaveLAN units.
  SignalInfo to_signal_info(double rx_dbm) const;

  double snr_db(double rx_dbm) const { return rx_dbm - cfg_.noise_floor_dbm; }
  const SignalConfig& config() const { return cfg_; }

  /// Current shadowing value (tests).
  double shadow_db() const { return shadow_db_; }

 private:
  void advance_shadow(sim::TimePoint t);

  SignalConfig cfg_;
  std::vector<Wall> walls_;
  std::vector<Zone> zones_;
  sim::Rng rng_;
  bool attenuation_only_ = false;
  bool free_space_ = false;
  double shadow_db_ = 0.0;
  sim::TimePoint shadow_at_ = sim::kEpoch;
};

}  // namespace tracemod::wireless
