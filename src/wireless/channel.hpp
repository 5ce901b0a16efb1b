// The WaveLAN-like wireless medium: one shared CSMA cell in the seed
// configuration, a sharded spatial medium at campus scale.
//
// The channel implements:
//   - carrier-sense serialization with DIFS + random backoff,
//   - SNR-dependent frame error with bounded link-layer retries (this is
//     what turns deep fades into the paper's correlated latency spikes and
//     loss),
//   - SNR-dependent effective byte rate (distilled "bandwidth" of
//     0.9-1.6 Mb/s in Figures 2-5),
//   - association and WavePoint handoff with hysteresis and a short outage,
//   - an optional bursty interference process,
//   - a bounded transmit backlog; overflow drops model interface-queue
//     overruns.
//
// Spatial sharding (ChannelConfig::spatial, DESIGN.md section 11): with a
// positive cell_size the plane is partitioned by a CellIndex and
//   - carrier-sense/backoff state is per cell: a transmission marks every
//     cell within radio range of the transmitter busy, so stations at a
//     cell border still defer to each other (correct cross-cell
//     interference) while distant cells transmit concurrently.  The
//     horizons sit in a dense grid around the WavePoints; a map holds any
//     cell beyond it;
//   - the association/handoff scan asks the cell index for nearby
//     WavePoints instead of walking all of them -- the seed's
//     O(mobiles x wavepoints) poll becomes O(mobiles x nearby).
// In both configurations the poll skips a mobile whose position and
// association repeat those of a scan that changed nothing; in free space it
// also skips an associated mobile until its registered speed bound could
// have carried it out of that scan's stable radius (stable_radius_m).  The
// scan skips candidates too far away to beat the current WavePoint or the
// strongest one so far (scan_wavepoints).  No skip changes a result bit.
// Mobiles are named by their registration index, so the frame path hashes
// nothing.
// The default spatial config (cell_size 0) is the degenerate single-cell
// grid: every code path reduces to the seed's flat-medium arithmetic and
// outputs stay bit-identical to it (pinned by tests and the sweep golden).
//
// Uplink and downlink differ in transmit power, so marginal links are
// asymmetric -- the effect the paper's FTP benchmark exposes (Section 5.3).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/telemetry.hpp"
#include "wireless/cell_index.hpp"
#include "wireless/signal_model.hpp"

namespace tracemod::sim {
class SimContext;
}

namespace tracemod::wireless {

/// Anything with a radio: mobiles and WavePoints.
class Transceiver {
 public:
  virtual ~Transceiver() = default;
  /// Where the radio is now.  A pure function of virtual time: two calls
  /// at one instant return the same bits, so the channel reads it once per
  /// attempt, not once per use.  A mobile moves no faster than the speed
  /// bound it was registered with (WirelessChannel::add_mobile).
  virtual Vec2 position() const = 0;
  virtual double tx_power_dbm() const = 0;
  virtual void receive_frame(net::Packet pkt) = 0;
  virtual std::string label() const = 0;
};

/// A base station radio; claims its associated mobiles' addresses on the
/// wired side so bridged traffic finds them.
class BaseStation : public Transceiver {
 public:
  virtual void claim_mobile(net::IpAddress addr) = 0;
  virtual void unclaim_mobile(net::IpAddress addr) = 0;
};

/// A WavePoint's registration index; kNoWavePoint stands for none.
inline constexpr std::uint32_t kNoWavePoint = UINT32_MAX;

/// A WavePoint as the association scan sees it.  WavePoints are fixed
/// infrastructure, so both fields are read once, at registration.
struct WavePointSite {
  Vec2 pos;
  double tx_dbm = 0.0;
};

/// The association scan's result for one mobile position.
struct AssociationScan {
  std::uint32_t best = kNoWavePoint;  ///< strongest candidate
  double best_rx = -1e9;
  double cur_rx = -1e9;  ///< the current WavePoint's median signal
  /// d_o squared: the squared distance to the nearest candidate other
  /// than `current` (HUGE_VAL when there is none).
  double other_d2 = HUGE_VAL;
};

/// The pure association scan (no RNG, no mutation): among index's
/// candidates for the disc (pos, radius), in visiting order, the first
/// with the strictly highest SignalModel::median_rx_dbm; plus that signal
/// for `current` (kNoWavePoint when unassociated).  `sites` holds every
/// id of the index; `max_tx_dbm` is at least every site's tx_dbm.
///
/// The result is bit-identical to evaluating every candidate, but when
/// model.attenuation_only() a candidate farther than
/// association_range_m(max_tx_dbm, ref, n, r) * (1 + 1e-6) is skipped,
/// where r is the strongest signal the scan is sure to reach: cur_rx from
/// the start when the query visits `current`, else the best so far.  The
/// skipped signal is below r, and so below the final best_rx, by at least
/// 10 n log10(1 + 1e-6) dB, far more than rounding (DESIGN.md section 11).
/// `current` is never skipped, and its signal is computed once, before
/// the walk.  Pure, allocation-free, and one cell.query per call.
AssociationScan scan_wavepoints(const CellIndex& index,
                                const std::vector<WavePointSite>& sites,
                                double max_tx_dbm, const SignalModel& model,
                                Vec2 pos, double radius,
                                std::uint32_t current);

/// Per-WavePoint constants of the stable radius, fixed once the WavePoint
/// set is (WirelessChannel::start()), so that a quiet poll adds no
/// std::pow.
struct StableSite {
  /// rho = 10^((tx - tx_max + hysteresis) / (10 n)): no WavePoint at
  /// distance d_o or more beats this one at distance d_a by more than the
  /// hysteresis while max(d_a, 1) <= rho * max(d_o, 1).
  double rho = 0.0;
  /// Within this distance this WavePoint's median signal stays at or above
  /// association_floor_dbm - 5 (0 when it is under that even at 1 m).
  double floor_range_m = 0.0;
};

struct ChannelConfig {
  double effective_rate_bps = 1.9e6;   ///< byte rate at high SNR
  double min_rate_factor = 0.5;        ///< rate floor at poor SNR
  sim::Duration preamble = sim::microseconds(450);
  sim::Duration difs = sim::microseconds(300);
  sim::Duration slot = sim::microseconds(500);
  /// Receiver-side store-and-forward / host processing per frame (486-class
  /// bridges and laptops); adds latency, not per-byte cost.
  sim::Duration processing = sim::microseconds(800);
  int max_backoff_exp = 6;
  int max_retries = 3;
  double frame_err_mid_snr_db = 7.0;   ///< sigmoid center (1000-byte frame)
  double frame_err_width_db = 2.2;
  sim::Duration backlog_cap = sim::milliseconds(500);  ///< tx queue bound
  sim::Duration association_poll = sim::milliseconds(250);
  double handoff_hysteresis_db = 4.0;
  sim::Duration handoff_outage = sim::milliseconds(150);
  /// Frames the mobile's driver buffers while the roaming protocol runs;
  /// they burst out after re-association (the latency spikes at cell
  /// boundaries in Figure 2).  Overflow drops.
  std::size_t handoff_defer_cap = 8;
  double association_floor_dbm = -90.0;  ///< below this, no association
  /// Bursty external interference: while a burst is active, every frame
  /// suffers this much extra error probability.  0 disables the process.
  double burst_extra_err = 0.0;
  sim::Duration burst_mean_on = sim::milliseconds(200);
  sim::Duration burst_mean_off = sim::seconds(4);
  /// Spatial sharding of the medium (cell_index.hpp).  The default keeps
  /// the flat single-cell seed behaviour.
  SpatialConfig spatial{};
};

/// What a poll does with a mobile associated with `current` (kNoWavePoint
/// when unassociated), given the scan at its position: the seed's
/// association and handoff rule.  kAssociate and kHandoff go to scan.best.
enum class PollAction : std::uint8_t { kKeep, kAssociate, kDrop, kHandoff };
PollAction poll_action(const AssociationScan& scan, std::uint32_t current,
                       const ChannelConfig& cfg);

/// A WavePoint's StableSite, among WavePoints of at most max_tx_dbm.
StableSite stable_site(const WavePointSite& site, double max_tx_dbm,
                       const SignalConfig& sc, const ChannelConfig& cfg);

/// The stable radius delta of a scan at `pos` for a mobile associated with
/// `cur` whose poll_action is kKeep, under SignalModel::free_space(): at
/// every position within delta of pos the poll keeps the association too,
/// so a mobile whose speed is at most v needs no scan for delta / v.  It
/// is the least of
///   - (rho max(d_o, 1) - max(d_a, 1)) / (1 + rho): no other WavePoint
///     gains the hysteresis on cur (d_a to cur; d_o to the nearest other
///     candidate, capped at the radio range when sharded, because a
///     WavePoint outside the query's cells is farther than the range);
///   - floor_range_m - d_a: cur's signal stays at or above floor - 5;
///   - sharded, the range minus the Chebyshev distance to cur: the query
///     keeps visiting cur, so best_rx >= cur_rx;
/// shrunk by a factor 1 - 1e-6 and by 1e-6 m against rounding.  Zero or
/// less means no radius is known.
double stable_radius_m(const AssociationScan& scan, const WavePointSite& cur,
                       const StableSite& stable, Vec2 pos,
                       const SpatialConfig& spatial);

class WirelessChannel {
 public:
  struct Stats {
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_dropped_retries = 0;
    std::uint64_t frames_dropped_unassociated = 0;
    std::uint64_t frames_dropped_handoff = 0;
    std::uint64_t frames_dropped_backlog = 0;
    std::uint64_t retry_attempts = 0;
    std::uint64_t handoffs = 0;
  };

  WirelessChannel(sim::EventLoop& loop, SignalModel model, ChannelConfig cfg,
                  sim::Rng rng);

  void add_wavepoint(BaseStation* wp);
  /// Registers a mobile that never moves faster than max_speed_mps;
  /// returns its index, which names it in the calls below.  The default
  /// bound, HUGE_VAL, turns the motion-bounded skip off for it.
  std::uint32_t add_mobile(Transceiver* mobile, net::IpAddress addr,
                           double max_speed_mps = HUGE_VAL);

  /// Indexes the WavePoints and the mobiles' addresses, then starts
  /// association polling and the interference process.  Registration
  /// closes here; a radio or address registered twice fails an assertion.
  void start();

  void transmit_from_mobile(std::uint32_t mobile, net::Packet pkt);
  void transmit_from_wavepoint(BaseStation* wp, net::Packet pkt);

  /// Driver-style signal readings for a mobile (for device records).
  SignalInfo signal_info(std::uint32_t mobile);

  /// The WavePoint a mobile is currently associated with, or nullptr.
  BaseStation* associated(std::uint32_t mobile) const;

  const Stats& stats() const { return stats_; }
  const ChannelConfig& config() const { return cfg_; }
  SignalModel& signal_model() { return model_; }
  sim::EventLoop& loop() { return loop_; }

  /// Effective byte rate for a given SNR (exposed for tests/benches).
  double rate_bps(double snr_db) const;
  /// Frame error probability for a frame of the given size at a given SNR.
  double frame_error_prob(double snr_db, std::uint32_t bytes) const;

  /// Wires the channel into the context's metrics (retransmit / drop /
  /// handoff counters) and, when telemetry is enabled, the flight recorder
  /// ("channel/air" track).  Call once from the world builder.
  void set_telemetry(sim::SimContext& ctx);

  /// The WavePoint cell index, built by start() (diagnostics and tests).
  const CellIndex& wavepoint_index() const { return wp_index_; }

  /// Distinct grid cells currently carrying or having carried a
  /// transmission (diagnostics; 1 in flat mode once anything transmitted).
  std::size_t busy_cells_tracked() const;

 private:
  struct MobileEntry {
    Transceiver* radio = nullptr;
    net::IpAddress addr;
    std::uint32_t assoc = kNoWavePoint;  ///< index into wavepoints_
    bool in_handoff = false;
    /// quiet_pos and quiet_assoc hold the position and association of the
    /// last scan that changed nothing.  The scan is a pure function of the
    /// two, so a poll that finds both bit-identical skips the mobile.
    bool quiet = false;
    std::uint32_t quiet_assoc = kNoWavePoint;
    Vec2 quiet_pos;
    double max_speed_mps = HUGE_VAL;  ///< registered by add_mobile
    /// Polls before this instant skip the mobile: its speed bound keeps it
    /// inside the stable radius of its last quiet scan.  associate() and
    /// begin_handoff() reset it.
    sim::TimePoint skip_until = sim::kEpoch;
    std::vector<net::Packet> deferred;  ///< held during handoff
  };

  struct Attempt {
    Transceiver* from;
    Transceiver* to;
    net::Packet pkt;
    int tries = 0;
  };

  /// Reserves the air for one attempt; `from_pos` is the transmitter's
  /// position now and `floor` busy_floor_at(from_pos).
  void start_attempt(Attempt attempt, Vec2 from_pos, sim::TimePoint floor);
  void finish_attempt(Attempt attempt);
  /// Polls every mobile once, in registration order.
  void poll_associations();
  /// One mobile's poll: the seed's association/handoff logic
  /// (poll_action), and the quiet record and skip deadline when it changes
  /// nothing.  Skips a mobile that is mid-handoff, quiet, or before its
  /// skip deadline (see MobileEntry).
  void poll_mobile(MobileEntry& entry);
  void associate(MobileEntry& entry, std::uint32_t wp);
  /// Drops the association and re-associates with `best` after the
  /// roaming outage.
  void begin_handoff(MobileEntry& entry, std::uint32_t best);
  void schedule_burst_flip();
  /// The mobile registered under addr, or nullptr.
  MobileEntry* find_mobile_by_addr(net::IpAddress addr);

  /// Earliest instant the medium is free across every cell within radio
  /// range of a transmitter at `pos` (the flat config reduces this to the
  /// seed's single busy_until_ read).
  sim::TimePoint busy_floor_at(Vec2 pos) const;
  /// Marks every cell within radio range of `pos` busy until `until`.
  void occupy_covered(Vec2 pos, sim::TimePoint until);
  /// busy_'s index of cell (ix, iy), or kOutsideBusyBox.
  std::size_t busy_index(std::int64_t ix, std::int64_t iy) const {
    const std::int64_t x = ix - busy_box_.x0;
    const std::int64_t y = iy - busy_box_.y0;
    if (x < 0 || x >= busy_nx_ || y < 0 || y >= busy_ny_) {
      return kOutsideBusyBox;
    }
    return static_cast<std::size_t>(y * busy_nx_ + x);
  }
  static constexpr std::size_t kOutsideBusyBox = SIZE_MAX;

  sim::EventLoop& loop_;
  SignalModel model_;
  ChannelConfig cfg_;
  sim::Rng rng_;
  std::vector<BaseStation*> wavepoints_;
  std::vector<WavePointSite> sites_;  ///< parallel to wavepoints_
  double max_tx_dbm_ = -HUGE_VAL;     ///< over sites_
  /// Parallel to sites_, filled by start() in free space; empty otherwise,
  /// which turns the motion-bounded skip off.
  std::vector<StableSite> stable_;
  /// By registration index: the uplink names its mobile directly.
  std::vector<MobileEntry> mobiles_;
  struct AddrEntry {
    net::IpAddress addr;
    std::uint32_t mobile;
  };
  /// Mobiles sorted by address, built by start(): the downlink's lookup.
  std::vector<AddrEntry> by_addr_;
  /// WavePoints bucketed by grid cell, built by start(); candidate queries
  /// for association and handoff go through this instead of scanning all
  /// of them.
  CellIndex wp_index_;
  /// Per-cell carrier-sense horizons, built by start(): row-major over
  /// busy_box_, the WavePoint grid widened by the radio range, so that
  /// every station in the grid or the ring of cells around it finds its
  /// cells here (flat mode: the single cell).  A cell outside the box
  /// keeps its horizon in busy_outside_ instead, so each cell lives in
  /// exactly one place.
  CellIndex::CellSpan busy_box_;
  std::int64_t busy_nx_ = 0;
  std::int64_t busy_ny_ = 0;
  std::vector<sim::TimePoint> busy_;
  std::unordered_map<CellIndex::CellKey, sim::TimePoint> busy_outside_;
  bool burst_active_ = false;
  bool started_ = false;
  Stats stats_;
  // Context-wide counters (nullptr until set_telemetry wires them).
  std::uint64_t* m_retransmits_ = nullptr;
  std::uint64_t* m_drops_ = nullptr;
  std::uint64_t* m_handoffs_ = nullptr;
  sim::Telemetry* tel_ = nullptr;  // non-null only while enabled
  sim::TrackId trk_air_ = sim::kNoTrack;
};

}  // namespace tracemod::wireless
