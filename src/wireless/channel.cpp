#include "wireless/channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "sim/assert.hpp"
#include "sim/metric_names.hpp"
#include "sim/perf/perf.hpp"
#include "sim/sim_context.hpp"

namespace tracemod::wireless {

AssociationScan scan_wavepoints(const CellIndex& index,
                                const std::vector<WavePointSite>& sites,
                                double max_tx_dbm, const SignalModel& model,
                                Vec2 pos, double radius,
                                std::uint32_t current) {
  // The perf plane's cell-index query: the candidate walk and every signal
  // the scan evaluates, the current WavePoint's included.
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kCellIndex,
                                  "cell.query");
  AssociationScan scan;
  const SignalConfig& sc = model.config();
  const bool bounded = model.attenuation_only();
  // Squared distance beyond which no candidate can beat bound_rx, the
  // signal the bound was last computed from; infinite until there is one,
  // and for good without the bound.
  double reach2 = HUGE_VAL;
  double bound_rx = -HUGE_VAL;
  auto bound_by = [&](double rx) {
    const double reach =
        association_range_m(max_tx_dbm, sc.ref_loss_db, sc.path_exponent,
                            rx) *
        (1.0 + 1e-6);
    reach2 = reach * reach;
    bound_rx = rx;
  };
  const CellIndex::CellSpan cells = index.cells_covering(pos, radius);
  if (current != kNoWavePoint) {
    scan.cur_rx = model.median_rx_dbm(sites[current].pos,
                                      sites[current].tx_dbm, pos);
    // The scan will visit `current`, so the best is at least cur_rx: seed
    // the bound from it.
    if (bounded && index.visits(cells, current)) bound_by(scan.cur_rx);
  }
  index.for_each_candidate(cells, [&](std::uint32_t id) {
    double rx = scan.cur_rx;  // the same call with the same arguments
    if (id != current) {
      const WavePointSite& site = sites[id];
      const double dx = site.pos.x - pos.x;
      const double dy = site.pos.y - pos.y;
      const double d2 = dx * dx + dy * dy;
      scan.other_d2 = std::min(scan.other_d2, d2);
      if (d2 > reach2) return;
      rx = model.median_rx_dbm(site.pos, site.tx_dbm, pos);
    }
    if (rx > scan.best_rx) {
      scan.best_rx = rx;
      scan.best = id;
      // Only a stronger signal tightens the bound.
      if (bounded && rx > bound_rx) bound_by(rx);
    }
  });
  return scan;
}

PollAction poll_action(const AssociationScan& scan, std::uint32_t current,
                       const ChannelConfig& cfg) {
  if (scan.best != kNoWavePoint) {
    if (current == kNoWavePoint) {
      return scan.best_rx >= cfg.association_floor_dbm ? PollAction::kAssociate
                                                       : PollAction::kKeep;
    }
    // Out of range of everything: the roaming protocol drops the
    // association entirely (5 dB of hysteresis against flapping).
    if (scan.best_rx < cfg.association_floor_dbm - 5.0) {
      return PollAction::kDrop;
    }
    if (scan.best != current &&
        scan.best_rx > scan.cur_rx + cfg.handoff_hysteresis_db) {
      return PollAction::kHandoff;
    }
    return PollAction::kKeep;
  }
  // Sharded, the query can miss the current WavePoint once the mobile has
  // walked away from it: judge the association by its own signal, as the
  // flat medium does.
  if (current != kNoWavePoint &&
      scan.cur_rx < cfg.association_floor_dbm - 5.0) {
    return PollAction::kDrop;
  }
  return PollAction::kKeep;
}

StableSite stable_site(const WavePointSite& site, double max_tx_dbm,
                       const SignalConfig& sc, const ChannelConfig& cfg) {
  StableSite stable;
  stable.rho = std::pow(10.0, (site.tx_dbm - max_tx_dbm +
                               cfg.handoff_hysteresis_db) /
                                  (10.0 * sc.path_exponent));
  // association_range_m clamps to the 1 m reference distance, which would
  // lend a WavePoint that never reaches floor - 5 a 1 m range.
  const double rx_floor = cfg.association_floor_dbm - 5.0;
  if (site.tx_dbm - sc.ref_loss_db >= rx_floor) {
    stable.floor_range_m = association_range_m(site.tx_dbm, sc.ref_loss_db,
                                               sc.path_exponent, rx_floor);
  }
  return stable;
}

double stable_radius_m(const AssociationScan& scan, const WavePointSite& cur,
                       const StableSite& stable, Vec2 pos,
                       const SpatialConfig& spatial) {
  const double d_a = distance(cur.pos, pos);
  double d_o = std::sqrt(scan.other_d2);
  double delta = stable.floor_range_m - d_a;
  if (spatial.sharded()) {
    d_o = std::min(d_o, spatial.radio_range_m);
    const double chebyshev = std::max(std::abs(cur.pos.x - pos.x),
                                      std::abs(cur.pos.y - pos.y));
    delta = std::min(delta, spatial.radio_range_m - chebyshev);
  }
  // Moving delta changes each distance by at most delta, and so each
  // 1 m-clamped one: rho (max(d_o, 1) - delta) >= max(d_a, 1) + delta.
  const double near = std::max(d_a, 1.0);
  const double other = std::max(d_o, 1.0);
  delta = std::min(delta, (stable.rho * other - near) / (1.0 + stable.rho));
  return delta * (1.0 - 1e-6) - 1e-6;
}

WirelessChannel::WirelessChannel(sim::EventLoop& loop, SignalModel model,
                                 ChannelConfig cfg, sim::Rng rng)
    : loop_(loop),
      model_(std::move(model)),
      cfg_(cfg),
      rng_(rng),
      wp_index_(cfg.spatial.cell_size) {}

void WirelessChannel::add_wavepoint(BaseStation* wp) {
  TM_ASSERT(wp != nullptr);
  // start() indexes the WavePoints once; none may arrive after it.
  TM_ASSERT(!started_);
  // WavePoints are fixed infrastructure: the scan reads their mounting
  // position and power from here, with no virtual call per candidate.
  sites_.push_back(WavePointSite{wp->position(), wp->tx_power_dbm()});
  max_tx_dbm_ = std::max(max_tx_dbm_, sites_.back().tx_dbm);
  wavepoints_.push_back(wp);
}

std::uint32_t WirelessChannel::add_mobile(Transceiver* mobile,
                                          net::IpAddress addr,
                                          double max_speed_mps) {
  TM_ASSERT(mobile != nullptr);
  TM_ASSERT(max_speed_mps >= 0.0);
  // Registration is closed once the channel starts: pending handoff events
  // hold pointers into mobiles_.
  TM_ASSERT(!started_);
  TM_ASSERT(mobiles_.size() < UINT32_MAX);
  MobileEntry& entry = mobiles_.emplace_back();
  entry.radio = mobile;
  entry.addr = addr;
  entry.max_speed_mps = max_speed_mps;
  return static_cast<std::uint32_t>(mobiles_.size() - 1);
}

void WirelessChannel::set_telemetry(sim::SimContext& ctx) {
  m_retransmits_ = &ctx.metrics().counter(sim::metric::kWirelessRetransmits);
  m_drops_ = &ctx.metrics().counter(sim::metric::kWirelessDrops);
  m_handoffs_ = &ctx.metrics().counter(sim::metric::kWirelessHandoffs);
  if (ctx.telemetry().enabled()) {
    tel_ = &ctx.telemetry();
    trk_air_ = tel_->track("channel", "air");
  }
}

void WirelessChannel::start() {
  if (started_) return;
  started_ = true;
  std::vector<Vec2> positions;
  positions.reserve(sites_.size());
  for (const WavePointSite& site : sites_) positions.push_back(site.pos);
  wp_index_ = CellIndex(cfg_.spatial.cell_size, positions);
  // A transmitter in the WavePoint grid or the ring of cells around it
  // covers cells at most ceil(range / cell) + 1 beyond the grid.  Widening
  // the box by that keeps the campus inside it; a degenerate cell size
  // that would make the box exceed the index's own cap leaves it
  // unwidened.
  busy_box_ = wp_index_.grid();
  if (cfg_.spatial.sharded()) {
    const double margin =
        std::max(0.0, std::ceil(cfg_.spatial.radio_range_m /
                                cfg_.spatial.cell_size)) +
        1.0;
    const double w = static_cast<double>(busy_box_.x1 - busy_box_.x0 + 1);
    const double h = static_cast<double>(busy_box_.y1 - busy_box_.y0 + 1);
    if ((w + 2 * margin) * (h + 2 * margin) <=
        static_cast<double>(CellIndex::kMaxGridCells)) {
      const auto m = static_cast<std::int64_t>(margin);
      busy_box_ = CellIndex::CellSpan{busy_box_.x0 - m, busy_box_.x1 + m,
                                      busy_box_.y0 - m, busy_box_.y1 + m};
    }
  }
  busy_nx_ = std::max<std::int64_t>(0, busy_box_.x1 - busy_box_.x0 + 1);
  busy_ny_ = std::max<std::int64_t>(0, busy_box_.y1 - busy_box_.y0 + 1);
  busy_.assign(static_cast<std::size_t>(busy_nx_ * busy_ny_), sim::kEpoch);
  // Registration is closed, so the mobiles can be indexed by address once.
  std::vector<const Transceiver*> radios;
  radios.reserve(mobiles_.size());
  by_addr_.reserve(mobiles_.size());
  for (std::uint32_t i = 0; i < mobiles_.size(); ++i) {
    radios.push_back(mobiles_[i].radio);
    by_addr_.push_back(AddrEntry{mobiles_[i].addr, i});
  }
  std::sort(radios.begin(), radios.end(), std::less<const Transceiver*>());
  TM_ASSERT(std::adjacent_find(radios.begin(), radios.end()) == radios.end());
  std::sort(by_addr_.begin(), by_addr_.end(),
            [](const AddrEntry& a, const AddrEntry& b) {
              return a.addr < b.addr;
            });
  TM_ASSERT(std::adjacent_find(by_addr_.begin(), by_addr_.end(),
                               [](const AddrEntry& a, const AddrEntry& b) {
                                 return a.addr == b.addr;
                               }) == by_addr_.end());
  if (model_.free_space()) {
    stable_.reserve(sites_.size());
    for (const WavePointSite& site : sites_) {
      stable_.push_back(
          stable_site(site, max_tx_dbm_, model_.config(), cfg_));
    }
  }
  poll_associations();  // immediate first pass, then periodic
  if (cfg_.burst_extra_err > 0.0) schedule_burst_flip();
}

WirelessChannel::MobileEntry* WirelessChannel::find_mobile_by_addr(
    net::IpAddress addr) {
  const auto it = std::lower_bound(
      by_addr_.begin(), by_addr_.end(), addr,
      [](const AddrEntry& e, net::IpAddress a) { return e.addr < a; });
  return it != by_addr_.end() && it->addr == addr ? &mobiles_[it->mobile]
                                                  : nullptr;
}

BaseStation* WirelessChannel::associated(std::uint32_t mobile) const {
  const std::uint32_t wp = mobiles_[mobile].assoc;
  return wp != kNoWavePoint ? wavepoints_[wp] : nullptr;
}

double WirelessChannel::rate_bps(double snr_db) const {
  const double factor =
      std::clamp(0.58 + 0.035 * (snr_db - 6.0), cfg_.min_rate_factor, 1.0);
  return cfg_.effective_rate_bps * factor;
}

double WirelessChannel::frame_error_prob(double snr_db,
                                         std::uint32_t bytes) const {
  const double p_ref =
      1.0 / (1.0 + std::exp((snr_db - cfg_.frame_err_mid_snr_db) /
                            cfg_.frame_err_width_db));
  const double scaled =
      1.0 - std::pow(1.0 - p_ref, static_cast<double>(bytes) / 1000.0);
  return std::clamp(scaled, 0.0, 1.0);
}

sim::TimePoint WirelessChannel::busy_floor_at(Vec2 pos) const {
  const CellIndex::CellSpan c =
      wp_index_.cells_covering(pos, cfg_.spatial.radio_range_m);
  sim::TimePoint floor = sim::kEpoch;
  for (std::int64_t iy = c.y0; iy <= c.y1; ++iy) {
    for (std::int64_t ix = c.x0; ix <= c.x1; ++ix) {
      const std::size_t i = busy_index(ix, iy);
      if (i != kOutsideBusyBox) {
        floor = std::max(floor, busy_[i]);
        continue;
      }
      const auto it = busy_outside_.find(CellIndex::key_of(ix, iy));
      if (it != busy_outside_.end()) floor = std::max(floor, it->second);
    }
  }
  return floor;
}

void WirelessChannel::occupy_covered(Vec2 pos, sim::TimePoint until) {
  const CellIndex::CellSpan c =
      wp_index_.cells_covering(pos, cfg_.spatial.radio_range_m);
  for (std::int64_t iy = c.y0; iy <= c.y1; ++iy) {
    for (std::int64_t ix = c.x0; ix <= c.x1; ++ix) {
      const std::size_t i = busy_index(ix, iy);
      sim::TimePoint& busy = i != kOutsideBusyBox
                                 ? busy_[i]
                                 : busy_outside_[CellIndex::key_of(ix, iy)];
      busy = std::max(busy, until);
    }
  }
}

std::size_t WirelessChannel::busy_cells_tracked() const {
  // Every reservation ends after the epoch.
  return busy_outside_.size() +
         static_cast<std::size_t>(
             std::count_if(busy_.begin(), busy_.end(),
                           [](sim::TimePoint t) { return t != sim::kEpoch; }));
}

void WirelessChannel::transmit_from_mobile(std::uint32_t mobile,
                                           net::Packet pkt) {
  MobileEntry& entry = mobiles_[mobile];
  if (entry.in_handoff) {
    // The driver buffers a few frames while the roaming protocol runs.
    if (entry.deferred.size() < cfg_.handoff_defer_cap) {
      entry.deferred.push_back(std::move(pkt));
    } else {
      ++stats_.frames_dropped_handoff;
    }
    return;
  }
  if (entry.assoc == kNoWavePoint) {
    ++stats_.frames_dropped_unassociated;
    return;
  }
  const Vec2 pos = entry.radio->position();
  const sim::TimePoint floor = busy_floor_at(pos);
  if (floor - loop_.now() > cfg_.backlog_cap) {
    ++stats_.frames_dropped_backlog;
    return;
  }
  start_attempt(
      Attempt{entry.radio, wavepoints_[entry.assoc], std::move(pkt), 0}, pos,
      floor);
}

void WirelessChannel::transmit_from_wavepoint(BaseStation* wp,
                                              net::Packet pkt) {
  MobileEntry* entry = find_mobile_by_addr(pkt.dst);
  if (entry == nullptr || entry->assoc == kNoWavePoint ||
      wavepoints_[entry->assoc] != wp) {
    ++stats_.frames_dropped_unassociated;
    return;
  }
  if (entry->in_handoff) {
    ++stats_.frames_dropped_handoff;
    return;
  }
  const Vec2 pos = wp->position();
  const sim::TimePoint floor = busy_floor_at(pos);
  if (floor - loop_.now() > cfg_.backlog_cap) {
    ++stats_.frames_dropped_backlog;
    return;
  }
  start_attempt(Attempt{wp, entry->radio, std::move(pkt), 0}, pos, floor);
}

void WirelessChannel::start_attempt(Attempt attempt, Vec2 from_pos,
                                    sim::TimePoint floor) {
  // Binary exponential backoff; the first attempt draws from a small window.
  const int exp = std::min(attempt.tries + 1, cfg_.max_backoff_exp);
  const auto slots = rng_.uniform_int(0, (std::int64_t{1} << exp) - 1);
  const sim::Duration backoff = cfg_.slot * slots;

  // Carrier sense covers every cell within radio range of the transmitter
  // (in the flat configuration that is the single global cell, i.e. the
  // seed's scalar busy horizon): `floor`, read by the caller.
  const sim::TimePoint start =
      std::max(loop_.now(), floor) + cfg_.difs + backoff;
  // Duration uses the median SNR at reservation time: the radio picks its
  // timing before knowing whether the frame will survive.
  const double rx = model_.median_rx_dbm(
      from_pos, attempt.from->tx_power_dbm(), attempt.to->position());
  const double rate = rate_bps(model_.snr_db(rx));
  const sim::Duration tx_time =
      cfg_.preamble +
      sim::from_seconds(attempt.pkt.wire_size() * 8.0 / rate);
  const sim::TimePoint done = start + tx_time;
  // The reservation keeps every covered cell deferring, so a station just
  // across a cell border still backs off this transmission.
  occupy_covered(from_pos, done);
  if (tel_ != nullptr) {
    // The reservation window is known now; record the span with its
    // (future) endpoints instead of scheduling anything.
    tel_->recorder().begin(trk_air_, "air.tx", attempt.pkt.id, start,
                           static_cast<double>(attempt.pkt.wire_size()));
    tel_->recorder().end(trk_air_, "air.tx", attempt.pkt.id, done);
  }
  loop_.schedule_at(
      done,
      [this, attempt = std::move(attempt)]() mutable {
        finish_attempt(std::move(attempt));
      },
      "air.finish");
}

void WirelessChannel::finish_attempt(Attempt attempt) {
  const Vec2 from_pos = attempt.from->position();
  const double rx = model_.rx_dbm(from_pos, attempt.from->tx_power_dbm(),
                                  attempt.to->position(), loop_.now()) +
                    model_.fast_fade_db();
  double p_err = frame_error_prob(model_.snr_db(rx), attempt.pkt.wire_size());
  if (burst_active_) p_err = std::min(1.0, p_err + cfg_.burst_extra_err);

  if (!rng_.chance(p_err)) {
    ++stats_.frames_delivered;
    // Host/bridge processing happens off the air: it delays delivery but
    // does not hold the channel.
    Transceiver* to = attempt.to;
    loop_.schedule(
        cfg_.processing,
        [to, pkt = std::move(attempt.pkt)]() mutable {
          to->receive_frame(std::move(pkt));
        },
        "air.deliver");
    return;
  }
  if (attempt.tries < cfg_.max_retries) {
    ++attempt.tries;
    ++stats_.retry_attempts;
    if (m_retransmits_ != nullptr) ++*m_retransmits_;
    if (tel_ != nullptr) {
      tel_->recorder().instant(trk_air_, "air.retransmit", attempt.pkt.id,
                               loop_.now(),
                               static_cast<double>(attempt.tries));
    }
    // The retry goes out at this same instant, from the same position.
    const sim::TimePoint floor = busy_floor_at(from_pos);
    start_attempt(std::move(attempt), from_pos, floor);
    return;
  }
  ++stats_.frames_dropped_retries;
  if (m_drops_ != nullptr) ++*m_drops_;
  if (tel_ != nullptr) {
    tel_->recorder().instant(trk_air_, "air.drop", attempt.pkt.id,
                             loop_.now());
  }
}

void WirelessChannel::associate(MobileEntry& entry, std::uint32_t wp) {
  if (entry.assoc != kNoWavePoint) {
    wavepoints_[entry.assoc]->unclaim_mobile(entry.addr);
  }
  entry.assoc = wp;
  entry.skip_until = sim::kEpoch;
  if (wp != kNoWavePoint) wavepoints_[wp]->claim_mobile(entry.addr);
}

void WirelessChannel::poll_mobile(MobileEntry& entry) {
  if (entry.in_handoff || loop_.now() < entry.skip_until) return;
  const Vec2 pos = entry.radio->position();
  if (entry.quiet && entry.quiet_assoc == entry.assoc &&
      std::memcmp(&entry.quiet_pos, &pos, sizeof(Vec2)) == 0) {
    return;
  }
  // Candidate query: in the flat configuration this visits every WavePoint
  // in registration order (the seed's full scan); sharded, only WavePoints
  // in cells overlapping the interaction disc -- the fix for the old
  // O(mobiles x wavepoints) poll.
  const AssociationScan scan =
      scan_wavepoints(wp_index_, sites_, max_tx_dbm_, model_, pos,
                      cfg_.spatial.radio_range_m, entry.assoc);
  switch (poll_action(scan, entry.assoc, cfg_)) {
    case PollAction::kAssociate:
      associate(entry, scan.best);
      return;
    case PollAction::kDrop:
      associate(entry, kNoWavePoint);
      return;
    case PollAction::kHandoff:
      begin_handoff(entry, scan.best);
      return;
    case PollAction::kKeep:
      break;
  }
  // Nothing changed, so a scan at the same position and association would
  // change nothing again; nor would one anywhere within the stable radius,
  // which the mobile's speed bound cannot leave before delta / v.
  entry.quiet = true;
  entry.quiet_assoc = entry.assoc;
  entry.quiet_pos = pos;
  if (entry.assoc == kNoWavePoint || stable_.empty() ||
      !(entry.max_speed_mps < HUGE_VAL)) {
    return;
  }
  const double delta = stable_radius_m(scan, sites_[entry.assoc],
                                       stable_[entry.assoc], pos, cfg_.spatial);
  if (!(delta > 0.0)) return;
  const double quiet_s = delta / entry.max_speed_mps;  // +inf at rest
  entry.skip_until = quiet_s < 1e9 ? loop_.now() + sim::from_seconds(quiet_s)
                                   : sim::TimePoint::max();
}

void WirelessChannel::begin_handoff(MobileEntry& entry, std::uint32_t best) {
  // Roaming protocol: brief outage, then re-association (the paper's
  // WavePoint handoffs).
  wavepoints_[entry.assoc]->unclaim_mobile(entry.addr);
  entry.assoc = kNoWavePoint;
  entry.in_handoff = true;
  entry.skip_until = sim::kEpoch;
  ++stats_.handoffs;
  if (m_handoffs_ != nullptr) ++*m_handoffs_;
  if (tel_ != nullptr) {
    tel_->recorder().begin(trk_air_, "handoff", stats_.handoffs,
                           loop_.now());
    tel_->recorder().end(trk_air_, "handoff", stats_.handoffs,
                         loop_.now() + cfg_.handoff_outage);
  }
  MobileEntry* entry_ptr = &entry;
  loop_.schedule(
      cfg_.handoff_outage,
      [this, entry_ptr, best] {
        entry_ptr->in_handoff = false;
        associate(*entry_ptr, best);
        // Flush the frames the driver held back during the handoff.  Each
        // one's reservation moves the floor for the next.
        std::vector<net::Packet> held = std::move(entry_ptr->deferred);
        entry_ptr->deferred.clear();
        const Vec2 pos = entry_ptr->radio->position();
        for (net::Packet& pkt : held) {
          const sim::TimePoint floor = busy_floor_at(pos);
          start_attempt(Attempt{entry_ptr->radio, wavepoints_[best],
                                std::move(pkt), 0},
                        pos, floor);
        }
      },
      "wireless.handoff");
}

void WirelessChannel::poll_associations() {
  // Registration order, one mobile at a time: the seed's interleaved
  // scan-then-apply loop.
  for (MobileEntry& entry : mobiles_) poll_mobile(entry);
  loop_.schedule(cfg_.association_poll, [this] { poll_associations(); },
                 "wireless.poll");
}

void WirelessChannel::schedule_burst_flip() {
  const double mean = burst_active_ ? sim::to_seconds(cfg_.burst_mean_on)
                                    : sim::to_seconds(cfg_.burst_mean_off);
  loop_.schedule(sim::from_seconds(rng_.exponential(mean)),
                 [this] {
                   burst_active_ = !burst_active_;
                   schedule_burst_flip();
                 },
                 "wireless.burst");
}

SignalInfo WirelessChannel::signal_info(std::uint32_t mobile) {
  const MobileEntry& entry = mobiles_[mobile];
  if (entry.assoc == kNoWavePoint) {
    // No base station in range: the driver reads noise.
    return model_.to_signal_info(model_.config().noise_floor_dbm);
  }
  const BaseStation* wp = wavepoints_[entry.assoc];
  const double rx = model_.rx_dbm(wp->position(), wp->tx_power_dbm(),
                                  entry.radio->position(), loop_.now());
  return model_.to_signal_info(rx);
}

}  // namespace tracemod::wireless
