#include "core/modulation.hpp"

#include <algorithm>

#include "sim/metric_names.hpp"
#include "sim/perf/perf.hpp"
#include "sim/sim_context.hpp"

namespace tracemod::core {

ModulationLayer::ModulationLayer(std::unique_ptr<net::NetDevice> inner,
                                 sim::EventLoop& loop,
                                 ReplayPseudoDevice& device,
                                 ModulationConfig cfg)
    : net::DeviceShim(std::move(inner)),
      loop_(loop),
      device_(device),
      cfg_(cfg),
      tick_(cfg.tick),
      rng_(cfg.drop_seed) {}

void ModulationLayer::set_telemetry(sim::SimContext& ctx,
                                    const std::string& node) {
  m_drops_ = &ctx.metrics().counter(sim::metric::kModulationDrops);
  if (!ctx.telemetry().enabled()) return;
  tel_ = &ctx.telemetry();
  trk_ = tel_->track(node, "modulation");
  depth_series_ = &ctx.metrics().series(sim::metric::kDelayQueueDepth);
  backlog_series_ = &ctx.metrics().series(sim::metric::kBottleneckBacklog);
}

bool ModulationLayer::refresh_tuple() {
  if (!have_tuple_) {
    auto next = device_.read();
    if (!next) return false;  // nothing to modulate with yet
    tuple_ = *next;
    have_tuple_ = true;
    tuple_expires_ = loop_.now() + tuple_.d;
    ++stats_.tuples_consumed;
  }
  // Advance through segments whose emulated time has elapsed.
  while (loop_.now() >= tuple_expires_) {
    auto next = device_.read();
    if (!next) {
      if (device_.writer_closed()) {
        // The daemon wrote the trace once and closed the pseudo-device:
        // the experiment is over, stop modulating.
        have_tuple_ = false;
        return false;
      }
      break;  // daemon merely behind: hold the current tuple
    }
    tuple_ = *next;
    tuple_expires_ += tuple_.d;
    ++stats_.tuples_consumed;
  }
  return true;
}

void ModulationLayer::on_outbound(net::Packet pkt) {
  modulate(std::move(pkt), Direction::kOut);
}

void ModulationLayer::on_inbound(net::Packet pkt) {
  modulate(std::move(pkt), Direction::kIn);
}

void ModulationLayer::modulate(net::Packet pkt, Direction dir) {
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kModulation,
                                  "modulation.modulate");
  if (!refresh_tuple()) {
    // No model parameters yet: transparent pass-through.
    ++stats_.passed_unmodulated;
    if (dir == Direction::kOut) {
      send_down(std::move(pkt));
    } else {
      send_up(std::move(pkt));
    }
    return;
  }
  if (dir == Direction::kOut) {
    ++stats_.modulated_out;
  } else {
    ++stats_.modulated_in;
  }

  const double s = pkt.ip_size();
  double vb = tuple_.per_byte_bottleneck;
  if (dir == Direction::kIn) {
    // Endpoint placement: inbound packets were already serialized by the
    // physical network before reaching the delay queue, and the queue
    // charges them the full emulated cost again.  Compensation subtracts
    // the measured physical per-byte cost to cancel the double charge.
    vb = std::max(0.0, vb + cfg_.inbound_physical_vb -
                           cfg_.inbound_vb_compensation);
  }

  // Unified bottleneck queue shared by both directions.
  const sim::TimePoint now = loop_.now();
  const sim::TimePoint start = std::max(now, bottleneck_busy_until_);
  const sim::TimePoint bottleneck_done = start + sim::from_seconds(s * vb);
  if (tel_ != nullptr) {
    // The whole bottleneck window is decided here; record it with its
    // (future) endpoints.  The backlog sample is what this packet found
    // queued ahead of it, in seconds of transmission time.
    backlog_series_->sample(now, sim::to_seconds(start - now));
    tel_->recorder().begin(trk_, "modulate", pkt.id, now, s);
    tel_->recorder().begin(trk_, "bottleneck", pkt.id, start, s);
    tel_->recorder().end(trk_, "bottleneck", pkt.id, bottleneck_done);
  }
  bottleneck_busy_until_ = bottleneck_done;

  // Losses strike after the bottleneck: a dropped packet still consumed
  // bottleneck capacity.
  if (rng_.chance(tuple_.loss)) {
    ++stats_.dropped;
    if (m_drops_ != nullptr) ++*m_drops_;
    if (tel_ != nullptr) {
      tel_->recorder().instant(trk_, "mod.drop", pkt.id, bottleneck_done);
      tel_->recorder().end(trk_, "modulate", pkt.id, bottleneck_done);
    }
    return;
  }

  const sim::TimePoint release_ideal =
      bottleneck_done + sim::from_seconds(tuple_.latency_s +
                                          s * tuple_.per_byte_residual);
  const sim::Duration delay = release_ideal - now;

  if (tick_.below_threshold(delay)) {
    // Under half a clock tick: send immediately (Section 3.3).
    ++stats_.sent_immediately;
    if (tel_ != nullptr) {
      tel_->recorder().instant(trk_, "mod.send_now", pkt.id, now);
      tel_->recorder().end(trk_, "modulate", pkt.id, now);
    }
    release(std::move(pkt), dir);
    return;
  }
  ++stats_.scheduled;
  const sim::TimePoint at = tick_.quantize(release_ideal);
  const std::uint64_t id = pkt.id;
  if (tel_ != nullptr) {
    tel_->recorder().end(trk_, "modulate", id, at);
    depth_series_->sample(now, static_cast<double>(++delay_queue_depth_));
  }
  loop_.schedule_at(
      at,
      [this, dir, pkt = std::move(pkt)]() mutable {
        if (tel_ != nullptr) {
          depth_series_->sample(loop_.now(),
                                static_cast<double>(--delay_queue_depth_));
        }
        release(std::move(pkt), dir);
      },
      "mod.release");
}

void ModulationLayer::release(net::Packet pkt, Direction dir) {
  if (dir == Direction::kOut) {
    send_down(std::move(pkt));
  } else {
    send_up(std::move(pkt));
  }
}

}  // namespace tracemod::core
