#include "core/distiller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <variant>

#include "sim/perf/perf.hpp"

namespace tracemod::core {

namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if (a % b != 0 && (a < 0) != (b < 0)) --q;
  return q;
}

}  // namespace

void validate_distill_config(const DistillConfig& cfg) {
  if (cfg.window <= sim::Duration::zero() ||
      cfg.step <= sim::Duration::zero()) {
    throw std::invalid_argument(
        "distill: window and step must be positive durations");
  }
}

Distiller::Distiller(DistillConfig cfg) : cfg_(cfg) {
  validate_distill_config(cfg_);
}

std::vector<EchoGroup> reconstruct_echo_groups(
    const std::vector<EchoSent>& sent, const std::vector<EchoReply>& replies) {
  // Identify the workload's two packet sizes: the smallest observed size is
  // stage 1, the largest is stage 2.
  if (sent.size() < 3) return {};
  double s_small = 1e18, s_large = 0;
  for (const auto& e : sent) {
    s_small = std::min(s_small, static_cast<double>(e.ip_bytes));
    s_large = std::max(s_large, static_cast<double>(e.ip_bytes));
  }
  if (s_small >= s_large) return {};  // degenerate workload

  // Replies by sequence number, in a flat table keyed by the distance (mod
  // 2^16) from the first sent echo and sized to the largest key a sent echo
  // uses: a short trace pays for its own echoes, not for 65,536 slots.  A
  // reply keyed past every sent echo is dropped; the last reply for a
  // sequence number wins.
  const std::uint16_t base = sent.front().icmp_seq;
  const auto key = [base](std::uint16_t seq) {
    return static_cast<std::uint16_t>(seq - base);
  };
  std::size_t slots = 0;
  for (const auto& e : sent) {
    slots = std::max<std::size_t>(slots, key(e.icmp_seq) + 1u);
  }
  std::vector<const EchoReply*> reply_by_key(slots, nullptr);
  for (const auto& r : replies) {
    if (key(r.icmp_seq) < slots) reply_by_key[key(r.icmp_seq)] = &r;
  }

  std::vector<EchoGroup> groups;
  for (std::size_t i = 0; i + 2 < sent.size(); ++i) {
    const auto& e1 = sent[i];
    const auto& e2 = sent[i + 1];
    const auto& e3 = sent[i + 2];
    if (e1.ip_bytes != static_cast<std::uint32_t>(s_small)) continue;
    if (e2.ip_bytes != static_cast<std::uint32_t>(s_large)) continue;
    if (e3.ip_bytes != static_cast<std::uint32_t>(s_large)) continue;
    if (e2.icmp_seq != static_cast<std::uint16_t>(e1.icmp_seq + 1)) continue;
    if (e3.icmp_seq != static_cast<std::uint16_t>(e1.icmp_seq + 2)) continue;

    const EchoReply* r1 = reply_by_key[key(e1.icmp_seq)];
    const EchoReply* r2 = reply_by_key[key(e2.icmp_seq)];
    const EchoReply* r3 = reply_by_key[key(e3.icmp_seq)];
    if (r1 == nullptr || r2 == nullptr || r3 == nullptr) continue;

    EchoGroup g;
    g.at = r3->at;
    g.t1_s = sim::to_seconds(r1->rtt);
    g.t2_s = sim::to_seconds(r2->rtt);
    g.t3_s = sim::to_seconds(r3->rtt);
    g.s1_bytes = s_small;
    g.s2_bytes = s_large;
    if (g.t1_s <= 0 || g.t2_s <= 0 || g.t3_s <= 0) continue;
    groups.push_back(g);
  }
  return groups;
}

std::vector<Distiller::Estimate> estimate_delay_parameters(
    const std::vector<EchoGroup>& groups, Distiller::Stats* stats) {
  std::vector<Distiller::Estimate> estimates;
  std::optional<Distiller::Estimate> last_good;  // correction baseline
  for (const EchoGroup& g : groups) {
    ++stats->groups_total;
    // Equations (5)-(8).
    const double v = (g.t2_s - g.t1_s) / (2.0 * (g.s2_bytes - g.s1_bytes));
    double f = g.t1_s / 2.0 - g.s1_bytes * v;
    double vb = (g.t3_s - g.t2_s) / g.s2_bytes;
    double vr = v - vb;

    // Floating-point cancellation can leave Vr (or Vb) a hair below zero
    // when the true value is zero; that is not a "different conditions"
    // signal, so clamp instead of correcting.
    if (vr < 0.0 && -vr < 1e-3 * std::max(v, 1e-12)) vr = 0.0;
    if (vb < 0.0 && -vb < 1e-3 * std::max(v, 1e-12)) vb = 0.0;

    // A marginally negative F is a structural artifact of measuring over a
    // shared medium (replies queue behind the probe's own later packets,
    // inflating V slightly); clamp it rather than discarding the group.
    // Substantially negative parameters still take the correction path.
    if (f < 0.0 && f >= -0.1 * g.t1_s) f = 0.0;

    if (f >= 0.0 && vb >= 0.0 && vr >= 0.0) {
      Distiller::Estimate e{g.at, f, vb, vr, false};
      estimates.push_back(e);
      last_good = e;
      continue;
    }
    if (!last_good) {
      ++stats->groups_skipped;
      continue;
    }
    // Negative parameter: the packets saw different conditions.  Reuse the
    // previous good Vb/Vr and fold the observed-vs-expected time difference
    // into F, attributing short-term variation to media access delay
    // (Section 3.2.2).  The difference is averaged over the whole group so
    // a delay spike on any of the three packets is captured.  The baseline
    // stays last_good so the correction cannot cascade.
    const double v_prev =
        last_good->per_byte_bottleneck + last_good->per_byte_residual;
    const double t1_exp = 2.0 * (last_good->latency_s + g.s1_bytes * v_prev);
    const double t2_exp = 2.0 * (last_good->latency_s + g.s2_bytes * v_prev);
    const double t3_exp =
        t2_exp + g.s2_bytes * last_good->per_byte_bottleneck;
    // Media access delay strikes individual packets, so the group's worst
    // round-trip deviation is the best instantaneous estimate of it.
    const double diff = std::max({g.t1_s - t1_exp, g.t2_s - t2_exp,
                                  g.t3_s - t3_exp}) /
                        2.0;
    const double f_corrected = std::max(0.0, last_good->latency_s + diff);
    estimates.push_back(Distiller::Estimate{g.at, f_corrected,
                                            last_good->per_byte_bottleneck,
                                            last_good->per_byte_residual,
                                            true});
    ++stats->groups_corrected;
  }
  return estimates;
}

double loss_from_gap(std::int64_t in_window, std::int64_t seq_lo,
                     std::int64_t seq_hi, double previous, double max_loss) {
  const std::int64_t a = seq_hi - seq_lo - 1;
  if (a <= 0) return previous;
  const double ratio = std::min(
      1.0, static_cast<double>(in_window) / static_cast<double>(a));
  const double loss = 1.0 - std::sqrt(ratio);
  return std::clamp(loss, 0.0, max_loss);
}

double window_loss_over_replies(const std::vector<EchoReply>& replies,
                                std::uint64_t echoes_sent_total,
                                sim::TimePoint w_begin, sim::TimePoint w_end,
                                double previous, double max_loss) {
  if (replies.empty() || echoes_sent_total == 0) return previous;

  // Sequence of the last reply strictly before the window, and of the first
  // reply at/after the window's end; the workload's sequence numbers are
  // dense, so the gap tells us how many ECHOs went unanswered.
  std::int64_t seq_lo = -1;
  std::int64_t seq_hi = static_cast<std::int64_t>(echoes_sent_total);
  std::int64_t b = 0;
  for (const auto& r : replies) {
    if (r.at < w_begin) {
      seq_lo = std::max<std::int64_t>(seq_lo, r.icmp_seq);
    } else if (r.at >= w_end) {
      seq_hi = std::min<std::int64_t>(seq_hi, r.icmp_seq);
    } else {
      ++b;
    }
  }
  return loss_from_gap(b, seq_lo, seq_hi, previous, max_loss);
}

std::size_t step_count(sim::TimePoint t0, sim::TimePoint t_end,
                       sim::Duration step) {
  if (t_end <= t0) return 0;
  const std::int64_t d = (t_end - t0).count();
  const std::int64_t s = step.count();
  return static_cast<std::size_t>(d / s + (d % s != 0 ? 1 : 0));
}

StepWindows::StepWindows(sim::TimePoint t0, const DistillConfig& cfg)
    : begin_((t0 + cfg.step / 2 - cfg.window / 2).time_since_epoch().count()),
      end_((t0 + cfg.step / 2 + cfg.window / 2).time_since_epoch().count()),
      step_(cfg.step.count()) {}

// Window j holds t when begin + j*step <= t < end + j*step, that is when
// floor((t - end) / step) < j <= floor((t - begin) / step).
std::int64_t StepWindows::first(sim::TimePoint t) const {
  return floor_div(t.time_since_epoch().count() - end_, step_) + 1;
}

std::int64_t StepWindows::last(sim::TimePoint t) const {
  return floor_div(t.time_since_epoch().count() - begin_, step_);
}

double LossLattice::loss(std::size_t j, double previous,
                         double max_loss) const {
  if (replies == 0 || echoes_sent == 0) return previous;
  return loss_from_gap(in_window[j], seq_lo[j], seq_hi[j], previous,
                       max_loss);
}

LatticeBuilder::LatticeBuilder(sim::TimePoint t0, const DistillConfig& cfg,
                               std::int64_t max_steps)
    : windows_(t0, cfg), max_steps_(max_steps) {}

void LatticeBuilder::add_reply(sim::TimePoint at, std::uint16_t seq) {
  ++replies_;
  const std::int64_t last = windows_.last(at);
  // A streaming build holds a reply whose seq_lo slot, one past its last
  // window, lies beyond the slots the replies so far pay for.
  const std::int64_t paid =
      kDenseBaseSlots +
      kDenseSlotsPerReply * static_cast<std::int64_t>(replies_);
  if (max_steps_ == kUnbounded && last + 2 > paid) {
    held_.push_back(HeldReply{at, seq});
    return;
  }
  place(windows_.first(at), last, seq);
}

void LatticeBuilder::place(std::int64_t first, std::int64_t last,
                           std::uint16_t seq) {
  // Before every window after `last` (all of them when last < 0), and at or
  // past the end of every window before `first` (all of them when first is
  // past the trace's steps).
  const std::int64_t lo_slot = std::max<std::int64_t>(last + 1, 0);
  const std::int64_t hi_slot = std::min(first - 1, max_steps_ - 1);
  const std::int64_t in_last = std::min(last, max_steps_ - 1);
  grow(std::min(lo_slot + 1, max_steps_));
  for (std::int64_t j = std::max<std::int64_t>(first, 0); j <= in_last; ++j) {
    ++in_window_[static_cast<std::size_t>(j)];
  }
  if (lo_slot < max_steps_) {
    auto& lo = cand_lo_[static_cast<std::size_t>(lo_slot)];
    lo = std::max<std::int64_t>(lo, seq);
  }
  if (hi_slot >= 0) {
    auto& hi = cand_hi_[static_cast<std::size_t>(hi_slot)];
    hi = std::min<std::int64_t>(hi, seq);
  }
}

LossLattice LatticeBuilder::finalize(std::size_t steps,
                                     std::uint64_t echoes_sent) && {
  // The step count now caps every held reply: its candidates past the
  // last step fold into the last slot or drop, as in a capped build.
  max_steps_ = static_cast<std::int64_t>(steps);
  for (const HeldReply& r : held_) {
    place(windows_.first(r.at), windows_.last(r.at), r.seq);
  }
  grow(static_cast<std::int64_t>(steps));
  LossLattice out;
  out.replies = replies_;
  out.echoes_sent = echoes_sent;
  in_window_.resize(steps);
  out.in_window = std::move(in_window_);
  out.seq_lo.resize(steps);
  out.seq_hi.resize(steps);
  std::int64_t run_lo = -1;
  for (std::size_t j = 0; j < steps; ++j) {
    run_lo = std::max(run_lo, cand_lo_[j]);
    out.seq_lo[j] = run_lo;
  }
  std::int64_t run_hi = static_cast<std::int64_t>(echoes_sent);
  for (std::size_t j = cand_hi_.size(); j-- > 0;) {
    run_hi = std::min(run_hi, cand_hi_[j]);
    if (j < steps) out.seq_hi[j] = run_hi;
  }
  return out;
}

void LatticeBuilder::grow(std::int64_t n) {
  if (n <= static_cast<std::int64_t>(in_window_.size())) return;
  const auto size = static_cast<std::size_t>(n);
  in_window_.resize(size, 0);
  cand_lo_.resize(size, std::numeric_limits<std::int64_t>::min());
  cand_hi_.resize(size, std::numeric_limits<std::int64_t>::max());
}

ReplayTrace assemble_replay(
    const DistillConfig& cfg,
    const std::vector<Distiller::Estimate>& estimates, sim::TimePoint t0,
    sim::TimePoint t_end,
    const std::function<double(sim::TimePoint, sim::TimePoint, double)>&
        window_loss,
    Distiller::Stats* stats) {
  validate_distill_config(cfg);
  struct WindowResult {
    bool have_delay = false;
    double f = 0, vb = 0, vr = 0;  ///< sums, then averages
    std::size_t n = 0;
  };
  const std::size_t steps = step_count(t0, t_end, cfg.step);
  std::vector<WindowResult> wins(steps);

  const StepWindows windows(t0, cfg);
  const auto last_step = static_cast<std::int64_t>(steps) - 1;
  for (const Distiller::Estimate& e : estimates) {
    const std::int64_t last = std::min(windows.last(e.at), last_step);
    for (std::int64_t j = std::max<std::int64_t>(windows.first(e.at), 0);
         j <= last; ++j) {
      WindowResult& w = wins[static_cast<std::size_t>(j)];
      w.f += e.latency_s;
      w.vb += e.per_byte_bottleneck;
      w.vr += e.per_byte_residual;
      ++w.n;
    }
  }

  std::vector<double> losses(steps);
  double prev_loss = 0.0;
  sim::TimePoint step_start = t0;
  for (std::size_t j = 0; j < steps; ++j, step_start += cfg.step) {
    const sim::TimePoint mid = step_start + cfg.step / 2;
    const sim::TimePoint w_begin = mid - cfg.window / 2;
    const sim::TimePoint w_end = mid + cfg.window / 2;

    WindowResult& w = wins[j];
    if (w.n > 0) {
      w.have_delay = true;
      w.f /= static_cast<double>(w.n);
      w.vb /= static_cast<double>(w.n);
      w.vr /= static_cast<double>(w.n);
    } else {
      ++stats->windows_empty;
    }

    prev_loss = window_loss(w_begin, w_end, prev_loss);
    losses[j] = prev_loss;
  }

  // Fill windows with no delay estimate (deep outages) from neighbours:
  // forward fill, then backward fill for a leading gap.
  for (std::size_t i = 1; i < wins.size(); ++i) {
    if (!wins[i].have_delay && wins[i - 1].have_delay) {
      wins[i] = wins[i - 1];
    }
  }
  for (std::size_t i = wins.size(); i-- > 1;) {
    if (!wins[i - 1].have_delay && wins[i].have_delay) {
      wins[i - 1] = wins[i];
    }
  }

  std::vector<QualityTuple> tuples;
  tuples.reserve(wins.size());
  for (std::size_t i = 0; i < wins.size(); ++i) {
    if (!wins[i].have_delay) continue;  // trace had no usable group at all
    tuples.push_back(
        QualityTuple{cfg.step, wins[i].f, wins[i].vb, wins[i].vr, losses[i]});
  }
  return ReplayTrace(std::move(tuples));
}

ReplayTrace Distiller::distill(const trace::CollectedTrace& trace) {
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kDistill,
                                  "distill.run");
  stats_ = Stats{};
  std::vector<EchoSent> sent;
  std::vector<EchoReply> replies;
  for (const trace::TraceRecord& rec : trace.records) {
    const auto* p = std::get_if<trace::PacketRecord>(&rec);
    if (p == nullptr) continue;
    if (is_echo_sent(*p)) {
      sent.push_back(EchoSent{p->icmp_seq, p->ip_bytes});
    } else if (is_echo_reply(*p)) {
      replies.push_back(EchoReply{p->at, p->rtt(), p->icmp_seq});
    }
  }

  const auto groups = reconstruct_echo_groups(sent, replies);
  estimates_ = estimate_delay_parameters(groups, &stats_);

  if (trace.records.empty()) return ReplayTrace{};
  const sim::TimePoint t0 = trace::record_time(trace.records.front());
  const sim::TimePoint t_end = trace::record_time(trace.records.back());
  const std::size_t steps = step_count(t0, t_end, cfg_.step);

  LatticeBuilder lattice(t0, cfg_, static_cast<std::int64_t>(steps));
  for (const EchoReply& r : replies) lattice.add_reply(r.at, r.icmp_seq);
  const LossLattice loss = std::move(lattice).finalize(steps, sent.size());

  std::size_t step = 0;
  return assemble_replay(
      cfg_, estimates_, t0, t_end,
      [&](sim::TimePoint, sim::TimePoint, double prev) {
        return loss.loss(step++, prev, cfg_.max_loss);
      },
      &stats_);
}

}  // namespace tracemod::core
