#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "core/stream_distiller.hpp"
#include "sim/json.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "version.hpp"

namespace tracemod::audit {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

void check(std::vector<std::string>& breaches, const char* what, double value,
           double limit, bool at_least = false) {
  const bool bad = at_least ? value < limit : value > limit;
  if (!bad) return;
  breaches.push_back(std::string(what) + " " + fmt("%.4f", value) +
                     (at_least ? " < " : " > ") + fmt("%.4f", limit));
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kBreach: return "breach";
    case Verdict::kUnauditable: return "unauditable";
  }
  return "?";
}

Verdict window_verdict(const core::WindowSummary& window) {
  if (window.damaged || window.shed) return Verdict::kUnauditable;
  return Verdict::kPass;
}

Baseline measure_baseline(const SecondOrderConfig& cfg,
                          sim::Duration run_for) {
  // The calibration run must be clean: no injected pressure or daemon
  // faults, and a sibling seed so it never shares a world with the audited
  // run.
  SecondOrderConfig clean = cfg;
  clean.buffer_pressure = 1.0;
  clean.emulator.daemon_faults = {};
  clean.emulator.seed = cfg.emulator.seed + 1;
  clean.run_for = run_for;
  const SecondOrderResult result =
      collect_second_order(core::ReplayTrace{}, clean);

  // The full eq. (5) pipeline breaks down on the bare Ethernet: the two
  // back-to-back stage-2 probes busy the shared medium exactly when their
  // own replies return, inflating t2 by a full serialization and driving
  // every group's F estimate negative (past the distiller's structural
  // clamp, since the true F is ~zero here).  So estimate directly from the
  // clean observables instead: t1 (the stage-1 probe flies alone, its RTT
  // is undisturbed) and t3 - t2 (the Ethernet requeues the back-to-back
  // pair, so the gap is the physical per-byte serialization cost).
  const auto sent = result.trace.echoes_sent();
  const auto replies = result.trace.echo_replies();
  std::map<std::uint16_t, const trace::PacketRecord*> reply_by_seq;
  for (const trace::PacketRecord& r : replies) reply_by_seq[r.icmp_seq] = &r;
  double s_small = 1e18, s_large = 0.0;
  for (const trace::PacketRecord& e : sent) {
    s_small = std::min(s_small, static_cast<double>(e.ip_bytes));
    s_large = std::max(s_large, static_cast<double>(e.ip_bytes));
  }
  double t1_sum = 0.0, gap_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i + 2 < sent.size(); ++i) {
    if (static_cast<double>(sent[i].ip_bytes) != s_small) continue;
    if (static_cast<double>(sent[i + 1].ip_bytes) != s_large) continue;
    if (static_cast<double>(sent[i + 2].ip_bytes) != s_large) continue;
    const auto r1 = reply_by_seq.find(sent[i].icmp_seq);
    const auto r2 = reply_by_seq.find(sent[i + 1].icmp_seq);
    const auto r3 = reply_by_seq.find(sent[i + 2].icmp_seq);
    if (r1 == reply_by_seq.end() || r2 == reply_by_seq.end() ||
        r3 == reply_by_seq.end()) {
      continue;
    }
    t1_sum += sim::to_seconds(r1->second->rtt());
    gap_sum += sim::to_seconds(r3->second->rtt() - r2->second->rtt());
    ++n;
  }
  Baseline b;
  if (n == 0 || s_small >= s_large) return b;
  b.per_byte_bottleneck = std::max(0.0, gap_sum / static_cast<double>(n)) /
                          s_large;
  b.latency_s = std::max(
      0.0, t1_sum / (2.0 * static_cast<double>(n)) -
               s_small * b.per_byte_bottleneck);
  b.per_byte_residual = 0.0;
  return b;
}

FidelityReport audit_trace(const core::ReplayTrace& reference,
                           const AuditConfig& cfg, const std::string& label) {
  FidelityReport report;
  report.label = label;
  report.thresholds = cfg.thresholds;
  report.baseline = measure_baseline(cfg.second_order, cfg.baseline_run);

  const SecondOrderResult second =
      collect_second_order(reference, cfg.second_order);
  report.ping = second.ping;
  report.buffer_drops = second.buffer_drops;
  report.lost_records = second.trace.total_lost_records();

  // cfg.divergence.tick is deliberately NOT synced to the emulator's tick:
  // it is the contract granularity, and an emulator running coarser than
  // the contract must read as divergence, not be excused by the model.
  DivergenceConfig div = cfg.divergence;
  // The endpoint-placement term the modulation layer applies to inbound
  // packets, reconstructed exactly as core::Emulator wires it.
  div.inbound_extra_vb =
      8.0 / cfg.second_order.emulator.ethernet.bandwidth_bps -
      cfg.second_order.emulator.modulation.inbound_vb_compensation;
  report.scores = score_divergence(reference, second.trace, report.baseline,
                                   div);

  const DivergenceScores& s = report.scores;
  const FidelityThresholds& th = cfg.thresholds;
  if (s.windows.empty() || s.auditable == 0 ||
      s.auditable_fraction < th.min_auditable) {
    report.verdict = Verdict::kUnauditable;
    report.breaches.push_back(
        "auditable windows " + std::to_string(s.auditable) + "/" +
        std::to_string(s.windows.size()) + " below the " +
        fmt("%.2f", th.min_auditable) +
        " floor (degraded collection, not divergence)");
    return report;
  }
  check(report.breaches, "latency rel err", s.latency_rel_err,
        th.max_latency_rel_err);
  check(report.breaches, "bandwidth rel err", s.bandwidth_rel_err,
        th.max_bandwidth_rel_err);
  check(report.breaches, "loss delta", s.loss_delta, th.max_loss_delta);
  check(report.breaches, "KS(rtt)", s.ks_rtt, th.max_ks_rtt);
  check(report.breaches, "within-tolerance fraction",
        s.within_tolerance_fraction, th.min_within_tolerance,
        /*at_least=*/true);
  report.verdict =
      report.breaches.empty() ? Verdict::kPass : Verdict::kBreach;
  return report;
}

void record_metrics(const FidelityReport& report,
                    sim::MetricsRegistry& metrics) {
  namespace metric = sim::metric;
  metrics.counter(metric::kAuditWindowsTotal) += report.scores.windows.size();
  metrics.counter(metric::kAuditWindowsUnauditable) +=
      report.scores.unauditable;
  metrics.counter(metric::kAuditWindowsWithinTolerance) +=
      report.scores.within_tolerance;
  sim::TimeSeries& lat = metrics.series(metric::kAuditLatencyRelErr);
  sim::TimeSeries& bw = metrics.series(metric::kAuditBandwidthRelErr);
  sim::TimeSeries& loss = metrics.series(metric::kAuditLossDelta);
  for (const WindowScore& w : report.scores.windows) {
    if (!w.auditable()) continue;
    lat.sample(w.mid, w.latency_rel_err);
    bw.sample(w.mid, w.bandwidth_rel_err);
    loss.sample(w.mid, w.loss_delta);
  }
}

sim::TelemetrySnapshot telemetry_snapshot(const FidelityReport& report) {
  namespace metric = sim::metric;
  sim::MetricsRegistry registry;
  record_metrics(report, registry);
  sim::TelemetrySnapshot snap;
  snap.counters = registry.snapshot();
  for (const auto& [name, series] : registry.series_channels()) {
    snap.series.emplace_back(name, series);
  }
  // A counter track so the divergence series chart in ui.perfetto.dev.
  snap.tracks.push_back(sim::Track{"audit", "divergence"});
  const sim::TrackId track = 1;
  for (const WindowScore& w : report.scores.windows) {
    if (!w.auditable()) continue;
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditLatencyRelErr, 0, w.mid,
                           w.latency_rel_err});
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditBandwidthRelErr, 0, w.mid,
                           w.bandwidth_rel_err});
    snap.events.push_back({sim::TraceEvent::Phase::kCounter, track,
                           metric::kAuditLossDelta, 0, w.mid, w.loss_delta});
  }
  return snap;
}

void write_fidelity_report(std::ostream& out, const FidelityReport& report) {
  const DivergenceScores& s = report.scores;
  out << "== fidelity audit";
  if (!report.label.empty()) out << ": " << report.label;
  out << " ==\n";
  out << "verdict: " << to_string(report.verdict) << "\n";
  out << "baseline (physical testbed): F0=" << fmt("%.3f", report.baseline.latency_s * 1e3)
      << "ms Vb0=" << fmt("%.3f", report.baseline.per_byte_bottleneck * 1e6)
      << "us/B Vr0=" << fmt("%.3f", report.baseline.per_byte_residual * 1e6)
      << "us/B\n";
  out << "windows: " << s.auditable << " auditable, " << s.unauditable
      << " unauditable (" << report.lost_records
      << " records lost to overruns), "
      << fmt("%.1f", s.within_tolerance_fraction * 100.0)
      << "% within tolerance\n";
  out << "aggregate divergence (recovered vs reference):\n";
  out << "  latency rel err   " << fmt("%.4f", s.latency_rel_err)
      << "  (max " << fmt("%.4f", report.thresholds.max_latency_rel_err)
      << ")\n";
  out << "  bandwidth rel err " << fmt("%.4f", s.bandwidth_rel_err)
      << "  (max " << fmt("%.4f", report.thresholds.max_bandwidth_rel_err)
      << ")\n";
  out << "  loss delta        " << fmt("%.4f", s.loss_delta) << "  (max "
      << fmt("%.4f", report.thresholds.max_loss_delta) << ")\n";
  out << "  KS(rtt)           " << fmt("%.4f", s.ks_rtt) << "  (max "
      << fmt("%.4f", report.thresholds.max_ks_rtt) << ", n=" << s.rtt_samples
      << ")\n";
  for (const std::string& b : report.breaches) {
    out << "breach: " << b << "\n";
  }
}

void write_fidelity_json(std::ostream& out, const FidelityReport& report) {
  const DivergenceScores& s = report.scores;
  out << "{\n";
  out << "  \"schema\": \"tracemod-fidelity-v1\",\n";
  out << "  \"tool_version\": \"" << kToolVersion << "\",\n";
  out << "  \"label\": \"" << sim::json_escape(report.label) << "\",\n";
  out << "  \"verdict\": \"" << to_string(report.verdict) << "\",\n";
  out << "  \"baseline\": {\"latency_s\": "
      << fmt("%.9g", report.baseline.latency_s)
      << ", \"vb_s_per_byte\": "
      << fmt("%.9g", report.baseline.per_byte_bottleneck)
      << ", \"vr_s_per_byte\": "
      << fmt("%.9g", report.baseline.per_byte_residual) << "},\n";
  out << "  \"aggregate\": {\"latency_rel_err\": "
      << fmt("%.6g", s.latency_rel_err)
      << ", \"bandwidth_rel_err\": " << fmt("%.6g", s.bandwidth_rel_err)
      << ", \"loss_delta\": " << fmt("%.6g", s.loss_delta)
      << ", \"ks_rtt\": " << fmt("%.6g", s.ks_rtt)
      << ", \"within_tolerance_fraction\": "
      << fmt("%.6g", s.within_tolerance_fraction)
      << ", \"auditable_fraction\": " << fmt("%.6g", s.auditable_fraction)
      << ", \"rtt_samples\": " << s.rtt_samples << "},\n";
  out << "  \"thresholds\": {\"max_latency_rel_err\": "
      << fmt("%.6g", report.thresholds.max_latency_rel_err)
      << ", \"max_bandwidth_rel_err\": "
      << fmt("%.6g", report.thresholds.max_bandwidth_rel_err)
      << ", \"max_loss_delta\": "
      << fmt("%.6g", report.thresholds.max_loss_delta)
      << ", \"max_ks_rtt\": " << fmt("%.6g", report.thresholds.max_ks_rtt)
      << ", \"min_within_tolerance\": "
      << fmt("%.6g", report.thresholds.min_within_tolerance)
      << ", \"min_auditable\": "
      << fmt("%.6g", report.thresholds.min_auditable) << "},\n";
  out << "  \"windows\": {\"total\": " << s.windows.size()
      << ", \"auditable\": " << s.auditable
      << ", \"unauditable\": " << s.unauditable
      << ", \"within_tolerance\": " << s.within_tolerance
      << ", \"lost_records\": " << report.lost_records << "},\n";
  out << "  \"series\": [\n";
  bool first = true;
  for (const WindowScore& w : s.windows) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"t_s\": " << fmt("%.3f", sim::to_seconds(w.mid))
        << ", \"auditable\": " << (w.auditable() ? "true" : "false")
        << ", \"latency_rel_err\": " << fmt("%.6g", w.latency_rel_err)
        << ", \"bandwidth_rel_err\": " << fmt("%.6g", w.bandwidth_rel_err)
        << ", \"loss_delta\": " << fmt("%.6g", w.loss_delta) << "}";
  }
  out << "\n  ],\n";
  out << "  \"breaches\": [";
  for (std::size_t i = 0; i < report.breaches.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << sim::json_escape(report.breaches[i]) << "\"";
  }
  out << "]\n";
  out << "}\n";
}

}  // namespace tracemod::audit
