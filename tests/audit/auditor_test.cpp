// Fidelity-auditor tests: verdicts over the closed loop (pass on a
// faithful pipeline, breach on a contract violation, unauditable -- never
// breach -- under degraded collection), the metrics/telemetry surfaces,
// and the JSON verdict shape CI's audit gate consumes.
#include <gtest/gtest.h>

#include <sstream>

#include "audit/auditor.hpp"
#include "sim/metric_names.hpp"

namespace tracemod::audit {
namespace {

AuditConfig quick_config() {
  AuditConfig cfg;
  cfg.second_order.emulator.seed = 21;
  cfg.second_order.settle = sim::seconds(1);
  cfg.baseline_run = sim::seconds(10);
  return cfg;
}

TEST(FidelityAuditor, FaithfulPipelinePasses) {
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  const FidelityReport r = audit_trace(reference, quick_config(), "wavelan");
  EXPECT_EQ(r.verdict, Verdict::kPass);
  EXPECT_TRUE(r.passed());
  EXPECT_TRUE(r.breaches.empty());
  EXPECT_EQ(r.label, "wavelan");
  EXPECT_EQ(r.lost_records, 0u);
  EXPECT_GT(r.scores.auditable, 0u);
}

TEST(FidelityAuditor, DoubledTickQuantumBreaches) {
  // The acceptance drill on the shipped Porter pipeline: a doubled tick
  // quantum must surface as a breach verdict with latency named.
  const core::ReplayTrace reference = core::ReplayTrace::load(
      std::string(TRACEMOD_REPO_DIR) + "/porter_replay.trace");
  AuditConfig cfg = quick_config();
  cfg.second_order.emulator.modulation.tick = sim::milliseconds(20);
  const FidelityReport r = audit_trace(reference, cfg);
  EXPECT_EQ(r.verdict, Verdict::kBreach);
  EXPECT_FALSE(r.passed());
  ASSERT_FALSE(r.breaches.empty());
  // Latency is the axis a coarser quantum hits hardest; it must be named.
  bool latency_named = false;
  for (const std::string& b : r.breaches) {
    latency_named |= b.find("latency") != std::string::npos;
  }
  EXPECT_TRUE(latency_named);
}

TEST(FidelityAuditor, DegradedCollectionIsUnauditableNeverBreach) {
  // The PR-2 fault drills at full strength: the tap's kernel buffer
  // squeezed to a sliver and the modulation daemon stalling.  Collection
  // degrades to LostRecords windows; the auditor must judge the run
  // unauditable -- a collection problem is not modulation divergence.
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  AuditConfig cfg = quick_config();
  cfg.second_order.buffer_pressure = 0.0006;
  cfg.second_order.emulator.daemon_faults.stall_chance = 0.2;
  cfg.second_order.emulator.daemon_faults.stall = sim::milliseconds(500);
  const FidelityReport r = audit_trace(reference, cfg);

  EXPECT_GT(r.lost_records, 0u);
  EXPECT_GT(r.buffer_drops, 0u);
  EXPECT_GT(r.scores.unauditable, 0u);
  EXPECT_NE(r.verdict, Verdict::kBreach)
      << "degraded collection was reported as modulation divergence";
  EXPECT_EQ(r.verdict, Verdict::kUnauditable);
  ASSERT_FALSE(r.breaches.empty());
  EXPECT_NE(r.breaches.front().find("degraded collection"),
            std::string::npos);
}

TEST(FidelityAuditor, IsDeterministicForAConfig) {
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  const FidelityReport a = audit_trace(reference, quick_config());
  const FidelityReport b = audit_trace(reference, quick_config());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_DOUBLE_EQ(a.scores.latency_rel_err, b.scores.latency_rel_err);
  EXPECT_DOUBLE_EQ(a.scores.bandwidth_rel_err, b.scores.bandwidth_rel_err);
  EXPECT_DOUBLE_EQ(a.scores.ks_rtt, b.scores.ks_rtt);
  std::ostringstream ja, jb;
  write_fidelity_json(ja, a);
  write_fidelity_json(jb, b);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(FidelityAuditor, BaselineMeasuresTheBareTestbed) {
  const Baseline b = measure_baseline(SecondOrderConfig{}, sim::seconds(10));
  // 10 Mb/s Ethernet: 0.8 us/byte serialization, sub-millisecond fixed
  // cost.  The baseline must land in that physical regime.
  EXPECT_GT(b.per_byte_bottleneck, 0.4e-6);
  EXPECT_LT(b.per_byte_bottleneck, 1.6e-6);
  EXPECT_GE(b.latency_s, 0.0);
  EXPECT_LT(b.latency_s, 1e-3);
}

TEST(FidelityAuditor, RecordMetricsFeedsTheAuditFamily) {
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  const FidelityReport r = audit_trace(reference, quick_config());

  sim::MetricsRegistry metrics;
  record_metrics(r, metrics);
  EXPECT_EQ(metrics.value(sim::metric::kAuditWindowsTotal),
            r.scores.windows.size());
  EXPECT_EQ(metrics.value(sim::metric::kAuditWindowsUnauditable),
            r.scores.unauditable);
  EXPECT_EQ(metrics.value(sim::metric::kAuditWindowsWithinTolerance),
            r.scores.within_tolerance);

  const sim::TelemetrySnapshot snap = telemetry_snapshot(r);
  bool lat = false, bw = false, loss = false;
  for (const auto& [name, series] : snap.series) {
    lat |= name == sim::metric::kAuditLatencyRelErr && !series.empty();
    bw |= name == sim::metric::kAuditBandwidthRelErr && !series.empty();
    loss |= name == sim::metric::kAuditLossDelta && !series.empty();
  }
  EXPECT_TRUE(lat && bw && loss);
  ASSERT_FALSE(snap.tracks.empty());
  bool counter_events = false;
  for (const auto& e : snap.events) {
    counter_events |= e.phase == sim::TraceEvent::Phase::kCounter;
  }
  EXPECT_TRUE(counter_events);
}

TEST(FidelityAuditor, JsonVerdictHasTheGateSchema) {
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  const FidelityReport r =
      audit_trace(reference, quick_config(), "say \"hi\"\\path\tend");
  std::ostringstream out;
  write_fidelity_json(out, r);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\": \"tracemod-fidelity-v1\""),
            std::string::npos);
  for (const char* key :
       {"\"verdict\"", "\"aggregate\"", "\"thresholds\"", "\"windows\"",
        "\"series\"", "\"breaches\"", "\"latency_rel_err\"", "\"ks_rtt\"",
        "\"within_tolerance_fraction\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The label's quote, backslash and tab must be escaped.
  EXPECT_NE(json.find("say \\\"hi\\\"\\\\path\\tend"), std::string::npos);
  // Brace balance is a cheap structural check; CI json-validates for real.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(FidelityAuditor, HumanReportNamesVerdictAndBreaches) {
  const core::ReplayTrace reference = core::ReplayTrace::load(
      std::string(TRACEMOD_REPO_DIR) + "/porter_replay.trace");
  AuditConfig cfg = quick_config();
  cfg.second_order.emulator.modulation.tick = sim::milliseconds(20);
  const FidelityReport r = audit_trace(reference, cfg, "drill");
  std::ostringstream out;
  write_fidelity_report(out, r);
  const std::string text = out.str();
  EXPECT_NE(text.find("fidelity audit: drill"), std::string::npos);
  EXPECT_NE(text.find("verdict: breach"), std::string::npos);
  EXPECT_NE(text.find("breach: "), std::string::npos);
  EXPECT_NE(text.find("latency rel err"), std::string::npos);
}

}  // namespace
}  // namespace tracemod::audit
