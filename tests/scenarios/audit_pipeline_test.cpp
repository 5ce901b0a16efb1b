// Audit-in-the-experiment-loop tests: enabling audits perturbs no trial
// result (the acceptance pin behind CI's seed diff), serial and parallel
// audit batches agree, and the audit.* metric family obeys the central
// metric-name declaration (the drift test's audit extension).
#include <gtest/gtest.h>

#include <sstream>

#include "audit/auditor.hpp"
#include "scenarios/experiment.hpp"
#include "sim/metric_names.hpp"
#include "sim/task_pool.hpp"

namespace tracemod::scenarios {
namespace {

ExperimentConfig quick_config(bool audit) {
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.audit.enabled = audit;
  return cfg;
}

TEST(AuditPipeline, EnablingAuditsDoesNotPerturbAnyTrialResult) {
  // Audit worlds are separate SimContexts; every virtual-time result must
  // be bit-identical with auditing on or off.
  sim::TaskPool pool(4);
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  const SweepResult off_sweep = run_sweep(&pool, sc, kinds, quick_config(false));
  const SweepResult on_sweep = run_sweep(&pool, sc, kinds, quick_config(true));
  const CellResult& off = off_sweep.cells.at(0);
  const CellResult& on = on_sweep.cells.at(0);

  ASSERT_EQ(off.live.size(), on.live.size());
  ASSERT_EQ(off.modulated.size(), on.modulated.size());
  for (std::size_t t = 0; t < off.live.size(); ++t) {
    EXPECT_EQ(off.live[t].ok, on.live[t].ok);
    EXPECT_DOUBLE_EQ(off.live[t].elapsed_s, on.live[t].elapsed_s);
  }
  for (std::size_t t = 0; t < off.modulated.size(); ++t) {
    EXPECT_EQ(off.modulated[t].ok, on.modulated[t].ok);
    EXPECT_DOUBLE_EQ(off.modulated[t].elapsed_s, on.modulated[t].elapsed_s);
  }
  ASSERT_EQ(off.traces.size(), on.traces.size());
  for (std::size_t t = 0; t < off.traces.size(); ++t) {
    std::ostringstream a, b;
    off.traces[t].serialize(a);
    on.traces[t].serialize(b);
    EXPECT_EQ(a.str(), b.str());
  }

  // And the audits themselves only exist when asked for.
  EXPECT_TRUE(off_sweep.audits.empty());
  ASSERT_EQ(on_sweep.audits.size(), 1u);
  const auto& audits = on_sweep.audits[0];
  ASSERT_EQ(audits.size(), on.traces.size());
  for (std::size_t t = 0; t < audits.size(); ++t) {
    EXPECT_EQ(audits[t].label, "Wean/trial" + std::to_string(t));
    EXPECT_GT(audits[t].scores.windows.size(), 0u);
  }
}

TEST(AuditPipeline, SerialAndParallelAuditBatchesAgree) {
  const ExperimentConfig cfg = quick_config(true);
  const auto serial =
      run_trace_audits(collect_replay_traces(wean(), cfg), cfg, "Wean");
  ASSERT_EQ(serial.size(), 2u);

  // A sweep with no benchmark still collects and audits every row.
  sim::TaskPool pool(8);
  const SweepResult sweep = run_sweep(&pool, {wean()}, {}, cfg);
  EXPECT_TRUE(sweep.cells.empty());
  ASSERT_EQ(sweep.audits.size(), 1u);
  const auto& parallel = sweep.audits[0];
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t].label, parallel[t].label);
    EXPECT_EQ(serial[t].verdict, parallel[t].verdict);
    std::ostringstream a, b;
    audit::write_fidelity_json(a, serial[t]);
    audit::write_fidelity_json(b, parallel[t]);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(AuditPipeline, AuditMetricFamilyIsDeclaredCentrally) {
  // The drift test, extended to the audit.* family and the series /
  // histogram channels: every name an audit snapshot emits must be listed
  // in sim/metric_names.hpp.
  const core::ReplayTrace reference =
      core::ReplayTrace::wavelan_like(sim::seconds(60));
  audit::AuditConfig acfg;
  acfg.baseline_run = sim::seconds(10);
  const audit::FidelityReport report = audit::audit_trace(reference, acfg);
  const sim::TelemetrySnapshot snap = audit::telemetry_snapshot(report);

  ASSERT_FALSE(snap.counters.empty());
  ASSERT_FALSE(snap.series.empty());
  for (const auto& [name, value] : snap.counters) {
    bool declared = false;
    for (const char* known : sim::metric::kAllCounterNames) {
      declared |= name == known;
    }
    EXPECT_TRUE(declared) << "counter '" << name
                          << "' is not declared in sim/metric_names.hpp";
    EXPECT_EQ(name.rfind("audit.", 0), 0u)
        << "audit snapshots must only emit the audit.* family";
  }
  for (const auto& [name, series] : snap.series) {
    bool declared = false;
    for (const char* known : sim::metric::kAllSeriesNames) {
      declared |= name == known;
    }
    EXPECT_TRUE(declared) << "series '" << name
                          << "' is not declared in sim/metric_names.hpp";
  }
  // The three divergence axes must all be present by their declared names.
  auto has_series = [&](const char* want) {
    for (const auto& [name, series] : snap.series) {
      if (name == want) return !series.empty();
    }
    return false;
  };
  EXPECT_TRUE(has_series(sim::metric::kAuditLatencyRelErr));
  EXPECT_TRUE(has_series(sim::metric::kAuditBandwidthRelErr));
  EXPECT_TRUE(has_series(sim::metric::kAuditLossDelta));
}

}  // namespace
}  // namespace tracemod::scenarios
