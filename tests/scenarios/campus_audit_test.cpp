// Production-volume robustness at campus scale: a supervised sweep over
// the campus_walk scenario with the campus population as chatterbox
// interferers, audits enabled.  The contract mirrors the streaming
// distiller's: fidelity verdicts are pass or unauditable -- interference
// and damage degrade auditability, they never fabricate a breach -- and
// supervision keeps the sweep deterministic under parallelism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/supervisor.hpp"

namespace tracemod::scenarios {
namespace {

Scenario campus_with_interferers() {
  Scenario s = campus_walk();
  // A slice of the campus population sharing the medium (the chatterbox
  // role from the Flagstaff tables), over a test-sized traversal.
  s.interferers = 5;
  s.collection_duration = sim::seconds(60);
  return s;
}

ExperimentConfig audited_config() {
  ExperimentConfig cfg;
  cfg.trials = 1;
  cfg.compensation_vb = measure_compensation_vb();
  cfg.supervision.enabled = true;
  cfg.audit.enabled = true;
  return cfg;
}

TEST(CampusAudit, SupervisedSweepVerdictsAreNeverBreach) {
  const std::vector<Scenario> sc = {campus_with_interferers()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  const SweepResult result =
      run_sweep(nullptr, sc, kinds, audited_config());

  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.front().errors.empty());
  // Sweep audits are per scenario (one per collected trace).
  ASSERT_EQ(result.audits.size(), 1u);
  ASSERT_FALSE(result.audits.front().empty());
  for (const audit::FidelityReport& report : result.audits.front()) {
    std::string detail;
    for (const std::string& b : report.breaches) detail += "\n  " + b;
    EXPECT_NE(report.verdict, audit::Verdict::kBreach)
        << "audit " << report.label << " reported a breach under campus "
        << "interference; expected pass or unauditable:" << detail;
  }
}

TEST(CampusAudit, AuditedCampusSweepIsDeterministic) {
  const std::vector<Scenario> sc = {campus_with_interferers()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  const ExperimentConfig cfg = audited_config();

  const SweepResult a = run_sweep(nullptr, sc, kinds, cfg);
  const SweepResult b = run_sweep(nullptr, sc, kinds, cfg);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.audits.size(), b.audits.size());
  ASSERT_EQ(a.audits[0].size(), b.audits[0].size());
  for (std::size_t i = 0; i < a.audits[0].size(); ++i) {
    EXPECT_EQ(a.audits[0][i].verdict, b.audits[0][i].verdict);
    EXPECT_EQ(a.audits[0][i].label, b.audits[0][i].label);
  }
  EXPECT_EQ(a.supervision.trials_failed, b.supervision.trials_failed);
  EXPECT_EQ(a.supervision.trials_timed_out, b.supervision.trials_timed_out);
}

}  // namespace
}  // namespace tracemod::scenarios
