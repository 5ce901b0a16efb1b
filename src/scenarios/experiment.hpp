// The paper's full experimental procedure (Section 5.1).
//
// For each benchmark on each scenario: N live trials on the wireless
// testbed, N trace-collection traversals, distillation of each trace, and
// one modulated trial per distilled trace on the isolated-Ethernet testbed.
// The Ethernet row of every table is the same benchmark on the modulation
// Ethernet with no modulation active.
#pragma once

#include <vector>

#include "audit/auditor.hpp"
#include "core/distiller.hpp"
#include "core/emulator.hpp"
#include "scenarios/benchmarks.hpp"
#include "scenarios/live_testbed.hpp"
#include "scenarios/supervisor.hpp"

namespace tracemod::scenarios {

struct ExperimentConfig {
  int trials = 4;
  std::uint64_t base_seed = 10'000;
  sim::Duration tick = sim::milliseconds(10);  ///< modulation granularity
  bool compensate = true;  ///< inbound delay compensation (Figure 1)
  /// The physical modulating network's measured mean bottleneck per-byte
  /// cost (Section 3.3, Delay Compensation).  Measure it once per
  /// modulation setup with measure_compensation_vb() and pass it through
  /// this config; there is no process-global cache, so distinct configs
  /// (and concurrent experiments) are fully independent.  Ignored when
  /// compensate is false.
  double compensation_vb = 0.0;
  /// Observability for every trial world (sim/telemetry.hpp).  When
  /// enabled, each trial's BenchmarkOutcome carries its captured
  /// TelemetrySnapshot; when disabled (default), trial behaviour and
  /// outputs are bit-identical to a config without this field.
  sim::TelemetryConfig telemetry{};
  /// Closed-loop fidelity auditing (src/audit/).  When enabled, each
  /// collected replay trace additionally gets one audit run (seed
  /// base_seed + 1700 + t) in its own dedicated world; trial worlds are
  /// untouched, so every benchmark outcome is bit-identical to a config
  /// with auditing disabled (pinned by test and by CI's seed diff).
  audit::AuditOptions audit{};
  /// Resilient supervision (scenarios/supervisor.hpp): crash-isolated
  /// trials, watchdogs, deterministic retry.  Disabled by default; a
  /// disabled config's outputs are bit-identical to the seed behaviour
  /// (the virtual budget defaults to the historical 7200 s deadline).
  SupervisionConfig supervision{};
  /// Live status board (sim/status/status.hpp).  Null (default) compiles
  /// every status hook down to one never-taken branch; non-null lets the
  /// guarded trial path and the event-loop dispatch heartbeat publish
  /// progress without touching virtual time, RNG, or trial outputs.
  sim::status::StatusBoard* status = nullptr;
};

/// Measures the physical modulating network's mean bottleneck per-byte
/// cost in a throwaway context.  Deterministic for a given EmulatorConfig;
/// callers store the result in ExperimentConfig::compensation_vb.
double measure_compensation_vb();

// --- single-trial building blocks -----------------------------------------
//
// Each trial builds a fresh world in its own SimContext from a seed derived
// as base_seed + fixed-offset + trial, so a trial's outcome depends only on
// the config -- never on which thread runs it or what ran before.  The
// serial batch drivers below and the sweep engine (run_sweep in
// supervisor.hpp) both fan out over these.

/// One live benchmark trial on the wireless testbed (seed base_seed + t).
BenchmarkOutcome run_live_trial(const Scenario& scenario, BenchmarkKind kind,
                                const ExperimentConfig& cfg, int trial);

/// One collection traversal distilled to a replay trace
/// (seed base_seed + 500 + t).
core::ReplayTrace collect_replay_trace(const Scenario& scenario,
                                       const ExperimentConfig& cfg, int trial);

/// One modulated benchmark trial over a replay trace
/// (seed base_seed + 900 + t).
BenchmarkOutcome run_modulated_trial(const core::ReplayTrace& trace,
                                     BenchmarkKind kind,
                                     const ExperimentConfig& cfg, int trial);

/// One bare-Ethernet trial (seed base_seed + 1300 + t).
BenchmarkOutcome run_ethernet_trial(BenchmarkKind kind,
                                    const ExperimentConfig& cfg, int trial);

/// One closed-loop fidelity audit of a replay trace
/// (seed base_seed + 1700 + t): second-order collection against the
/// modulated world, re-distillation, divergence scoring, verdict.  Runs in
/// its own world; never perturbs trial results.
audit::FidelityReport run_trace_audit(const core::ReplayTrace& trace,
                                      const ExperimentConfig& cfg, int trial,
                                      const std::string& label = "");

// --- serial batch drivers --------------------------------------------------

/// Live benchmark trials; trial t uses seed base_seed + t.
std::vector<BenchmarkOutcome> run_live_trials(const Scenario& scenario,
                                              BenchmarkKind kind,
                                              const ExperimentConfig& cfg);

/// One collection traversal; returns the raw trace (Figures 2-5 plot these
/// and their distillations).
trace::CollectedTrace collect_raw_trace(const Scenario& scenario,
                                        std::uint64_t seed);

/// N collection traversals, each distilled to a replay trace.
std::vector<core::ReplayTrace> collect_replay_traces(
    const Scenario& scenario, const ExperimentConfig& cfg);

/// One modulated benchmark trial per replay trace.
std::vector<BenchmarkOutcome> run_modulated_trials(
    const std::vector<core::ReplayTrace>& traces, BenchmarkKind kind,
    const ExperimentConfig& cfg);

/// The benchmark over the bare modulation Ethernet (the tables' last row).
std::vector<BenchmarkOutcome> run_ethernet_trials(BenchmarkKind kind,
                                                  const ExperimentConfig& cfg);

/// One fidelity audit per replay trace (trial t audits traces[t]).
std::vector<audit::FidelityReport> run_trace_audits(
    const std::vector<core::ReplayTrace>& traces, const ExperimentConfig& cfg,
    const std::string& label_prefix = "");

/// A single modulated benchmark run over an explicit replay trace.
BenchmarkOutcome run_modulated_benchmark(
    const core::ReplayTrace& trace, BenchmarkKind kind, std::uint64_t seed,
    sim::Duration tick, double inbound_vb_compensation,
    const sim::TelemetryConfig& telemetry = {},
    sim::Duration timeout = sim::seconds(7200),
    const WatchdogConfig& watchdog = {});

/// Labels each outcome's telemetry snapshot ("<prefix>/trial0", ...) in
/// trial order for the merged exporters (sim/telemetry.hpp).  Outcomes
/// without telemetry are skipped, so the result is empty for disabled
/// configs.  Trial order is the serial order, so serial and parallel runs
/// merge identically.
std::vector<sim::LabeledTelemetry> labeled_telemetry(
    const std::vector<BenchmarkOutcome>& outcomes, const std::string& prefix);

// --- reporting helpers -----------------------------------------------------

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;
};

Summary summarize_elapsed(const std::vector<BenchmarkOutcome>& outcomes);
Summary summarize(const std::vector<double>& values);

/// "161.47 (7.82)" -- the paper's table cell format.
std::string cell(const Summary& s);

/// The paper's accuracy criterion: |mean_a - mean_b| <= stddev_a + stddev_b.
bool within_error(const Summary& a, const Summary& b);

/// |mean_a - mean_b| as a multiple of (stddev_a + stddev_b) -- the paper's
/// "off by 1.05 times the sum of the standard deviations" phrasing.
double off_by_factor(const Summary& a, const Summary& b);

/// "within error" or "off by N.NNx sd-sum".
std::string check_label(const Summary& a, const Summary& b);

}  // namespace tracemod::scenarios
