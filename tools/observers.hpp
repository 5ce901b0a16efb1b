// The observer flags every experiment command shares, declared, armed and
// finished in one place for `tracemod sweep` and the fig6/7/8 benches:
//
//   --telemetry PREFIX  every trial world records telemetry; the merged
//                       exports go to PREFIX.perfetto.json (load in
//                       ui.perfetto.dev) and PREFIX.metrics.txt, merged in
//                       the order the caller adds them, so serial and
//                       parallel runs write identical files;
//   --audit[=FILE]      every collected trace also runs one closed-loop
//                       fidelity audit in its own world (so every trial
//                       result is bit-identical with or without it); a
//                       verdict table prints and the reports go to a fidelity
//                       trajectory (schema tracemod-fidelity-trajectory-v1,
//                       default BENCH_fidelity.json; see EXPERIMENTS.md);
//   --status PREFIX     a crash-safe tracemod-status-v1 snapshot is
//                       published to PREFIX.status as the run goes; poll it
//                       with `tracemod status PREFIX.status [--follow]`.
//
// With every flag absent the ExperimentConfig is untouched, so outputs are
// bit-identical to a run without observers.  `tracemod campus`, `distill`
// and `perf` take only --status, through arm_status().
#pragma once

#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "flags.hpp"
#include "scenarios/experiment.hpp"
#include "sim/status/status.hpp"
#include "sim/telemetry.hpp"
#include "tracemod_cli.hpp"

namespace tracemod::cli {

/// Arms `board` when --status PREFIX was given: snapshots go to
/// PREFIX.status under the `driver` label.  Returns kExitIo after a
/// diagnostic when the status file cannot be written, so a typo'd prefix
/// fails before any work instead of running dark; kExitOk otherwise.
int arm_status(const Parsed& p, const char* driver,
               sim::status::StatusBoard* board);

class Observers {
 public:
  /// A command's own flags plus --telemetry, --audit[=FILE] and --status.
  static std::vector<FlagSpec> declare(std::vector<FlagSpec> own);

  /// Enables the given observers in `cfg` (the status board becomes
  /// cfg->status).  Returns kExitOk, or kExitIo when --status cannot be
  /// written.
  int arm(const Parsed& p, const char* driver,
          scenarios::ExperimentConfig* cfg);

  /// The status board; every method is a no-op while --status is off.
  sim::status::StatusBoard& status() { return board_; }

  /// Appends the outcomes' telemetry labelled "<label>/trial<i>"; a no-op
  /// without --telemetry.
  void add_telemetry(const std::vector<scenarios::BenchmarkOutcome>& outcomes,
                     const std::string& label);

  /// Appends audit reports, prefixing each label with "<prefix>/" unless
  /// `prefix` is empty.
  void add_audits(const std::vector<audit::FidelityReport>& reports,
                  const std::string& prefix);

  /// Prints the verdict table and writes the fidelity trajectory and the
  /// telemetry exports of the observers that were armed.  Returns kExitIo
  /// when an artifact could not be written, else kExitAudit when any audit
  /// breached, else kExitOk.
  int write_exports() const;

 private:
  std::string telemetry_prefix_;
  std::string audit_path_;
  std::vector<sim::LabeledTelemetry> snaps_;
  std::vector<audit::FidelityReport> reports_;
  sim::status::StatusBoard board_;
};

}  // namespace tracemod::cli
