// Resilient experiment supervision (failure model: DESIGN.md section 10).
//
// The paper's evaluation is a large trial matrix, and the north-star sweep
// runs arbitrarily many scenarios for hours.  At that scale a single bad
// trial must not destroy completed work, so every trial task can run under
// a guard that converts exceptions into structured TrialError records,
// watchdogs mark runaway worlds instead of hanging the sweep, failed
// trials can be retried with the identical derived seed (flaky-environment
// recovery) or a perturbed one, and completed cells persist to a
// CRC-framed journal so a killed sweep resumes where it stopped.
//
// Invariants:
//   - supervision off (the default) leaves every output bit-identical to a
//     config without this layer;
//   - serial and parallel supervised runs produce identical results AND
//     identical error records (the guard path is shared);
//   - a resumed sweep's final output is byte-identical to an uninterrupted
//     run of the same config.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.hpp"
#include "core/model.hpp"
#include "scenarios/benchmarks.hpp"
#include "scenarios/scenario.hpp"
#include "sim/io/codec.hpp"
#include "sim/io/durable.hpp"
#include "sim/time.hpp"

namespace tracemod::sim {
class MetricsRegistry;
class TaskPool;  // sim/task_pool.hpp
}

namespace tracemod::scenarios {

struct ExperimentConfig;  // experiment.hpp (which includes this header)
using sim::TaskPool;

// --- error taxonomy ---------------------------------------------------------

enum class TrialErrorKind {
  kException,  ///< the trial threw; message carries what()
  kTimedOut,   ///< the virtual-time budget expired before completion
  kStuck,      ///< the wall-clock stuck-trial watchdog fired
};

const char* to_string(TrialErrorKind kind);

/// One failed trial, with enough identity to reproduce it: the taxonomy
/// kind, the derived seed of the failing attempt, and where in the matrix
/// it sat.  Recorded in CellResult/SweepResult instead of tearing down the
/// experiment engine.
struct TrialError {
  TrialErrorKind kind = TrialErrorKind::kException;
  std::string message;
  std::uint64_t seed = 0;  ///< derived seed of the failing attempt
  std::string scenario;    ///< empty for scenario-less phases (ethernet)
  std::string benchmark;   ///< to_string(BenchmarkKind), or "-" for collect
  std::string phase;       ///< live | collect | modulated | ethernet | audit
  int trial = -1;
  int attempts = 1;  ///< attempts consumed, including the first run

  friend bool operator==(const TrialError& a, const TrialError& b) {
    return a.kind == b.kind && a.message == b.message && a.seed == b.seed &&
           a.scenario == b.scenario && a.benchmark == b.benchmark &&
           a.phase == b.phase && a.trial == b.trial &&
           a.attempts == b.attempts;
  }
};

/// Renders "live trial 0 of Wean/web (seed 10000, attempt 1): <message>".
std::string describe(const TrialError& e);

// --- supervision policy -----------------------------------------------------

/// A deliberately poisoned trial for chaos drills: the guard throws before
/// running a matching attempt.  Empty strings and trial -1 are wildcards;
/// scenario/benchmark matching is case-insensitive.
struct InjectedTrialFault {
  std::string scenario;
  std::string benchmark;
  std::string phase;
  int trial = -1;
  /// The fault fires for the first `fail_attempts` attempts of the trial,
  /// so a supervised retry policy with max_retries >= fail_attempts
  /// recovers (deterministic flaky-trial drills).
  int fail_attempts = 1 << 20;  // effectively: always fails
};

struct SupervisionConfig {
  /// Master switch.  Off (default) keeps every code path and output
  /// bit-identical to a build without supervision.
  bool enabled = false;

  /// Bounded retry budget per trial.  Retries re-run the trial with the
  /// identical derived seed, so a deterministic failure reproduces and a
  /// flaky-environment failure (OOM, wall-clock stuck) gets a clean rerun.
  int max_retries = 0;

  /// When true, retry attempt k perturbs the config base seed by
  /// k * kRetrySeedStride before deriving trial seeds.  Explicitly
  /// NON-bit-identical: a recovered trial's outcome differs from what the
  /// original seed would have produced.  Off by default.
  bool perturb_retry_seed = false;

  /// Per-trial virtual-time budget for benchmark phases.  The default
  /// matches the historical run_benchmark deadline, so supervision-off
  /// configs are unchanged.  Expiry marks the outcome timed_out (never a
  /// silent partial result) and, under supervision, records a kTimedOut
  /// TrialError.
  sim::Duration virtual_budget = sim::seconds(7200);

  /// Wall-clock stuck-trial watchdog: a benchmark whose event loop keeps
  /// dispatching without finishing (e.g. a zero-delay livelock that never
  /// advances virtual time) is abandoned after this many host seconds and
  /// marked kStuck.  0 disables.  Checked on the event-loop-progress
  /// heartbeat inside the trial's own thread -- no extra threads per trial.
  double wall_budget_s = 0.0;

  /// Chaos drills (tests, CI, sweep --poison).
  std::vector<InjectedTrialFault> inject;
};

/// Base-seed stride between perturbed retry attempts (large odd constant so
/// perturbed trial seeds never collide with the sweep's derived seeds).
inline constexpr std::uint64_t kRetrySeedStride = 0x9E3779B97F4A7C15ull;

// --- supervision accounting -------------------------------------------------

struct SupervisionReport {
  /// Every unrecovered failure in the sweep, in deterministic matrix order
  /// (per scenario row: collect, then each cell's live+modulated, then
  /// audits; ethernet rows last).
  std::vector<TrialError> errors;
  std::uint64_t trials_failed = 0;     ///< trials that exhausted retries
  std::uint64_t trials_retried = 0;    ///< retry attempts consumed
  std::uint64_t trials_timed_out = 0;  ///< outcomes flagged timed_out/stuck

  bool degraded() const { return !errors.empty(); }
};

/// Publishes the three sweep.* counters (sim/metric_names.hpp) onto a
/// registry, so supervision results surface exactly like every other
/// degradation signal in the system.
void export_supervision_metrics(const SupervisionReport& report,
                                sim::MetricsRegistry& metrics);

// --- guarded trial building blocks ------------------------------------------

/// The result of running one trial under the supervision guard: the value
/// (default-constructed when every attempt failed), at most one TrialError,
/// and the retry attempts consumed.  With supervision disabled the guard is
/// transparent -- the underlying function runs once and exceptions
/// propagate unchanged.
template <typename T>
struct Guarded {
  T value{};
  std::optional<TrialError> error;
  int retries = 0;
};

Guarded<BenchmarkOutcome> guarded_live_trial(const Scenario& scenario,
                                             BenchmarkKind kind,
                                             const ExperimentConfig& cfg,
                                             int trial);
Guarded<core::ReplayTrace> guarded_replay_trace(const Scenario& scenario,
                                                const ExperimentConfig& cfg,
                                                int trial);
Guarded<BenchmarkOutcome> guarded_modulated_trial(
    const core::ReplayTrace& trace, BenchmarkKind kind,
    const ExperimentConfig& cfg, int trial);
Guarded<BenchmarkOutcome> guarded_ethernet_trial(BenchmarkKind kind,
                                                 const ExperimentConfig& cfg,
                                                 int trial);
Guarded<audit::FidelityReport> guarded_trace_audit(
    const core::ReplayTrace& trace, const ExperimentConfig& cfg, int trial,
    const std::string& label);

// --- result containers (shared by serial and parallel engines) --------------

/// One benchmark x scenario cell of the paper's evaluation.
struct CellResult {
  std::string scenario;
  BenchmarkKind kind{};
  std::vector<BenchmarkOutcome> live;
  std::vector<core::ReplayTrace> traces;
  std::vector<BenchmarkOutcome> modulated;
  /// One fidelity report per trace when cfg.audit.enabled; else empty.
  std::vector<audit::FidelityReport> audits;
  /// This cell's unrecovered failures (live errors in trial order, then
  /// modulated errors in trial order); empty unless supervision ran.
  std::vector<TrialError> errors;
  /// Retry attempts consumed by this cell's trials.
  std::uint64_t trials_retried = 0;
  /// True when the cell was reconstructed from a sweep journal rather than
  /// executed (traces/audits/telemetry are not journaled and stay empty).
  bool resumed = false;
};

struct SweepResult {
  /// Scenario-major, in the order given (the paper's table order).
  std::vector<CellResult> cells;
  /// Bare-Ethernet baseline rows, one vector per benchmark kind.
  std::vector<std::vector<BenchmarkOutcome>> ethernet;
  /// Per-scenario fidelity reports (traces are per scenario, so audits
  /// are too), scenario-major; empty unless cfg.audit.enabled.
  std::vector<std::vector<audit::FidelityReport>> audits;
  /// Aggregated supervision accounting; errors empty when nothing failed
  /// (and always empty with supervision disabled).
  SupervisionReport supervision;
};

/// Counts outcomes flagged timed_out/wall_stuck across the whole result
/// into supervision.trials_timed_out (partial results are never silently
/// clean -- satellite of DESIGN.md section 10).
void tally_timed_out_trials(SweepResult& result);

// --- sweep journal (resumable sweeps) ---------------------------------------

/// One journal entry: a completed cell (scenario + kind), a completed
/// bare-Ethernet row (ethernet=true), or a completed collection row
/// (collect=true, errors only).  Outcome summaries carry everything the
/// sweep's final table and JSON output need; traces, telemetry, and audits
/// are intentionally not journaled.
struct JournalCellRecord {
  std::string scenario;  ///< empty for ethernet rows
  BenchmarkKind kind{};
  bool ethernet = false;
  bool collect = false;
  std::vector<BenchmarkOutcome> live;       ///< outcomes (ethernet rows too)
  std::vector<BenchmarkOutcome> modulated;  ///< empty for ethernet/collect
  std::vector<TrialError> errors;
  std::uint64_t trials_retried = 0;
};

/// Fingerprint of everything that must match for journal records to be
/// reusable: seeds, trial count, tick, compensation, and the supervision
/// policy (including injected faults).  The scenario/benchmark matrix is
/// deliberately excluded -- records carry their own identity, so a journal
/// from an aborted subset resumes cleanly into a larger matrix.
std::uint32_t sweep_fingerprint(const ExperimentConfig& cfg);

/// kMissing: no file, start fresh.  kClean / kDroppedTail: the records
/// (an intact prefix, for a dropped tail) are reusable.  kCorrupt /
/// kMismatch: no record is reusable.
using JournalStatus = sim::io::JournalStatus;

const char* to_string(JournalStatus status);

struct JournalReadResult {
  JournalStatus status = JournalStatus::kMissing;
  std::string message;  ///< human-readable detail for warnings
  std::vector<JournalCellRecord> records;
};

/// Reads a sweep journal.  Never throws: any damage degrades the status
/// (callers warn and fall back to re-running; a corrupt journal must never
/// skip un-journaled work or crash the sweep).
JournalReadResult read_sweep_journal(const std::string& path,
                                     std::uint32_t fingerprint);

/// read_sweep_journal over bytes already in memory (the fuzz surface).
JournalReadResult decode_sweep_journal(std::string_view bytes,
                                       std::uint32_t fingerprint);

/// Appends CRC-framed records through the durable write plane
/// (sim/io/durable.hpp); each append is synced so a killed sweep loses at
/// most the record being written (which the reader then drops as a
/// partial tail), and a failed append is truncated back so it is never
/// visible as a committed frame.
class SweepJournalWriter {
 public:
  SweepJournalWriter() = default;

  /// Opens the journal.  fresh=true truncates and writes a new header;
  /// fresh=false appends to an existing clean journal.  Returns false on
  /// I/O failure (journaling is then disabled, never fatal).  plan ==
  /// nullptr consults the ambient fault plan (tests inject locally, CI
  /// chaos drills inject via TRACEMOD_IO_FAULTS).
  bool open(const std::string& path, std::uint32_t fingerprint, bool fresh,
            sim::io::FaultPlan* plan = nullptr);

  bool is_open() const { return writer_.is_open(); }

  /// True once any journal write failed: the sweep keeps computing but is
  /// no longer resumable, so drivers must report degradation (exit 5).
  bool degraded() const { return writer_.degraded(); }

  /// Human-readable cause of the degradation (empty when not degraded).
  std::string degraded_reason() const;

  void append(const JournalCellRecord& record);

  /// Final sync + close (safe to skip; the destructor closes without the
  /// final sync).
  void close();

 private:
  sim::io::AppendJournalWriter writer_;
};

/// Encodes/decodes one record's frame payload (exposed for tests and for
/// journal-rewrite after a dropped tail).
std::string encode_journal_record(const JournalCellRecord& record);

// --- supervised sweep driver ------------------------------------------------

struct SupervisedSweepOptions {
  /// Completed cells/rows are appended here as they finish (may be null).
  SweepJournalWriter* journal = nullptr;
  /// Records from a previous aborted run; matching cells/rows are skipped
  /// and reconstructed.  Resuming is incompatible with auditing and
  /// telemetry (neither is journaled); the sweep tool rejects the combo.
  const std::vector<JournalCellRecord>* resume = nullptr;
};

/// The full supervised trial matrix.  pool == nullptr runs the identical
/// task lists serially in deterministic order; the guard path is shared, so
/// serial and parallel runs produce identical results and identical error
/// records.  With cfg.supervision.enabled == false, behaves like the
/// unsupervised engine except that per-task exceptions still surface (the
/// task pool rethrows a combined error).
SweepResult run_supervised_sweep(TaskPool* pool,
                                 const std::vector<Scenario>& scenarios,
                                 const std::vector<BenchmarkKind>& kinds,
                                 const ExperimentConfig& cfg,
                                 const SupervisedSweepOptions& opts = {});

/// One supervised cell (collection + live + modulated [+ audits]); the
/// cell's errors include its collection failures.
CellResult run_supervised_experiment(TaskPool* pool, const Scenario& scenario,
                                     BenchmarkKind kind,
                                     const ExperimentConfig& cfg);

/// Writes the sweep's machine-readable result (schema "tracemod-sweep-v1",
/// documented in EXPERIMENTS.md): per-cell outcome summaries with the
/// degraded-cell fields (completed/timed_out/wall_stuck flags, error
/// records) plus the supervision counters.
void write_sweep_json(std::ostream& out, const SweepResult& result,
                      const ExperimentConfig& cfg,
                      const std::vector<BenchmarkKind>& kinds);

}  // namespace tracemod::scenarios
