// Bounded-memory streaming distillation for production-volume corpora
// (ROADMAP item 5: multi-GB traces, faster than real time, salvage
// semantics and auditor verdicts intact).
//
// One read of the file, which never slurps it:
//
//   Scan (serial, flat RSS): stream every record once through
//   trace::TraceStreamReader in salvage mode.  Produces the *plan*: the
//   corpus partitioned into byte-range windows (a new window starts at the
//   first frame whose record time is a span past the window's first), the
//   global damage report, per-window record/echo counts, and the complete
//   integer loss lattice -- for every output step, the reply count inside
//   the step window and the sequence gap around it.  Loss is therefore
//   final after the scan: it never depends on which windows shed their
//   buffers, so budget pressure can never fabricate a loss spike.  The
//   same scan appends every echo's compact projection (core::EchoSent /
//   core::EchoReply) to one pair of arrays, in file order, and truncates
//   a window's share away if the budget sheds it.
//
//   Merge (serial): the arrays hold the kept windows in index order
//   already, so they feed the exact shared pipeline from distiller.hpp
//   as they are -- same arithmetic, same order, bit-identical to
//   core::Distiller on the same records.
//
// MemoryBudget: the shed rule is decided as each window closes, in
// window-index order, from earlier windows only.  A window is shed when it
// alone exceeds budget/max_inflight or when cumulative retained bytes
// would exceed the budget; a window sure to shed stops accumulating at
// once, so the projections kept never exceed the budget.  Shedding drops
// the window's delay contribution (neighbour-filled, like any deep outage)
// but keeps its loss summaries, and the run degrades to
// DistillStatus::kDegraded instead of throwing bad_alloc.
//
// Checkpoints: with a journal path configured, the plan and every kept
// window are appended to a CRC-framed TMDJ journal (the TMSJ idiom from
// scenario supervision), in index order once the scan ends.  A killed run
// re-validates the journal against a fingerprint of the input and config.
// A journal holding the plan and every kept window replaces the scan; any
// other journal is only credited: the corpus is scanned afresh, and the
// windows the journal held are reported as resumed.  Either way the output
// is byte-identical -- the journal stores only integers, so there is no
// round-trip drift.
//
// Damage containment: a corrupted region becomes LostRecords markers in
// the scan (stream_reader salvage), which mark their windows damaged; those
// windows surface as audit::Verdict::kUnauditable through
// audit::window_verdict, never as a breach, and never abort the corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/distiller.hpp"
#include "sim/status/status.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::sim {
class MetricsRegistry;
}
namespace tracemod::sim::io {
class FaultPlan;
}

namespace tracemod::core {

/// Cap on the echo projections retained across windows.  Zero bytes means
/// unlimited.  max_inflight is the shed granularity: a single window may
/// not hold more than bytes/max_inflight.  The scan applies the shed rule
/// as each window closes.  The projections kept stay within bytes, but they
/// live in two geometrically growing arrays, so the memory those allocate
/// can reach about twice bytes (three times while one of them grows).
struct MemoryBudget {
  std::uint64_t bytes = 0;
  unsigned max_inflight = 8;
};

struct StreamDistillConfig {
  DistillConfig distill;
  /// Target time span of one corpus window (shed and journal unit).
  sim::Duration span = sim::seconds(60);
  MemoryBudget budget;
  /// Unused: every run reads the file once on the calling thread.  Kept
  /// only because perfbench/ still sets it.
  unsigned threads = 0;
  /// CRC-framed checkpoint journal; empty disables checkpointing.
  std::string checkpoint_path;
  /// Reuse a valid journal left by a killed run (fingerprint-checked).
  bool resume = false;
  /// Fault plan for the checkpoint journal's syscalls; nullptr consults
  /// the ambient TRACEMOD_IO_FAULTS plan (tests inject locally, CI chaos
  /// drills via environment).  Faults here can only degrade resumability,
  /// never the distilled output.
  sim::io::FaultPlan* checkpoint_fault_plan = nullptr;
  /// Optional distill.* counters (sim/metric_names.hpp).
  sim::MetricsRegistry* metrics = nullptr;
  /// Live status board (sim/status/status.hpp): the scan publishes records
  /// streamed, then every window settles at once.  Null (default) adds no
  /// code to the pipeline; the distilled output is identical either way.
  sim::status::StatusBoard* status = nullptr;
};

/// Per-window accounting, surfaced for auditing and reporting.
struct WindowSummary {
  std::uint64_t begin_offset = 0;  ///< first byte of the window's frames
  std::uint64_t end_offset = 0;    ///< one past the last byte
  std::uint64_t records = 0;       ///< records decoded in the range
  std::uint64_t sent_echoes = 0;
  std::uint64_t replies = 0;
  bool damaged = false;  ///< salvage markers fell inside the range
  bool shed = false;     ///< echo buffers dropped to honour the budget
  bool resumed = false;  ///< restored from the checkpoint journal
};

enum class DistillStatus : std::uint8_t {
  kOk = 0,        ///< clean corpus, full fidelity
  kSalvaged = 1,  ///< damage contained to unauditable windows
  kDegraded = 2,  ///< memory budget forced shedding
};

struct StreamDistillStats {
  std::uint64_t windows_total = 0;
  std::uint64_t windows_damaged = 0;
  std::uint64_t windows_shed = 0;
  std::uint64_t windows_resumed = 0;
  std::uint64_t records_streamed = 0;
  std::uint64_t retained_bytes = 0;  ///< echo projections kept (<= budget)
  std::uint64_t steps = 0;           ///< output step count

  /// The checkpoint journal stopped mid-run after a write failure (ENOSPC,
  /// EIO, ...): the distillation result is complete and correct, but a
  /// killed re-run could not resume past the journal's intact prefix.
  /// Drivers surface this as exit-code 5 (degraded).
  bool checkpoint_degraded = false;
};

struct StreamDistillResult {
  ReplayTrace replay;
  trace::TraceReadReport read_report;  ///< the scan's global salvage report
  std::vector<WindowSummary> windows;
  Distiller::Stats distill_stats;
  StreamDistillStats stats;
  DistillStatus status = DistillStatus::kOk;
};

/// Runs the tolerant checkpoint-journal reader (the resume path, with the
/// fingerprint gate skipped) over arbitrary bytes and returns how many
/// frames decoded intact.  Any input must parse without crashing,
/// throwing, or over-allocating: this is the fuzz surface for the TMDJ
/// format (tests/fuzz/fuzz_distill_journal.cpp).
std::size_t probe_checkpoint_journal(const char* data, std::size_t size);

class StreamDistiller {
 public:
  /// Throws std::invalid_argument on a non-positive window or step.
  explicit StreamDistiller(StreamDistillConfig cfg = {}) : cfg_(cfg) {
    validate_distill_config(cfg_.distill);
  }

  /// Distills a v2 (or v1) trace file.  Throws trace::TraceFormatError on
  /// an unusable header and std::runtime_error on I/O failure; all other
  /// damage is salvaged into the result.
  StreamDistillResult distill_file(const std::string& path);

  const StreamDistillConfig& config() const { return cfg_; }

 private:
  StreamDistillConfig cfg_;
};

}  // namespace tracemod::core
