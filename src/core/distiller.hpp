// Trace distillation (paper Section 3.2.2).
//
// Transforms a collected trace into a replay trace:
//   1. reconstruct the ping workload's packet groups (one small ECHO, two
//      large back-to-back ECHOs) from the recorded stream;
//   2. per complete group, solve equations (5)-(8) for F, Vb, Vr using only
//      round-trip times taken on a single host;
//   3. when a group yields negative parameters (the packets saw different
//      network conditions), apply the paper's correction: keep the previous
//      Vb/Vr, fold the observed/expected difference into F, and do not let
//      the correction cascade;
//   4. slide a window (default 5 s) over the estimates, emitting one delay
//      tuple per step as the window average;
//   5. per window, estimate the loss rate from ECHOREPLY sequence-number
//      gaps in and immediately surrounding the window: L = 1 - sqrt(b/a).
//
// The pipeline stages are free functions over compact echo projections so
// the in-memory Distiller and the corpus-scale streaming distiller
// (stream_distiller.hpp) run the exact same arithmetic in the exact same
// order -- that is what makes their outputs bit-identical.  Every stage is
// linear in the trace: each estimate and each reply is visited once and
// touches only the step windows that hold it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/model.hpp"
#include "trace/records.hpp"

namespace tracemod::core {

struct DistillConfig {
  sim::Duration window = sim::seconds(5);
  sim::Duration step = sim::seconds(1);
  double max_loss = 0.99;  ///< cap so modulation never fully blackholes
};

/// Throws std::invalid_argument unless window and step are positive (a
/// zero step would never advance the output).
void validate_distill_config(const DistillConfig& cfg);

// --- compact echo projections -----------------------------------------------
//
// Everything distillation reads from a packet record, and nothing else;
// the streaming distiller buffers windows of these (18 bytes a reply)
// instead of full TraceRecords.

struct EchoSent {
  std::uint16_t icmp_seq = 0;
  std::uint32_t ip_bytes = 0;
};

struct EchoReply {
  sim::TimePoint at{};
  sim::Duration rtt{};
  std::uint16_t icmp_seq = 0;
};

inline bool is_echo_sent(const trace::PacketRecord& p) {
  return p.icmp_kind == trace::IcmpKind::kEcho &&
         p.dir == trace::PacketDirection::kOutgoing;
}

inline bool is_echo_reply(const trace::PacketRecord& p) {
  return p.icmp_kind == trace::IcmpKind::kEchoReply &&
         p.dir == trace::PacketDirection::kIncoming;
}

/// One reconstructed probe group: round-trip times and sizes for the
/// small/large/large triple.
struct EchoGroup {
  sim::TimePoint at;          ///< completion time (stage-1 reply)
  double t1_s, t2_s, t3_s;    ///< round-trip times, seconds
  double s1_bytes, s2_bytes;  ///< packet sizes (IP bytes)
};

class Distiller {
 public:
  /// One per-group estimate of the instantaneous delay parameters.
  struct Estimate {
    sim::TimePoint at;  ///< completion time of the group (stage-1 reply)
    double latency_s = 0.0;
    double per_byte_bottleneck = 0.0;
    double per_byte_residual = 0.0;
    bool corrected = false;  ///< negative-parameter correction applied
  };

  struct Stats {
    std::size_t groups_total = 0;      ///< complete 3-reply groups
    std::size_t groups_corrected = 0;  ///< negative-parameter corrections
    std::size_t groups_skipped = 0;    ///< unusable (no prior estimate)
    std::size_t windows_empty = 0;     ///< windows with no delay estimate
  };

  /// Throws std::invalid_argument on a non-positive window or step.
  explicit Distiller(DistillConfig cfg = {});

  /// Runs the full single-pass distillation.
  ReplayTrace distill(const trace::CollectedTrace& trace);

  /// The per-group estimates from the last distill() call (for analysis
  /// and the figure benches).
  const std::vector<Estimate>& estimates() const { return estimates_; }
  const Stats& stats() const { return stats_; }
  const DistillConfig& config() const { return cfg_; }

 private:
  DistillConfig cfg_;
  std::vector<Estimate> estimates_;
  Stats stats_;
};

// --- shared pipeline stages -------------------------------------------------

/// Stage 1: reconstruct complete small/large/large probe groups from the
/// send order and the reply sequence numbers (last reply per seq wins).
std::vector<EchoGroup> reconstruct_echo_groups(
    const std::vector<EchoSent>& sent, const std::vector<EchoReply>& replies);

/// Stages 2-3: equations (5)-(8) plus the negative-parameter correction.
/// Sequential over groups (the correction baseline threads through).
std::vector<Distiller::Estimate> estimate_delay_parameters(
    const std::vector<EchoGroup>& groups, Distiller::Stats* stats);

/// Stage 5 arithmetic: L = 1 - sqrt(b/a) from integer gap inputs, with the
/// previous window's loss carried through unmeasurable windows.  Shared so
/// the streaming distiller's merged integer summaries yield the identical
/// double.
double loss_from_gap(std::int64_t in_window, std::int64_t seq_lo,
                     std::int64_t seq_hi, double previous, double max_loss);

/// Stage 5 for one step window by a scan of every reply.  The reference
/// the loss lattice below must reproduce (tests, perfbench's staged check);
/// the distillers use the lattice.
double window_loss_over_replies(const std::vector<EchoReply>& replies,
                                std::uint64_t echoes_sent_total,
                                sim::TimePoint w_begin, sim::TimePoint w_end,
                                double previous, double max_loss);

/// Output steps of a trace whose records span [t0, t_end]: one per step
/// started before t_end.
std::size_t step_count(sim::TimePoint t0, sim::TimePoint t_end,
                       sim::Duration step);

/// The step windows of a trace that starts at t0.  Window j spans
/// [begin + j*step, end + j*step), where begin and end are
/// t0 + step/2 -/+ window/2 with each half truncated separately -- the
/// same integers assemble_replay's chrono arithmetic gives.
class StepWindows {
 public:
  StepWindows(sim::TimePoint t0, const DistillConfig& cfg);

  /// The windows that hold time t are exactly first(t) <= j <= last(t);
  /// neither bound is clamped to the trace's steps.
  std::int64_t first(sim::TimePoint t) const;
  std::int64_t last(sim::TimePoint t) const;

 private:
  std::int64_t begin_, end_, step_;
};

/// Stage 5's integer inputs for every output step: the replies inside step
/// j's window, and the sequence numbers of the last reply before it and the
/// first reply at or after its end.
struct LossLattice {
  std::uint64_t replies = 0;      ///< replies the lattice was built from
  std::uint64_t echoes_sent = 0;  ///< seq_hi when no reply follows a window
  std::vector<std::int64_t> in_window;
  std::vector<std::int64_t> seq_lo;  ///< -1 when no reply precedes a window
  std::vector<std::int64_t> seq_hi;

  /// Step j's loss; equals window_loss_over_replies over the same replies.
  double loss(std::size_t j, double previous, double max_loss) const;
};

/// Builds the loss lattice in one pass over the replies, in any time order.
/// A reply counts into in_window for every window that holds it, is a
/// seq_lo candidate for every later window and a seq_hi candidate for every
/// earlier one.  Each candidate is recorded once, at the nearest such step
/// (clamped to the trace's steps); finalize()'s prefix-max and suffix-min
/// sweeps spread it to the rest.
///
/// Without a step count (a streaming scan), the dense slots grow only as
/// far as the replies so far pay for: a base of kDenseBaseSlots plus
/// kDenseSlotsPerReply per reply.  A reply whose slots lie past that --
/// one implausible far-future timestamp, or the first replies after a long
/// gap -- is held as-is and placed by finalize(), once the step count is
/// known; past the last step only its seq_hi candidate still matters.  So
/// a streaming build never sizes the lattice by a timestamp alone: memory
/// stays within c * (replies + steps).
class LatticeBuilder {
 public:
  static constexpr std::int64_t kUnbounded =
      std::numeric_limits<std::int64_t>::max();

  /// `max_steps` bounds the lattice when the step count is known up front
  /// (the in-memory distiller); a streaming scan learns it only at the end.
  LatticeBuilder(sim::TimePoint t0, const DistillConfig& cfg,
                 std::int64_t max_steps = kUnbounded);

  void add_reply(sim::TimePoint at, std::uint16_t seq);

  /// The lattice for the first `steps` windows (steps <= max_steps).
  LossLattice finalize(std::size_t steps, std::uint64_t echoes_sent) &&;

 private:
  static constexpr std::int64_t kDenseBaseSlots = std::int64_t{1} << 16;
  static constexpr std::int64_t kDenseSlotsPerReply = 16;

  struct HeldReply {
    sim::TimePoint at;
    std::uint16_t seq;
  };

  /// Records the candidates of a reply held by windows first..last in the
  /// dense slots, growing them.
  void place(std::int64_t first, std::int64_t last, std::uint16_t seq);
  void grow(std::int64_t n);

  StepWindows windows_;
  std::int64_t max_steps_;
  std::uint64_t replies_ = 0;
  std::vector<std::int64_t> in_window_;
  std::vector<std::int64_t> cand_lo_;
  std::vector<std::int64_t> cand_hi_;
  std::vector<HeldReply> held_;  ///< replies too far out to place yet
};

/// Stage 4 + assembly: average the estimates over each step window, fill
/// empty windows from neighbours, and pair each step with the loss the
/// callback reports.  The callback is invoked once per step in step order
/// with (w_begin, w_end, previous_loss).  Each estimate is added, in index
/// order, to the windows that hold it, so every window sums the same
/// addends in the same order as a scan of all estimates would.
ReplayTrace assemble_replay(
    const DistillConfig& cfg, const std::vector<Distiller::Estimate>& estimates,
    sim::TimePoint t0, sim::TimePoint t_end,
    const std::function<double(sim::TimePoint, sim::TimePoint, double)>&
        window_loss,
    Distiller::Stats* stats);

}  // namespace tracemod::core
