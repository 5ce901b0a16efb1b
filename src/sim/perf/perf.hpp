// The wall-clock performance observability plane.
//
// Where sim/telemetry.hpp answers "what happened in virtual time", this
// subsystem answers "where did the CPU cycles and heap bytes go".  It is
// a scoped, sampling call-path profiler with per-subsystem domains:
//
//   - hook points in the hot paths (event-loop dispatch, packet path,
//     modulation delay queue, cell-index queries, distiller passes) open
//     a PerfScope; nested scopes build call paths such as
//     "event_loop;icmp.echo;node.send";
//   - a profiler attaches to ONE thread via PerfSession (a thread-local
//     current-profiler pointer), so hook sites cost a TLS load plus a
//     predicted branch when no profiler is attached -- the disabled
//     contract is bit-identical output, pinned by the seed goldens;
//   - timing is sampled: one in sampling_stride root scopes is measured
//     with the steady clock (the whole stack of that occurrence is timed
//     together, so self-time subtraction stays consistent); counts and
//     allocation counts are exact for every occurrence, while allocated
//     bytes are malloc_usable_size chunk sizes and so move with heap
//     layout;
//   - allocation attribution reads the operator-new interposer counters
//     (sim/perf/alloc_telemetry.hpp) around each scope, with the
//     profiler's own bookkeeping excluded via AllocSuspendGuard, so a
//     subsystem claiming "zero heap allocs in steady state" can be held
//     to it;
//   - periodic counter samples (every counter_sample_every dispatches)
//     capture events/sec, live heap bytes, and event-queue depth for
//     Perfetto counter tracks.
//
// The profiler never schedules events, never draws randomness, and never
// touches virtual time: an attached run is virtual-time-identical to an
// unattached one (pinned by tests/sim/perf_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/perf/alloc_telemetry.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace tracemod::sim::perf {

/// The subsystems wall time and allocations are attributed to.  A scope's
/// domain classifies its leaf; root scopes prefix the call path with the
/// domain name (flamegraph grouping).
enum class Domain : std::uint8_t {
  kEventLoop = 0,  ///< event-loop dispatch (root scopes, per handler tag)
  kPacketPath,     ///< Node::send / Node::on_receive and below
  kModulation,     ///< the modulation delay queue
  kCellIndex,      ///< spatial cell-index queries and updates
  kDistill,        ///< distiller passes (in-memory and streaming)
  kOther,          ///< everything else (toy subsystems, tests)
};
inline constexpr std::size_t kDomainCount = 6;
const char* to_string(Domain d);

struct PerfConfig {
  /// Time one in N root-scope occurrences (1 = time everything).  Counts
  /// and allocation counts stay exact regardless.
  std::uint32_t sampling_stride = 1;
  /// Dispatches between two counter samples (events/sec, heap bytes,
  /// queue depth).
  std::uint32_t counter_sample_every = 1024;
  /// Histogram shape for sampled root-dispatch self-times (microseconds).
  double dispatch_hist_max_us = 1000.0;
  std::size_t dispatch_hist_bins = 40;
};

class PerfProfiler {
 public:
  explicit PerfProfiler(PerfConfig cfg = {});

  const PerfConfig& config() const { return cfg_; }

  /// One call-path node: a (parent, domain, label) triple with exact
  /// counts, sampled wall time, exact allocation counts, and allocated
  /// bytes as chunk sizes (these depend on heap layout).
  /// Children's measured time/allocs are recorded so self = total - child.
  struct Node {
    std::int32_t parent = -1;  ///< index into nodes(), -1 for roots
    Domain domain = Domain::kOther;
    const char* label = "";
    std::uint64_t count = 0;
    std::uint64_t timed_count = 0;  ///< occurrences measured (sampling)
    double wall_s = 0.0;            ///< measured total time
    double child_s = 0.0;           ///< measured time spent in children
    std::uint64_t allocs = 0;       ///< exact allocations in scope
    std::uint64_t alloc_bytes = 0;  ///< their malloc_usable_size sum
    std::uint64_t child_allocs = 0;
    std::uint64_t child_alloc_bytes = 0;
    std::vector<std::uint32_t> children;
  };

  /// One periodic counter sample, for Perfetto counter tracks and the
  /// perf.* series family.
  struct CounterSample {
    double wall_s = 0.0;   ///< wall seconds since first attach
    TimePoint at;          ///< virtual time of the sampled dispatch
    std::uint64_t dispatched = 0;  ///< dispatches seen by this profiler
    std::uint64_t allocs = 0;      ///< process allocs since first attach
    std::int64_t heap_live_bytes = 0;  ///< process-wide live heap bytes
    std::uint64_t queue_depth = 0;     ///< event-loop pending events
  };

  // --- hook API (called from instrumented code via PerfScope) ---
  void enter(Domain d, const char* label);
  void leave();
  /// Event-loop dispatch hook: counts dispatches and takes periodic
  /// counter samples.  Never schedules, never allocates attributably.
  void on_dispatch(TimePoint virtual_now, std::size_t queue_depth);

  // --- session lifecycle (called by PerfSession) ---
  void on_attach();
  void on_detach();

  // --- introspection (for sim/perf/report.hpp and tests) ---
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::uint32_t>& roots() const { return roots_; }
  const std::vector<CounterSample>& samples() const { return samples_; }
  const Histogram& dispatch_hist() const { return dispatch_hist_; }
  std::uint64_t dispatched() const { return dispatched_; }
  /// Wall seconds spent attached (closed sessions plus the live one).
  double attached_wall_s() const;
  /// Process-wide allocation delta since the first attach.
  AllocTotals alloc_delta() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    std::uint32_t node = 0;
    bool timed = false;
    Clock::time_point t0;
    double child_s = 0.0;
    AllocTotals alloc0;
    std::uint64_t child_allocs = 0;
    std::uint64_t child_alloc_bytes = 0;
  };

  std::uint32_t find_or_create(std::int32_t parent, Domain d,
                               const char* label);

  PerfConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;
  std::vector<Frame> stack_;
  std::uint64_t root_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t sample_countdown_ = 0;
  Histogram dispatch_hist_;
  std::vector<CounterSample> samples_;
  bool ever_attached_ = false;
  Clock::time_point first_attach_;
  Clock::time_point session_t0_;
  double closed_wall_s_ = 0.0;
  bool attached_ = false;
  AllocTotals alloc_at_start_;
  std::thread::id owner_;
};

namespace detail {
// constinit: with no dynamic initializer, a read is a plain TLS load, not a
// call through the thread_local init wrapper.
extern constinit thread_local PerfProfiler* g_current;
}

/// The profiler attached to the calling thread, or nullptr.  This is the
/// single guard every hook point checks.
inline PerfProfiler* current() noexcept { return detail::g_current; }

/// Attaches a profiler to the calling thread for the guard's lifetime.
/// Sessions may nest (the previous attachment is restored); a profiler is
/// single-threaded by contract and asserts if re-attached elsewhere.
class PerfSession {
 public:
  explicit PerfSession(PerfProfiler& p);
  ~PerfSession();
  PerfSession(const PerfSession&) = delete;
  PerfSession& operator=(const PerfSession&) = delete;

 private:
  PerfProfiler* prev_;
};

/// RAII scope for one hook point.  Resolves the thread's profiler once;
/// when none is attached the constructor and destructor are a TLS load
/// plus a predicted branch.
class PerfScope {
 public:
  PerfScope(Domain d, const char* label) : p_(current()) {
    if (p_ != nullptr) p_->enter(d, label);
  }
  /// Overload for call sites that already resolved current() (the event
  /// loop, which also feeds on_dispatch).
  PerfScope(PerfProfiler* p, Domain d, const char* label) : p_(p) {
    if (p_ != nullptr) p_->enter(d, label);
  }
  ~PerfScope() {
    if (p_ != nullptr) p_->leave();
  }
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  PerfProfiler* p_;
};

}  // namespace tracemod::sim::perf
