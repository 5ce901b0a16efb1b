// The yardstick: a fixed piece of single-threaded work, built from the
// standard library alone, that perfbench times right before every timed
// library call.  A shared machine's speed drifts by tens of percent within
// minutes, and every call slows with it.  Dividing a run's wall times by
// how long its yardstick slices took on average (relative to
// kReferenceSliceS) gives its times at the reference speed: what the run
// would have taken had every slice taken kReferenceSliceS.  The end-to-end
// time metrics are those reference-speed times; the raw wall times are
// per-layer figures.
//
// A slice has two phases.  The first runs the shape of a discrete-event
// loop in the core's caches: pop the earliest key from a binary heap,
// update a table, push a later key.  The second chases a pointer through
// 4 MiB, past the core's own caches.  A busy neighbour on the same core
// slows the first phase, one sharing the cache and memory the second;
// the workloads feel both.  The buffers are built once and read through,
// untimed, before each slice, so a slice allocates nothing, calls no
// tracemod code, and does not depend on what the workload left in the
// cache: no change to the libraries can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  /// Wall seconds of one slice on the machine the benchmark was defined
  /// on (see README.md), so reference-speed times read as seconds there.
  static constexpr double kReferenceSliceS = 0.002;

  Yardstick();

  /// Runs one slice; returns its wall seconds.
  double slice();

 private:
  std::vector<std::uint64_t> heap_;  ///< min-heap of event keys, fixed size
  std::vector<double> table_;
  std::vector<std::uint32_t> next_;  ///< one random cycle, for pointer chasing
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::uint32_t cursor_ = 0;
  std::uint64_t sink_ = 0;  ///< folds every result, so no slice is elided
};

}  // namespace perfbench
