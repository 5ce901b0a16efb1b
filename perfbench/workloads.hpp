// The benchmark's three workloads.  Each is a closed-loop batch job: one
// simulated world (or one distillation input) at a time, on one thread
// except where a thread count is stated, with every input derived from the
// workload seed.
//
//   paper_sweep  the sweep tool's default matrix, serially: 4 scenarios x
//                {web, ftp-recv, andrew} x 4 trials plus the Ethernet rows
//   campus       CampusWorld at 10,000 hosts, plus 1,000 hosts for the
//                scaling slope
//   distill      a 4-hour probe trace distilled in memory and streamed,
//                plus a ~128 MB padded corpus streamed
//
// A pass is setup() followed by run(); main.cpp times setup() and repeats
// passes for the requested wall time (a workload whose inputs outlive a
// pass may skip setup() after the first few passes).  run() times each
// library call it makes (a "unit") and returns those times in the same
// order on every pass; main.cpp takes each unit's median across passes
// and hands the medians to summarize(), so one slow stretch of a shared
// machine moves only the units it overlapped, and only if it hit most
// passes.  Right before each call, run() times a fixed number of yardstick
// slices (yardstick.hpp), so main.cpp can tell how fast the machine ran
// during the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "yardstick.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

struct PassResult {
  /// Wall seconds of each timed call, in the same order on every pass.
  std::vector<double> unit_wall_s;
  /// Wall seconds of each yardstick slice run between the calls.
  std::vector<double> yard_s;
  /// Useful-outcome ratios and per-call rates read from the results.
  Metrics layer;
  /// FNV-1a over the pass's outputs; equal on every pass of one seed.
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;  ///< units of work checked in this pass
  std::vector<std::string> failures;
};

struct WorkloadOptions {
  std::uint64_t seed = 0;
  std::string work_dir = ".";   ///< where the distill inputs are written
  unsigned stream_threads = 2;  ///< StreamDistiller pass-2 workers
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the pass's inputs; its wall time is reported as setup.
  virtual void setup(SpanRecorder* spans) = 0;
  /// False when run() only reads what setup() built, so after the first
  /// few passes main.cpp may keep the inputs instead of rebuilding them.
  virtual bool setup_every_pass() const { return true; }
  /// Runs the timed phase and checks its outputs.
  virtual PassResult run(SpanRecorder* spans, Yardstick& yard) = 0;
  /// End-to-end figures from per-unit times (ordered as run() returns
  /// them): wall_s, sim_s_per_wall_s, work_per_sec and wall_exponent.
  virtual Metrics summarize(const std::vector<double>& unit_wall_s) const = 0;
  /// Output digest recorded for workload seed 0 on this code.
  virtual std::uint64_t recorded_digest() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts);

}  // namespace perfbench
