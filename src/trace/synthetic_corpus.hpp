// Production-volume synthetic trace corpora, generated with flat memory.
//
// Writes the paper's ping workload -- one small ECHO followed by two large
// back-to-back ECHOs per group, replies timed by a slowly wandering
// latency/bandwidth model -- through TraceStreamWriter, so a multi-GB
// corpus never exists in memory.  Between groups the generator pads with
// WaveLAN device readings until the file tracks `target_bytes`
// proportionally: device records stress the streaming container exactly
// like packet records but do not add distillation work, which keeps a
// 1 GB corpus distillable in seconds instead of hours.
//
// Used by `tracemod gen-corpus`, perf_gate's `corpus` row (recorded in
// BENCH_perf.json), the CI corpus soak job, and the kill-resume drills in
// the tests.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace tracemod::trace {

struct CorpusSpec {
  sim::Duration duration = sim::seconds(3600);
  /// One probe group (small/large/large) starts every interval.
  sim::Duration group_interval = sim::seconds(1);
  /// Grow the file toward this size with device-record padding; 0 writes
  /// the bare workload.
  std::uint64_t target_bytes = 0;
  /// Per-reply chance the reply never arrives (exercises the sequence-gap
  /// loss estimator).
  double reply_loss = 0.01;
  std::uint64_t seed = 1;
  std::uint32_t small_bytes = 64;
  std::uint32_t large_bytes = 1064;
};

struct CorpusInfo {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t groups = 0;
  std::uint64_t replies_dropped = 0;
};

/// Generates a v2 trace file per the spec.  Deterministic from the seed.
/// Throws std::runtime_error on I/O failure.
CorpusInfo generate_ping_corpus(const std::string& path,
                                const CorpusSpec& spec);

}  // namespace tracemod::trace
