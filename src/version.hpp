// Tool identity, stamped into every emitted artifact.
//
// kToolVersion tracks the PR sequence (major.minor = era.PR); bump it in
// the PR that changes any on-disk schema.  Every JSON document the repo
// emits carries a "tool_version" field with this string so a snapshot's
// provenance is auditable long after the binary that wrote it is gone
// (`tracemod version` prints the same inventory interactively).  The
// binary formats are versioned separately, in their own headers, and all
// encode through the shared record codec (sim/io/codec.hpp):
//   - trace format v2        (trace/trace_io.hpp, per-record CRC frames;
//                             v1 is retired and rejected on read)
//   - TMSJ v1                (scenarios/supervisor.cpp, sweep journal)
//   - TMDJ v1                (core/stream_distiller.cpp, distill checkpoints)
//   - TMST v1                (sim/status/status.hpp, live status snapshots)
#pragma once

namespace tracemod {

inline constexpr const char* kToolVersion = "0.9.0";

/// Every JSON schema kind the tool suite emits, for `tracemod version`.
/// A schema change mints a new kind (…-v2), it never mutates an existing
/// one.  A retired kind leaves the list, and its name is never reused for
/// another layout.
inline constexpr const char* kJsonSchemaKinds[] = {
    "tracemod-sweep-v1",
    "tracemod-campus-v1",
    "tracemod-distill-v1",
    "tracemod-perf-v1",
    "tracemod-perf-gate-v1",
    "tracemod-fidelity-v1",
    "tracemod-fidelity-trajectory-v1",
    "tracemod-status-v1",
};

/// Build type as stamped by CMake (TRACEMOD_BUILD_TYPE, lower-cased), or
/// "unknown" for generators that did not stamp one.  Mirrors
/// bench/build_guard.hpp, which additionally enforces Release-only
/// benchmarking on top of this value.
inline const char* build_type() {
#if defined(TRACEMOD_BUILD_TYPE)
  return TRACEMOD_BUILD_TYPE[0] != '\0' ? TRACEMOD_BUILD_TYPE : "unknown";
#else
  return "unknown";
#endif
}

}  // namespace tracemod
