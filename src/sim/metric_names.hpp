// Canonical metric names for every counter, histogram, and series channel
// surfaced through SimContext's MetricsRegistry (sim_context.hpp).
//
// Components bump these so an experiment can assert "this run saw N
// salvaged records / M starved daemon wakeups" without reaching into
// component internals.  Central constants keep producers (trace reader,
// fault injector, network stack, modulation daemon) and consumers (tests,
// reports, exporters) agreeing on spelling.  Every counter name a
// simulation can emit must be listed in all_counter_names() below; a test
// runs a full end-to-end scenario and fails on any stray string literal
// that bypassed this header.
#pragma once

namespace tracemod::sim::metric {

/// Good trace records decoded after at least one damaged region (salvage
/// reader, trace/trace_io.hpp).
inline constexpr const char* kRecordsSalvaged = "records_salvaged";

/// Record frames whose CRC32C did not validate.
inline constexpr const char* kCrcFailures = "crc_failures";

/// Byte-scan resynchronizations after a corrupted length prefix.
inline constexpr const char* kResyncScans = "resync_scans";

/// Modulation-daemon wakeups lost to injected stalls (pseudo-device
/// starvation; trace/fault_injector.hpp).
inline constexpr const char* kDaemonStarvedTicks = "daemon_starved_ticks";

/// Trace records rejected by injected kernel-buffer pressure.
inline constexpr const char* kBufferPressureDrops = "buffer_pressure_drops";

// --- network stack counters (src/net, src/transport, src/wireless) ---

/// Packets handed to Node::send by a local source.
inline constexpr const char* kNetPacketsSent = "net.packets_sent";

/// Packets received by a Node on any interface.
inline constexpr const char* kNetPacketsReceived = "net.packets_received";

/// Packets a Node relayed toward another hop.
inline constexpr const char* kNetPacketsForwarded = "net.packets_forwarded";

/// TCP segments retransmitted after a timeout.
inline constexpr const char* kTcpRetransmits = "tcp.retransmits";

/// Link-layer retransmissions on the wireless channel.
inline constexpr const char* kWirelessRetransmits = "wireless.retransmits";

/// Frames dropped by the wireless channel after exhausting retries.
inline constexpr const char* kWirelessDrops = "wireless.drops";

/// Cell handoffs completed by mobile hosts.
inline constexpr const char* kWirelessHandoffs = "wireless.handoffs";

/// Packets dropped by trace modulation (delay-queue policy).
inline constexpr const char* kModulationDrops = "modulation.drops";

// --- fidelity-audit counters (src/audit) ---

/// Divergence windows scored by the fidelity auditor (auditable +
/// unauditable).
inline constexpr const char* kAuditWindowsTotal = "audit.windows_total";

/// Windows the auditor could not score: a LostRecords marker or zero
/// distillation estimates fell inside them.  These are excluded from the
/// divergence aggregates (degraded collection must never read as
/// divergence).
inline constexpr const char* kAuditWindowsUnauditable =
    "audit.windows_unauditable";

/// Auditable windows whose latency/bandwidth/loss all landed inside the
/// per-window tolerances.
inline constexpr const char* kAuditWindowsWithinTolerance =
    "audit.windows_within_tolerance";

// --- telemetry histogram / series channel names ---

/// End-to-end packet latency, source send to final delivery (histogram,
/// milliseconds).
inline constexpr const char* kE2eLatencyMs = "e2e.latency_ms";

/// Modulation delay-queue occupancy sampled at every enqueue/release
/// (series, packets).
inline constexpr const char* kDelayQueueDepth = "modulation.delay_queue_depth";

/// Modelled bottleneck backlog when each packet enters modulation (series,
/// seconds of queued transmission time).
inline constexpr const char* kBottleneckBacklog =
    "modulation.bottleneck_backlog_s";

/// Replay pseudo-device buffer occupancy at each daemon pump (series,
/// records).
inline constexpr const char* kReplayBufferDepth = "replay.buffer_depth";

/// Per-window recovered-vs-reference latency relative error (series,
/// sampled at each divergence window's midpoint on the audit timeline).
inline constexpr const char* kAuditLatencyRelErr = "audit.latency_rel_err";

/// Per-window bottleneck-bandwidth relative error (series).
inline constexpr const char* kAuditBandwidthRelErr =
    "audit.bandwidth_rel_err";

/// Per-window |recovered - reference| loss-rate delta (series).
inline constexpr const char* kAuditLossDelta = "audit.loss_delta";

// --- wall-clock perf-plane metrics (src/sim/perf/) ---
//
// Appended onto a TelemetrySnapshot by append_perf_to_telemetry when a
// PerfSession profiled the run; never emitted from inside a simulated
// world (the profiler observes wall time only).

/// Event-loop dispatches observed by the attached profiler (counter).
inline constexpr const char* kPerfEventsProfiled = "perf.events_profiled";

/// Process-wide operator-new calls while the profiler was attached
/// (counter; from the allocation interposer).
inline constexpr const char* kPerfAllocs = "perf.allocs";

/// Process-wide operator-delete calls while attached (counter).
inline constexpr const char* kPerfFrees = "perf.frees";

/// Bytes allocated while attached (counter; usable-size accounting).
inline constexpr const char* kPerfAllocBytes = "perf.alloc_bytes";

/// Live heap bytes at each periodic counter sample (series, bytes,
/// sampled at the dispatch's virtual time).
inline constexpr const char* kPerfHeapLiveBytes = "perf.heap_live_bytes";

/// Event-loop pending-queue depth at each counter sample (series).
inline constexpr const char* kPerfEventQueueDepth =
    "perf.event_queue_depth";

/// Wall-clock dispatch throughput between consecutive counter samples
/// (series, events per wall second).
inline constexpr const char* kPerfEventsPerSec = "perf.events_per_sec";

/// Sampled event-loop dispatch self-times (histogram, microseconds).
inline constexpr const char* kPerfDispatchSelfUs = "perf.dispatch_self_us";

// --- experiment-supervision counters (src/scenarios/supervisor.hpp) ---
//
// Published by export_supervision_metrics onto whatever registry the sweep
// driver supplies; never emitted from inside a trial's SimContext.

/// Trials that exhausted their retry budget and recorded a TrialError.
inline constexpr const char* kSweepTrialsFailed = "sweep.trials_failed";

/// Retry attempts consumed across the sweep (recovered or not).
inline constexpr const char* kSweepTrialsRetried = "sweep.trials_retried";

/// Benchmark outcomes abandoned by a watchdog (virtual-time budget expiry
/// or wall-clock stuck-trial detection).
inline constexpr const char* kSweepTrialsTimedOut = "sweep.trials_timed_out";

// --- durable-write-plane counters (src/sim/io/) ---
//
// Accumulated process-globally (like the perf plane's allocation
// telemetry) and published by export_io_metrics onto whatever registry a
// driver supplies; never emitted from inside a simulated world.

/// Failed write-plane operations: open, write, rename, truncate, close
/// (real or injected).
inline constexpr const char* kIoWriteErrors = "io.write_errors";

/// Failed fsync/fdatasync calls, counted separately because a failed sync
/// forbids the subsequent rename under the atomic-replace contract.
inline constexpr const char* kIoFsyncFailures = "io.fsync_failures";

/// Artifact planes (sweep journal, distill checkpoint, ...) that gave up
/// for the rest of the run after a write failure.
inline constexpr const char* kIoDegradedPlanes = "io.degraded_planes";

/// Status snapshots dropped because their atomic publish failed (the run
/// itself continues; the status plane is droppable by contract).
inline constexpr const char* kStatusPublishFailed = "status.publish_failed";

/// Every counter name the simulation can emit.  The metric-name drift test
/// snapshots a full end-to-end run and fails if it sees a counter that is
/// not in this list.
inline constexpr const char* kAllCounterNames[] = {
    kRecordsSalvaged,    kCrcFailures,         kResyncScans,
    kDaemonStarvedTicks, kBufferPressureDrops, kNetPacketsSent,
    kNetPacketsReceived, kNetPacketsForwarded, kTcpRetransmits,
    kWirelessRetransmits, kWirelessDrops,      kWirelessHandoffs,
    kModulationDrops,    kAuditWindowsTotal,   kAuditWindowsUnauditable,
    kAuditWindowsWithinTolerance, kSweepTrialsFailed, kSweepTrialsRetried,
    kSweepTrialsTimedOut, kPerfEventsProfiled, kPerfAllocs,
    kPerfFrees,          kPerfAllocBytes,      kIoWriteErrors,
    kIoFsyncFailures,    kIoDegradedPlanes,    kStatusPublishFailed,
};

/// Every series channel name, for the same drift test (audit divergence
/// tracks included).
inline constexpr const char* kAllSeriesNames[] = {
    kDelayQueueDepth,    kBottleneckBacklog,   kReplayBufferDepth,
    kAuditLatencyRelErr, kAuditBandwidthRelErr, kAuditLossDelta,
    kPerfHeapLiveBytes,  kPerfEventQueueDepth, kPerfEventsPerSec,
};

/// Every histogram name, for the same drift test.
inline constexpr const char* kAllHistogramNames[] = {
    kE2eLatencyMs,
    kPerfDispatchSelfUs,
};

}  // namespace tracemod::sim::metric
