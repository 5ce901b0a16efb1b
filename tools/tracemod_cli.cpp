// tracemod — command-line front end for the trace pipeline.
//
//   tracemod collect <scenario> <out.trace> [--seed N]
//       run a collection traversal of a built-in scenario and write the
//       raw trace (binary, self-descriptive format)
//   tracemod distill <in.trace> <out.replay> [--window S] [--step S]
//                    [--salvage] [--corpus-window S] [--budget-mb N]
//                    [--checkpoint FILE] [--resume] [--json FILE]
//                    [--status PREFIX]
//       distill a raw trace into a replay trace (text format) with the
//       bounded-memory streaming distiller (core/stream_distiller.hpp):
//       windowed one-read distillation with flat RSS, optional CRC-framed
//       checkpoints (--checkpoint) that a killed run resumes
//       byte-identically (--resume), and graceful degradation under
//       --budget-mb instead of bad_alloc (the budget bounds the echo
//       projections kept; their growing arrays may allocate up to about
//       twice it).  A trace whose read was not clean (damage, or records
//       past the header's count) is refused with the strict reader's
//       error and exit 2, and no replay or JSON is written; --salvage
//       reads around the damage instead.  Exits 0 on a clean corpus, 3
//       when --salvage read around damage (unauditable windows), 5 when
//       the budget forced shedding or the checkpoint journal degraded
//   tracemod gen-corpus <out.trace> [--seconds N] [--interval S]
//                       [--target-mb N] [--loss P] [--seed N]
//       generate a synthetic ping-workload corpus with flat memory
//       (trace/synthetic_corpus.hpp); --target-mb pads with device
//       records toward the requested file size
//   tracemod info <file>
//       summarize a raw trace (one strict streaming pass, flat memory) or
//       a replay trace (auto-detected)
//   tracemod synth <kind> <out.replay> [--seconds N]
//       write a synthetic replay trace: wavelan | step | slow
//   tracemod verify <in.trace>
//       integrity-check a raw trace: strict parse, then a salvage parse
//       whose damage report is printed
//   tracemod corrupt <in.trace> <out.trace> [--seed N] [--flips K]
//                    [--truncate] [--drop N] [--dup N]
//                    [--range-begin OFF] [--range-end OFF]
//       write a deterministically corrupted copy of a raw trace; the
//       copy is streamed record-by-record and the byte faults are
//       applied in place, so a multi-GB corpus corrupts with flat
//       memory.  --range-begin/--range-end confine the byte flips to an
//       offset range (e.g. one distillation window)
//   tracemod audit <in.replay> [--tick MS] [--seed N] [--json FILE] ...
//       close the loop over a replay trace: replay it through the
//       modulated testbed, collect a second-order trace with the standard
//       instruments, re-distill, and judge the recovered parameter track
//       against the input; exits kExitAudit on breach
//   tracemod report <out-prefix> [--replay FILE] [--benchmark KIND]
//                   [--seed N] [--seconds N] [--audit] [--perf]
//       run one telemetry-enabled modulated benchmark and export
//       <out-prefix>.perfetto.json and <out-prefix>.metrics.txt; with
//       --audit the exports also carry the fidelity divergence series,
//       with --perf the report and metrics carry the perf plane's
//       hotspots and perf.* family
//   tracemod campus [--hosts N] [--cell M] [--threads N] [--seconds S]
//                   [--seed N] [--wall-budget S] [--json FILE]
//       generate and run an N-host campus on the sharded wireless medium
//       (scenarios/campus.hpp); prints the deterministic result digest and
//       events/sec, exits kExitDegraded if the run did not reach its
//       virtual horizon
//   tracemod perf <out-prefix> [--pipeline SCENARIO | --campus]
//                 [--replay FILE] [--benchmark KIND] [--seed N]
//                 [--seconds N] [--hosts N] [--cell M] [--threads N]
//                 [--stride N] [--top N]
//       run one workload under the wall-clock profiler (sim/perf/) and
//       write <out-prefix>.perf.json (tracemod-perf-v1: top-N self-time
//       hotspots, allocs/event, events/sec, sim-seconds per wall-second),
//       <out-prefix>.folded.txt (collapsed-stack flamegraph text), and
//       <out-prefix>.perf-counters.json (Perfetto counter tracks).
//       Default workload is a modulated benchmark (--replay / synthetic);
//       --pipeline runs collect -> distill -> modulated benchmark over a
//       built-in scenario; --campus runs the N-host campus and carries
//       its result digest (profiling never changes virtual time, so the
//       digest equals an unprofiled run's).  A flag the chosen mode does
//       not read is refused: --replay belongs to the default mode,
//       --benchmark to it and --pipeline, --hosts/--cell/--threads to
//       --campus, and --seconds to --campus or the default mode without
//       --replay
//   tracemod sweep [--threads N | --serial] [--trials N] [--seed N]
//                  [--scenarios porter,flagstaff,wean,chatterbox,campus]
//                  [--benchmarks web,ftp-send,ftp-recv,andrew]
//                  [--no-compensate] [--supervise] [--retries N]
//                  [--retry-perturb] [--budget S] [--wall-budget S]
//                  [--poison SCEN:BENCH:PHASE:TRIAL[:FAILS]]
//                  [--journal FILE | --resume FILE] [--json FILE]
//                  [--telemetry PREFIX] [--audit[=FILE]] [--status PREFIX]
//       run the paper's full evaluation matrix on N threads (the `sweep`
//       binary is the same command).  Every cell of {benchmark} x
//       {scenario} runs the paper's procedure: N live trials, N collection
//       traversals distilled to replay traces, one modulated trial per
//       trace, plus a bare-Ethernet baseline row per benchmark.  Each
//       trial is an isolated SimContext seeded as base_seed + trial, so
//       the results are bit-identical whether the matrix runs on one
//       thread (--serial) or across all cores; only the wall clock
//       changes.  Exits 4 when --audit found a fidelity breach, 5 when a
//       supervised sweep completed with degraded cells (at least one trial
//       exhausted its retries; the table still prints and the error
//       records say which trials and seeds failed) or its journal degraded.
//       Supervision (DESIGN.md section 10; every flag from --supervise to
//       --resume, and --status, implies --supervise): every trial runs
//       crash-isolated under a guard, --budget caps virtual time per trial,
//       --wall-budget abandons trials whose event loop stops making
//       progress, --retries re-runs a failed trial with the identical
//       derived seed (--retry-perturb opts into explicitly
//       non-bit-identical perturbed retry seeds), and --poison injects a
//       deterministic fault for chaos drills ("-" fields are wildcards;
//       FAILS bounds how many attempts fail, default all).  --journal FILE
//       persists each completed cell to a CRC-framed journal as the sweep
//       runs; after a crash or kill, --resume FILE skips the journaled
//       cells and re-runs only the rest, with final output byte-identical
//       to an uninterrupted run of the same config.  A partial trailing
//       record (the normal kill-mid-append case) is dropped with a
//       warning, and a corrupt or config-mismatched journal falls back to
//       a full re-run.  --resume is incompatible with --audit and
//       --telemetry (neither is journaled).  The observer flags are
//       documented in observers.hpp.
#include "tracemod_cli.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <variant>

#include "audit/auditor.hpp"
#include "core/distiller.hpp"
#include "core/model.hpp"
#include "core/stream_distiller.hpp"
#include "flags.hpp"
#include "observers.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "sim/io/durable.hpp"
#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "sim/status/status.hpp"
#include "sim/task_pool.hpp"
#include "trace/fault_injector.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "trace/trace_io.hpp"
#include "version.hpp"

namespace tracemod::cli {

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tracemod collect <porter|flagstaff|wean|chatterbox> <out.trace> "
      "[--seed N]\n"
      "  tracemod distill <in.trace> <out.replay> [--window SECONDS] "
      "[--step SECONDS] [--salvage]\n"
      "                   [--corpus-window SECONDS] [--budget-mb N] "
      "[--checkpoint FILE] [--resume]\n"
      "                   [--json FILE]\n"
      "  tracemod gen-corpus <out.trace> [--seconds N] [--interval S] "
      "[--target-mb N] [--loss P] [--seed N]\n"
      "  tracemod info <file.trace|file.replay>\n"
      "  tracemod synth <wavelan|step|slow> <out.replay> [--seconds N]\n"
      "  tracemod verify <in.trace>\n"
      "  tracemod corrupt <in.trace> <out.trace> [--seed N] [--flips K] "
      "[--truncate] [--drop N] [--dup N]\n"
      "                   [--range-begin OFF] [--range-end OFF]\n"
      "  tracemod audit <in.replay> [--tick MS] [--seed N] [--json FILE]\n"
      "                 [--baseline-seconds N] [--max-latency X] "
      "[--max-bandwidth X]\n"
      "                 [--max-loss X] [--max-ks X] [--min-within X] "
      "[--min-auditable X]\n"
      "  tracemod report <out-prefix> [--replay FILE] "
      "[--benchmark web|ftp-send|ftp-recv|andrew] [--seed N] [--seconds N] "
      "[--audit] [--perf]\n"
      "  tracemod campus [--hosts N] [--cell METERS] [--threads N] "
      "[--seconds S]\n"
      "                  [--seed N] [--wall-budget S] [--json FILE]\n"
      "  tracemod perf <out-prefix> [--pipeline SCENARIO | --campus] "
      "[--replay FILE]\n"
      "                [--benchmark web|ftp-send|ftp-recv|andrew] [--seed N] "
      "[--seconds N]\n"
      "                [--hosts N] [--cell METERS] [--threads N] "
      "[--stride N] [--top N] [--status PREFIX]\n"
      "  tracemod sweep [--threads N | --serial] [--trials N] [--seed N]\n"
      "                 [--scenarios porter,flagstaff,wean,chatterbox,campus]\n"
      "                 [--benchmarks web,ftp-send,ftp-recv,andrew] "
      "[--no-compensate]\n"
      "                 [--supervise] [--retries N] [--retry-perturb] "
      "[--budget S] [--wall-budget S]\n"
      "                 [--poison SCEN:BENCH:PHASE:TRIAL[:FAILS]]\n"
      "                 [--journal FILE | --resume FILE] [--json FILE]\n"
      "                 [--telemetry PREFIX] [--audit[=FILE]] "
      "[--status PREFIX]\n"
      "  tracemod status <file.status> [--json] [--follow] [--interval S]\n"
      "  tracemod version\n"
      "(campus and distill also accept --status PREFIX: publish "
      "live progress\n to PREFIX.status, readable by `tracemod status` "
      "while the run executes;\n every value flag may also be spelled "
      "--flag=VALUE)\n"
      "exit codes: 0 ok, 1 usage, 2 I/O or format error, "
      "3 damaged-but-salvageable trace, 4 fidelity breach, "
      "5 degraded/incomplete run (6 is bench-only; see README)\n");
  return kExitUsage;
}

/// A built-in scenario by its lower-cased name, or null after a
/// diagnostic.  The synthetic sharded-medium quad ("campus") is selectable
/// only where `with_campus` is set (sweep), so all_scenarios() -- and the
/// goldens pinned to it -- stay exactly the paper's four.
const scenarios::Scenario* find_scenario(const std::string& name,
                                         bool with_campus) {
  static const std::vector<scenarios::Scenario> all = [] {
    std::vector<scenarios::Scenario> v = scenarios::all_scenarios();
    v.push_back(scenarios::campus_walk());
    return v;
  }();
  for (std::size_t i = 0; i + (with_campus ? 0 : 1) < all.size(); ++i) {
    std::string lower = all[i].name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) return &all[i];
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
  return nullptr;
}

/// A benchmark by its to_string() name; false after a diagnostic.
bool parse_benchmark(const std::string& name,
                     scenarios::BenchmarkKind* kind) {
  using scenarios::BenchmarkKind;
  for (const BenchmarkKind k : {BenchmarkKind::kWeb, BenchmarkKind::kFtpSend,
                                BenchmarkKind::kFtpRecv,
                                BenchmarkKind::kAndrew}) {
    if (name == scenarios::to_string(k)) {
      *kind = k;
      return true;
    }
  }
  std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
  return false;
}

int cmd_collect(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod collect", args, {{"--seed", true}}, 2, 2);
  if (p.failed) return usage();
  const scenarios::Scenario* scenario = find_scenario(p.pos[0], false);
  if (scenario == nullptr) return usage();
  std::uint64_t seed = 1;
  checked_uint(p, "--seed", &seed);
  if (p.failed) return usage();

  std::printf("collecting %s (seed %llu, %.0f s traversal)...\n",
              scenario->name.c_str(), static_cast<unsigned long long>(seed),
              sim::to_seconds(scenario->collection_duration));
  const trace::CollectedTrace collected =
      scenarios::collect_raw_trace(*scenario, seed);
  trace::save_trace(p.pos[1], collected);
  std::printf("wrote %zu records to %s\n", collected.records.size(),
              p.pos[1].c_str());
  return kExitOk;
}

/// A number that must also be finite: `--cell nan` would quietly select
/// the flat medium.
bool checked_finite(Parsed& p, const std::string& name, double* out) {
  double v = 0;
  if (!checked_number(p, name, &v)) return false;
  if (!std::isfinite(v)) {
    std::string text;
    p.str(name, &text);
    reject_value(p, name, "a finite number", text);
    return false;
  }
  *out = v;
  return true;
}

/// A period in seconds (a distillation window or step, a campus horizon):
/// finite, positive, and still at least 1 ns on the simulator's clock.
/// Zero or NaN would never advance the output, and a negative window would
/// drop every tuple.
void checked_period(Parsed& p, const std::string& name, sim::Duration* out) {
  double v = 0;
  if (!checked_number(p, name, &v)) return;
  // !(v > 0) also catches NaN; the cap keeps the nanosecond count in range.
  if (!(v > 0.0 && v < 9.2e9) || sim::from_seconds(v) <= sim::Duration{}) {
    std::string text;
    p.str(name, &text);
    reject_value(p, name, "a positive number of seconds (at least 1 ns)",
                 text);
    return;
  }
  *out = sim::from_seconds(v);
}

/// A finite number in [lo, hi].  A plain range test would let NaN through:
/// it compares false against both bounds.
void checked_range(Parsed& p, const std::string& name, double lo, double hi,
                   const std::string& expected, double* out) {
  double v = 0;
  if (!checked_number(p, name, &v)) return;
  if (!(v >= lo && v <= hi)) {
    std::string text;
    p.str(name, &text);
    reject_value(p, name, expected, text);
    return;
  }
  *out = v;
}

/// Streams the whole file through TraceStreamReader without retaining
/// records, so RSS stays flat however large the trace is, and hands each
/// record to `visit` when one is given.  Returns the count of records the
/// pass yielded; a strict pass throws TraceFormatError at the first damage.
std::uint64_t streamed_record_count(
    const std::string& path, trace::ReadMode mode,
    trace::TraceReadReport* report,
    const std::function<void(const trace::TraceRecord&)>& visit = {}) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  trace::TraceStreamReader reader(in, {mode, nullptr});
  trace::TraceRecord rec;
  std::uint64_t n = 0;
  while (reader.next(&rec)) {
    if (visit) visit(rec);
    ++n;
  }
  *report = reader.report();
  return n;
}

/// Throws the error that refuses a damaged trace: the strict reader's, so
/// the line names the first damage's byte offset and record.
[[noreturn]] void refuse_damaged(const std::string& path,
                                 const trace::TraceReadReport& scanned) {
  trace::TraceReadReport strict;
  streamed_record_count(path, trace::ReadMode::kStrict, &strict);
  // The bytes read clean now, so the report came from a journal whose
  // plan no longer matches them.
  throw std::runtime_error(
      "refusing " + path + ": its scan read " +
      std::to_string(scanned.records_read) + " of " +
      std::to_string(scanned.records_expected) + " declared records (" +
      std::to_string(scanned.records_skipped) + " skipped, " +
      std::to_string(scanned.crc_failures) + " crc failures" +
      (scanned.truncated ? ", truncated" : "") +
      "); --salvage distills around damage");
}

int cmd_distill(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod distill", args,
                   {{"--window", true},
                    {"--step", true},
                    {"--salvage", false},
                    {"--corpus-window", true},
                    {"--budget-mb", true},
                    {"--checkpoint", true},
                    {"--resume", false},
                    {"--json", true},
                    {"--status", true}},
                   2, 2);
  if (p.failed) return usage();
  core::StreamDistillConfig scfg;
  checked_period(p, "--window", &scfg.distill.window);
  checked_period(p, "--step", &scfg.distill.step);
  double v = 0;
  if (checked_number(p, "--corpus-window", &v)) {
    scfg.span = sim::from_seconds(v);
  }
  if (checked_number(p, "--budget-mb", &v)) {
    scfg.budget.bytes =
        static_cast<std::uint64_t>(v * 1024.0 * 1024.0);
  }
  if (p.failed) return usage();
  p.str("--checkpoint", &scfg.checkpoint_path);
  scfg.resume = p.has("--resume");
  sim::status::StatusBoard board;
  if (const int rc = arm_status(p, "distill", &board); rc != kExitOk) {
    return rc;
  }
  if (board.enabled()) scfg.status = &board;

  core::StreamDistiller distiller(scfg);
  const core::StreamDistillResult res = distiller.distill_file(p.pos[0]);
  // Strict unless --salvage: a trace the scan could only salvage is
  // refused before the replay or the JSON is written.
  if (!p.has("--salvage") && !res.read_report.clean()) {
    board.finish(kExitIo);
    refuse_damaged(p.pos[0], res.read_report);
  }
  res.replay.save(p.pos[1]);

  const char* status = res.status == core::DistillStatus::kOk ? "ok"
                       : res.status == core::DistillStatus::kSalvaged
                           ? "salvaged"
                           : "degraded";
  const core::Distiller::Stats& ds = res.distill_stats;
  std::printf(
      "streamed %llu records through %llu windows "
      "(%llu damaged, %llu shed, %llu resumed)\n"
      "retained %llu bytes of echo projections; %zu tuples -> %s [%s]\n"
      "%zu groups (%zu corrected, %zu skipped); mean latency %.2f ms, "
      "mean bottleneck %.2f Mb/s, mean loss %.1f%%\n",
      static_cast<unsigned long long>(res.stats.records_streamed),
      static_cast<unsigned long long>(res.stats.windows_total),
      static_cast<unsigned long long>(res.stats.windows_damaged),
      static_cast<unsigned long long>(res.stats.windows_shed),
      static_cast<unsigned long long>(res.stats.windows_resumed),
      static_cast<unsigned long long>(res.stats.retained_bytes),
      res.replay.size(), p.pos[1].c_str(), status, ds.groups_total,
      ds.groups_corrected, ds.groups_skipped,
      res.replay.mean_latency_s() * 1e3,
      res.replay.mean_bottleneck_per_byte() > 0
          ? 8.0 / res.replay.mean_bottleneck_per_byte() / 1e6
          : 0.0,
      res.replay.mean_loss() * 100.0);

  if (res.stats.checkpoint_degraded) {
    std::fprintf(stderr,
                 "warning: checkpoint journal degraded mid-run (%s); results "
                 "are complete but a killed re-run cannot resume past the "
                 "journal's intact prefix\n",
                 scfg.checkpoint_path.c_str());
  }

  std::string json_path;
  if (p.str("--json", &json_path)) {
    const trace::TraceReadReport& r = res.read_report;
    std::ostringstream f;
    f << "{\n"
      << "  \"schema\": \"tracemod-distill-v1\",\n"
      << "  \"tool_version\": \"" << kToolVersion << "\",\n"
      << "  \"status\": \"" << status << "\",\n";
    // Emitted only when true so an injection-off artifact stays
    // byte-identical to earlier releases.
    if (res.stats.checkpoint_degraded) {
      f << "  \"checkpoint_degraded\": true,\n";
    }
    f << "  \"records_streamed\": " << res.stats.records_streamed << ",\n"
      << "  \"windows_total\": " << res.stats.windows_total << ",\n"
      << "  \"windows_damaged\": " << res.stats.windows_damaged << ",\n"
      << "  \"windows_shed\": " << res.stats.windows_shed << ",\n"
      << "  \"windows_resumed\": " << res.stats.windows_resumed << ",\n"
      << "  \"retained_bytes\": " << res.stats.retained_bytes << ",\n"
      << "  \"steps\": " << res.stats.steps << ",\n"
      << "  \"tuples\": " << res.replay.size() << ",\n"
      << "  \"records_read\": " << r.records_read << ",\n"
      << "  \"records_skipped\": " << r.records_skipped << ",\n"
      << "  \"crc_failures\": " << r.crc_failures << ",\n"
      << "  \"lost_markers\": " << r.lost_markers_synthesized << ",\n"
      << "  \"truncated\": " << (r.truncated ? "true" : "false") << "\n"
      << "}\n";
    if (!sim::io::write_artifact_or_complain(json_path, f.str())) {
      return kExitIo;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  int exit_code = kExitIo;
  switch (res.status) {
    case core::DistillStatus::kOk: exit_code = kExitOk; break;
    case core::DistillStatus::kSalvaged: exit_code = kExitSalvage; break;
    case core::DistillStatus::kDegraded: exit_code = kExitDegraded; break;
  }
  // A degraded checkpoint plane outranks salvage: the artifact is good,
  // but the crash-safety the flag promised is gone for the rest of the
  // run (DESIGN.md section 15).
  if (res.stats.checkpoint_degraded) exit_code = kExitDegraded;
  board.finish(exit_code);
  return exit_code;
}

int cmd_info(const std::vector<std::string>& args) {
  const Parsed p = parse("tracemod info", args, {}, 1, 1);
  if (p.failed) return usage();
  // Sniff: binary raw traces start with "TMTR"; replay traces with '#'.
  std::ifstream in(p.pos[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", p.pos[0].c_str());
    return kExitIo;
  }
  char magic[4] = {};
  in.read(magic, 4);
  in.close();
  if (std::memcmp(magic, "TMTR", 4) == 0) {
    // One strict streaming pass in flat memory; damage throws the strict
    // reader's error.
    std::size_t packets = 0, device = 0, lost_markers = 0, sent = 0,
                replies = 0;
    std::uint64_t lost = 0;
    std::optional<sim::TimePoint> first;
    sim::TimePoint last{};
    trace::TraceReadReport report;
    const std::uint64_t records = streamed_record_count(
        p.pos[0], trace::ReadMode::kStrict, &report,
        [&](const trace::TraceRecord& r) {
          last = trace::record_time(r);
          if (!first) first = last;
          if (const auto* pk = std::get_if<trace::PacketRecord>(&r)) {
            ++packets;
            if (core::is_echo_sent(*pk)) ++sent;
            if (core::is_echo_reply(*pk)) ++replies;
          } else if (std::holds_alternative<trace::DeviceRecord>(r)) {
            ++device;
          } else if (const auto* l = std::get_if<trace::LostRecords>(&r)) {
            ++lost_markers;
            lost += l->lost_packet_records + l->lost_device_records;
          }
        });
    std::printf(
        "raw trace: %llu records over %.1f s\n"
        "  packet records: %zu (%zu echoes sent, %zu replies received)\n"
        "  device records: %zu\n"
        "  loss markers:   %zu (%llu records lost to overruns)\n",
        static_cast<unsigned long long>(records),
        sim::to_seconds(last - first.value_or(last)), packets, sent,
        replies, device, lost_markers, static_cast<unsigned long long>(lost));
    return kExitOk;
  }
  const core::ReplayTrace r = core::ReplayTrace::load(p.pos[0]);
  double worst_loss = 0, worst_latency = 0;
  for (const auto& t : r.tuples()) {
    worst_loss = std::max(worst_loss, t.loss);
    worst_latency = std::max(worst_latency, t.latency_s);
  }
  std::printf(
      "replay trace: %zu tuples covering %.1f s\n"
      "  mean latency %.2f ms (worst %.1f ms)\n"
      "  mean bottleneck bandwidth %.2f Mb/s\n"
      "  mean loss %.1f%% (worst %.0f%%)\n",
      r.size(), sim::to_seconds(r.total_duration()),
      r.mean_latency_s() * 1e3, worst_latency * 1e3,
      r.mean_bottleneck_per_byte() > 0
          ? 8.0 / r.mean_bottleneck_per_byte() / 1e6
          : 0.0,
      r.mean_loss() * 100.0, worst_loss * 100.0);
  return kExitOk;
}

int cmd_synth(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod synth", args, {{"--seconds", true}}, 2, 2);
  if (p.failed) return usage();
  sim::Duration total = sim::seconds(300);
  checked_period(p, "--seconds", &total);
  if (p.failed) return usage();
  core::ReplayTrace trace;
  if (p.pos[0] == "wavelan") {
    trace = core::ReplayTrace::wavelan_like(total);
  } else if (p.pos[0] == "step") {
    trace = core::ReplayTrace::bandwidth_step(total, sim::seconds(1), 0.003,
                                              200e3, 1.6e6, sim::seconds(16));
  } else if (p.pos[0] == "slow") {
    trace = core::ReplayTrace::constant(total, sim::seconds(1), 0.020, 250e3,
                                        0.0);
  } else {
    std::fprintf(stderr, "unknown synth kind '%s'\n", p.pos[0].c_str());
    return usage();
  }
  trace.save(p.pos[1]);
  std::printf("wrote %zu tuples to %s\n", trace.size(), p.pos[1].c_str());
  return kExitOk;
}

void print_report(const trace::TraceReadReport& r) {
  std::printf(
      "  format version:      v%u\n"
      "  records expected:    %llu\n"
      "  records read:        %llu\n"
      "  records skipped:     %llu\n"
      "  records salvaged:    %llu\n"
      "  crc failures:        %llu\n"
      "  unknown tags:        %llu\n"
      "  resync scans:        %llu (%llu bytes scanned)\n"
      "  lost markers added:  %llu\n"
      "  truncated:           %s\n",
      r.version, static_cast<unsigned long long>(r.records_expected),
      static_cast<unsigned long long>(r.records_read),
      static_cast<unsigned long long>(r.records_skipped),
      static_cast<unsigned long long>(r.records_salvaged),
      static_cast<unsigned long long>(r.crc_failures),
      static_cast<unsigned long long>(r.unknown_tags),
      static_cast<unsigned long long>(r.resync_scans),
      static_cast<unsigned long long>(r.bytes_scanned),
      static_cast<unsigned long long>(r.lost_markers_synthesized),
      r.truncated ? "yes" : "no");
}

int cmd_verify(const std::vector<std::string>& args) {
  const Parsed p = parse("tracemod verify", args, {}, 1, 1);
  if (p.failed) return usage();
  // Strict pass first: a clean trace needs no salvage.  Both passes
  // stream, so verification of a multi-GB corpus runs in constant memory.
  trace::TraceReadReport report;
  try {
    streamed_record_count(p.pos[0], trace::ReadMode::kStrict, &report);
    std::printf("%s: OK (strict)\n", p.pos[0].c_str());
    print_report(report);
    return kExitOk;
  } catch (const trace::TraceFormatError& e) {
    std::printf("%s: strict parse FAILED\n  %s\n", p.pos[0].c_str(),
                e.what());
  }
  // Damaged: report what a salvage read can recover.
  const std::uint64_t recovered =
      streamed_record_count(p.pos[0], trace::ReadMode::kSalvage, &report);
  std::printf("salvage read recovered %llu records\n",
              static_cast<unsigned long long>(recovered));
  print_report(report);
  return kExitSalvage;
}

int cmd_corrupt(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod corrupt", args,
                   {{"--seed", true},
                    {"--flips", true},
                    {"--truncate", false},
                    {"--drop", true},
                    {"--dup", true},
                    {"--range-begin", true},
                    {"--range-end", true}},
                   2, 2);
  if (p.failed) return usage();
  std::uint64_t seed = 1;
  double flips = 4, drop = 0, dup = 0;
  double range_begin = 0, range_end = 0;
  checked_uint(p, "--seed", &seed);
  checked_number(p, "--flips", &flips);
  checked_number(p, "--drop", &drop);
  checked_number(p, "--dup", &dup);
  checked_number(p, "--range-begin", &range_begin);
  checked_number(p, "--range-end", &range_end);
  if (p.failed) return usage();

  // Record-level faults ride along a streaming copy: the input is never
  // resident, so a multi-GB corpus corrupts with flat memory.
  std::ifstream in(p.pos[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", p.pos[0].c_str());
    return kExitIo;
  }
  trace::TraceStreamReader reader(in, {trace::ReadMode::kStrict, nullptr});
  const std::uint64_t expected = reader.report().records_expected;

  trace::FaultInjector injector{sim::Rng(seed)};
  std::set<std::uint64_t> dropped;
  std::multiset<std::uint64_t> duplicated;
  if (expected > 0) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(drop); ++i) {
      dropped.insert(static_cast<std::uint64_t>(injector.rng().uniform_int(
          0, static_cast<std::int64_t>(expected) - 1)));
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(dup); ++i) {
      duplicated.insert(static_cast<std::uint64_t>(injector.rng().uniform_int(
          0, static_cast<std::int64_t>(expected) - 1)));
    }
  }

  std::uint64_t written = 0;
  {
    trace::TraceStreamWriter writer(p.pos[1]);
    trace::TraceRecord rec;
    std::uint64_t index = 0;
    while (reader.next(&rec)) {
      const std::uint64_t copies =
          (dropped.count(index) ? 0 : 1) + duplicated.count(index);
      for (std::uint64_t c = 0; c < copies; ++c) writer.append(rec);
      ++index;
    }
    writer.finalize();
    written = writer.records_written();
  }

  // Byte faults applied in place.  Keep the header intact (magic +
  // version + schema table + count): the salvage reader needs an anchor;
  // header-corrupting runs are exercised separately by the fuzzers.
  std::error_code ec;
  std::uint64_t size = std::filesystem::file_size(p.pos[1], ec);
  if (ec) {
    std::fprintf(stderr, "cannot stat %s\n", p.pos[1].c_str());
    return kExitIo;
  }
  const std::uint64_t protect = size < 64 ? size / 2 : 64;
  const std::uint64_t begin =
      std::max(protect, static_cast<std::uint64_t>(range_begin));
  injector.flip_file_range(p.pos[1], static_cast<std::size_t>(flips), begin,
                           static_cast<std::uint64_t>(range_end));
  if (p.has("--truncate")) {
    injector.truncate_file(p.pos[1], protect);
  }
  size = std::filesystem::file_size(p.pos[1], ec);

  std::printf(
      "wrote %s: %llu bytes, %llu records, %d byte flips%s, "
      "%d dropped, %d duplicated (seed %llu)\n",
      p.pos[1].c_str(), static_cast<unsigned long long>(size),
      static_cast<unsigned long long>(written), static_cast<int>(flips),
      p.has("--truncate") ? ", truncated" : "", static_cast<int>(drop),
      static_cast<int>(dup), static_cast<unsigned long long>(seed));
  return kExitOk;
}

int cmd_gen_corpus(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod gen-corpus", args,
                   {{"--seconds", true},
                    {"--interval", true},
                    {"--target-mb", true},
                    {"--loss", true},
                    {"--seed", true}},
                   1, 1);
  if (p.failed) return usage();
  trace::CorpusSpec spec;  // its defaults are the documented ones
  double target_mb = 0;
  checked_period(p, "--seconds", &spec.duration);
  checked_period(p, "--interval", &spec.group_interval);
  // The cap keeps the byte count inside 64 bits.
  checked_range(p, "--target-mb", 0.0, 1e12, "a size in MB in [0, 1e12]",
                &target_mb);
  checked_range(p, "--loss", 0.0, 1.0, "a loss rate in [0, 1]",
                &spec.reply_loss);
  checked_uint(p, "--seed", &spec.seed);
  if (p.failed) return usage();

  spec.target_bytes = static_cast<std::uint64_t>(target_mb * 1024.0 * 1024.0);
  const trace::CorpusInfo info = trace::generate_ping_corpus(p.pos[0], spec);
  std::printf(
      "wrote %s: %llu records (%llu probe groups, %llu replies dropped), "
      "%.1f MB\n",
      p.pos[0].c_str(), static_cast<unsigned long long>(info.records),
      static_cast<unsigned long long>(info.groups),
      static_cast<unsigned long long>(info.replies_dropped),
      static_cast<double>(info.bytes) / (1024.0 * 1024.0));
  return kExitOk;
}

int cmd_audit(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod audit", args,
                   {{"--tick", true},
                    {"--seed", true},
                    {"--json", true},
                    {"--baseline-seconds", true},
                    {"--max-latency", true},
                    {"--max-bandwidth", true},
                    {"--max-loss", true},
                    {"--max-ks", true},
                    {"--min-within", true},
                    {"--min-auditable", true}},
                   1, 1);
  if (p.failed) return usage();
  double tick_ms = 10, baseline_s = 30;
  checked_number(p, "--tick", &tick_ms);
  checked_number(p, "--baseline-seconds", &baseline_s);

  audit::AuditConfig cfg;
  checked_uint(p, "--seed", &cfg.second_order.emulator.seed);
  cfg.second_order.emulator.modulation.tick =
      sim::from_seconds(tick_ms * 1e-3);
  cfg.baseline_run = sim::from_seconds(baseline_s);
  audit::FidelityThresholds& th = cfg.thresholds;
  checked_number(p, "--max-latency", &th.max_latency_rel_err);
  checked_number(p, "--max-bandwidth", &th.max_bandwidth_rel_err);
  checked_number(p, "--max-loss", &th.max_loss_delta);
  checked_number(p, "--max-ks", &th.max_ks_rtt);
  checked_number(p, "--min-within", &th.min_within_tolerance);
  checked_number(p, "--min-auditable", &th.min_auditable);
  if (p.failed) return usage();

  const core::ReplayTrace reference = core::ReplayTrace::load(p.pos[0]);
  const audit::FidelityReport report =
      audit::audit_trace(reference, cfg, p.pos[0]);

  std::ostringstream human;
  audit::write_fidelity_report(human, report);
  std::fputs(human.str().c_str(), stdout);

  std::string json_path;
  if (p.str("--json", &json_path)) {
    std::ostringstream f;
    audit::write_fidelity_json(f, report);
    if (!sim::io::write_artifact_or_complain(json_path, f.str())) {
      return kExitIo;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.passed() ? kExitOk : kExitAudit;
}

int cmd_report(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod report", args,
                   {{"--replay", true},
                    {"--benchmark", true},
                    {"--seed", true},
                    {"--seconds", true},
                    {"--audit", false},
                    {"--perf", false}},
                   1, 1);
  if (p.failed) return usage();
  const std::string prefix = p.pos[0];
  std::uint64_t seed = 1;
  sim::Duration span = sim::seconds(120);
  checked_uint(p, "--seed", &seed);
  checked_period(p, "--seconds", &span);
  if (p.failed) return usage();

  core::ReplayTrace trace;
  std::string replay_path;
  if (p.str("--replay", &replay_path)) {
    trace = core::ReplayTrace::load(replay_path);
  } else {
    trace = core::ReplayTrace::wavelan_like(span);
  }

  scenarios::BenchmarkKind kind = scenarios::BenchmarkKind::kFtpRecv;
  std::string bm;
  if (p.str("--benchmark", &bm) && !parse_benchmark(bm, &kind)) {
    return usage();
  }

  sim::TelemetryConfig tcfg;
  tcfg.enabled = true;
  // The run is always profiled on the wall-clock plane: the report's
  // per-handler dispatch lines are its event_loop scopes.  The profiler
  // never touches virtual time, so the telemetry content is the same as an
  // unprofiled run's; --perf adds the hotspot section and perf.* metrics.
  sim::perf::PerfProfiler profiler;
  scenarios::BenchmarkOutcome outcome;
  {
    sim::perf::PerfSession session(profiler);
    outcome = scenarios::run_modulated_benchmark(
        trace, kind, seed, sim::milliseconds(10), 0.0, tcfg);
  }
  if (outcome.telemetry == nullptr) {
    std::fprintf(stderr, "telemetry capture failed\n");
    return kExitIo;
  }
  auto tel = std::make_shared<sim::TelemetrySnapshot>(*outcome.telemetry);
  const sim::perf::PerfSnapshot perf_snap = sim::perf::capture_perf(profiler);
  if (p.has("--perf")) sim::perf::append_perf_to_telemetry(*tel, perf_snap);
  const sim::TelemetrySnapshot& snap = *tel;

  // With --audit, close the loop on the same replay trace and carry the
  // divergence series alongside the benchmark's telemetry in every export.
  std::shared_ptr<sim::TelemetrySnapshot> audit_snap;
  audit::FidelityReport fidelity;
  if (p.has("--audit")) {
    audit::AuditConfig acfg;
    acfg.second_order.emulator.seed = seed + 1700;
    fidelity = audit::audit_trace(trace, acfg, prefix);
    audit_snap = std::make_shared<sim::TelemetrySnapshot>(
        audit::telemetry_snapshot(fidelity));
  }

  const std::string trace_path = prefix + ".perfetto.json";
  const std::string metrics_path = prefix + ".metrics.txt";
  {
    std::ostringstream f;
    if (audit_snap != nullptr) {
      sim::write_chrome_trace(f, {{"bench", tel}, {"audit", audit_snap}});
    } else {
      sim::write_chrome_trace(f, snap);
    }
    if (!sim::io::write_artifact_or_complain(trace_path, f.str())) {
      return kExitIo;
    }
  }
  {
    std::ostringstream f;
    if (audit_snap != nullptr) {
      sim::write_metrics_text(f, {{"bench", tel}, {"audit", audit_snap}});
    } else {
      sim::write_metrics_text(f, snap);
    }
    if (!sim::io::write_artifact_or_complain(metrics_path, f.str())) {
      return kExitIo;
    }
  }

  std::ostringstream report;
  sim::write_report(report, snap, perf_snap);
  if (p.has("--perf")) {
    report << "\n";
    sim::perf::write_perf_report(report, perf_snap);
  }
  if (audit_snap != nullptr) {
    report << "\n";
    audit::write_fidelity_report(report, fidelity);
  }
  std::fputs(report.str().c_str(), stdout);
  std::printf(
      "\nbenchmark %s: %s in %.2f s (simulated)\n"
      "wrote %s (load in ui.perfetto.dev) and %s\n",
      scenarios::to_string(kind), outcome.ok ? "ok" : "FAILED",
      outcome.elapsed_s, trace_path.c_str(), metrics_path.c_str());
  return outcome.ok ? kExitOk : kExitIo;
}

/// A campus digest as 16 hex digits, leading zeros kept: stdout, --json and
/// `tracemod perf --campus` all spell it this way.
std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

int cmd_campus(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod campus", args,
                   {{"--hosts", true},
                    {"--cell", true},
                    {"--threads", true},
                    {"--seconds", true},
                    {"--seed", true},
                    {"--wall-budget", true},
                    {"--json", true},
                    {"--status", true}},
                   0, 0);
  if (p.failed) return usage();
  double cell = 130.0, wall_budget = 0;
  scenarios::CampusConfig cfg;  // 1000 hosts, 30 s
  checked_uint(p, "--hosts", &cfg.hosts);
  checked_finite(p, "--cell", &cell);
  checked_uint(p, "--threads", &cfg.threads);
  checked_period(p, "--seconds", &cfg.horizon);
  checked_uint(p, "--seed", &cfg.seed);
  checked_finite(p, "--wall-budget", &wall_budget);
  if (p.failed) return usage();
  if (cfg.hosts < 1 || wall_budget < 0) {
    std::fprintf(stderr, "tracemod campus: invalid parameter value\n");
    return usage();
  }

  cfg.cell_size_m = cell;
  cfg.watchdog.wall_budget_s = wall_budget;
  sim::status::StatusBoard board;
  if (const int rc = arm_status(p, "campus", &board); rc != kExitOk) {
    return rc;
  }
  if (board.enabled()) cfg.watchdog.status = &board;

  const scenarios::CampusResult r = scenarios::run_campus(cfg);
  std::printf(
      "campus: %zu hosts, %zu wavepoints, %s medium (%zu occupied cells)\n"
      "        %s after %.1f virtual s: %llu events in %.2f s wall "
      "(%.0f events/s)\n"
      "        air: %llu delivered, %llu dropped, %llu handoffs; "
      "app: %llu up, %llu echoes\n"
      "        digest %s\n",
      r.hosts, r.wavepoints, cell > 0 ? "sharded" : "flat", r.occupied_cells,
      scenarios::to_string(r.status), r.virtual_s,
      static_cast<unsigned long long>(r.events), r.wall_s, r.events_per_sec,
      static_cast<unsigned long long>(r.frames_delivered),
      static_cast<unsigned long long>(r.frames_dropped),
      static_cast<unsigned long long>(r.handoffs),
      static_cast<unsigned long long>(r.uplink_sent),
      static_cast<unsigned long long>(r.echoes_received),
      digest_hex(r.digest).c_str());

  std::string json_path;
  if (p.str("--json", &json_path)) {
    std::ostringstream f;
    f << "{\n"
      << "  \"schema\": \"tracemod-campus-v1\",\n"
      << "  \"tool_version\": \"" << kToolVersion << "\",\n"
      << "  \"hosts\": " << r.hosts << ",\n"
      << "  \"wavepoints\": " << r.wavepoints << ",\n"
      << "  \"cell_size_m\": " << cell << ",\n"
      << "  \"threads\": " << cfg.threads << ",\n"
      << "  \"status\": \"" << scenarios::to_string(r.status) << "\",\n"
      << "  \"ok\": " << (r.ok ? "true" : "false") << ",\n"
      << "  \"virtual_s\": " << r.virtual_s << ",\n"
      << "  \"events\": " << r.events << ",\n"
      << "  \"wall_s\": " << r.wall_s << ",\n"
      << "  \"events_per_sec\": " << r.events_per_sec << ",\n"
      << "  \"frames_delivered\": " << r.frames_delivered << ",\n"
      << "  \"frames_dropped\": " << r.frames_dropped << ",\n"
      << "  \"handoffs\": " << r.handoffs << ",\n"
      << "  \"uplink_sent\": " << r.uplink_sent << ",\n"
      << "  \"echoes_received\": " << r.echoes_received << ",\n"
      << "  \"occupied_cells\": " << r.occupied_cells << ",\n"
      << "  \"digest\": \"" << digest_hex(r.digest) << "\"\n"
      << "}\n";
    if (!sim::io::write_artifact_or_complain(json_path, f.str())) {
      return kExitIo;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  const int exit_code = r.ok ? kExitOk : kExitDegraded;
  board.finish(exit_code);
  return exit_code;
}

int cmd_perf(const std::vector<std::string>& args) {
  Parsed p = parse("tracemod perf", args,
                   {{"--pipeline", true},
                    {"--campus", false},
                    {"--replay", true},
                    {"--benchmark", true},
                    {"--seed", true},
                    {"--seconds", true},
                    {"--hosts", true},
                    {"--cell", true},
                    {"--threads", true},
                    {"--stride", true},
                    {"--top", true},
                    {"--status", true}},
                   1, 1);
  if (p.failed) return usage();
  const std::string prefix = p.pos[0];
  std::uint64_t seed = 1;
  unsigned threads = 0;
  std::size_t hosts = 1000, top = 10;
  std::uint32_t stride = 1;
  double cell = 130.0;
  sim::Duration span{};  // zero: the mode's own default
  checked_uint(p, "--seed", &seed);
  checked_period(p, "--seconds", &span);
  checked_uint(p, "--hosts", &hosts);
  checked_finite(p, "--cell", &cell);
  checked_uint(p, "--threads", &threads);
  checked_uint(p, "--stride", &stride);
  checked_uint(p, "--top", &top);
  if (p.failed) return usage();
  const bool campus = p.has("--campus");
  const bool pipeline = p.has("--pipeline");
  if (campus && pipeline) {
    std::fprintf(stderr,
                 "tracemod perf: --campus and --pipeline are exclusive\n");
    return usage();
  }
  // Each mode reads only some flags; one it would ignore is refused, so a
  // profile never silently describes a different run than the one asked.
  const bool benchmark_mode = !campus && !pipeline;
  const struct {
    const char* flag;
    bool read;
    const char* where;
  } mode_flags[] = {
      {"--replay", benchmark_mode, "without --campus or --pipeline"},
      {"--benchmark", !campus, "without --campus"},
      {"--hosts", campus, "with --campus"},
      {"--cell", campus, "with --campus"},
      {"--threads", campus, "with --campus"},
      {"--seconds", campus || (benchmark_mode && !p.has("--replay")),
       "with --campus, or with neither --pipeline nor --replay"},
  };
  for (const auto& f : mode_flags) {
    if (p.has(f.flag) && !f.read) {
      std::fprintf(stderr, "tracemod perf: %s is read only %s\n", f.flag,
                   f.where);
      return usage();
    }
  }
  if (stride < 1 || top < 1 || hosts < 1) {
    std::fprintf(stderr, "tracemod perf: invalid parameter value\n");
    return usage();
  }
  std::string name;
  const scenarios::Scenario* scenario = nullptr;
  if (p.str("--pipeline", &name)) {
    scenario = find_scenario(name, false);
    if (scenario == nullptr) return usage();
  }
  scenarios::BenchmarkKind kind = scenarios::BenchmarkKind::kFtpRecv;
  std::string bm;
  if (p.str("--benchmark", &bm) && !parse_benchmark(bm, &kind)) {
    return usage();
  }

  sim::perf::PerfConfig pcfg;
  pcfg.sampling_stride = stride;
  sim::perf::PerfProfiler profiler(pcfg);

  sim::status::StatusBoard board;
  if (const int rc = arm_status(p, "perf", &board); rc != kExitOk) return rc;
  scenarios::WatchdogConfig perf_watchdog;
  if (board.enabled()) perf_watchdog.status = &board;

  std::string workload;
  std::string extra;
  double sim_s = 0.0;
  bool ok = true;

  if (campus) {
    scenarios::CampusConfig cfg;
    cfg.hosts = hosts;
    cfg.cell_size_m = cell;
    cfg.threads = threads;
    cfg.horizon = span > sim::Duration{} ? span : sim::seconds(30);
    // Match cmd_campus's default seed so `tracemod perf --campus` and
    // `tracemod campus` produce the same digest out of the box (the
    // virtual-time-identity check in CI diffs exactly that).
    if (p.has("--seed")) cfg.seed = seed;
    cfg.watchdog = perf_watchdog;
    scenarios::CampusResult r;
    {
      sim::perf::PerfSession session(profiler);
      r = scenarios::run_campus(cfg);
    }
    workload = "campus-" + std::to_string(cfg.hosts);
    sim_s = r.virtual_s;
    ok = r.ok;
    const std::string digest = digest_hex(r.digest);
    extra = "\"digest\": \"" + digest + "\"";
    std::printf("campus: %zu hosts, %s after %.1f virtual s, digest %s\n",
                r.hosts, scenarios::to_string(r.status), r.virtual_s,
                digest.c_str());
  } else if (scenario != nullptr) {
    scenarios::BenchmarkOutcome outcome;
    {
      sim::perf::PerfSession session(profiler);
      board.set_phase("collect");
      const trace::CollectedTrace collected =
          scenarios::collect_raw_trace(*scenario, seed);
      board.set_phase("distill");
      core::Distiller distiller(core::DistillConfig{});
      const core::ReplayTrace replay = distiller.distill(collected);
      board.set_phase("modulated");
      outcome = scenarios::run_modulated_benchmark(
          replay, kind, seed, sim::milliseconds(10), 0.0, {},
          sim::seconds(7200), perf_watchdog);
    }
    workload = "pipeline-" + name + "-" + scenarios::to_string(kind);
    sim_s = sim::to_seconds(scenario->collection_duration) +
            outcome.elapsed_s;
    ok = outcome.ok;
    std::printf("pipeline %s: collect+distill+%s %s in %.2f s (simulated)\n",
                name.c_str(), scenarios::to_string(kind),
                outcome.ok ? "ok" : "FAILED", outcome.elapsed_s);
  } else {
    core::ReplayTrace trace;
    std::string replay_path;
    if (p.str("--replay", &replay_path)) {
      trace = core::ReplayTrace::load(replay_path);
    } else {
      trace = core::ReplayTrace::wavelan_like(
          span > sim::Duration{} ? span : sim::seconds(120));
    }
    scenarios::BenchmarkOutcome outcome;
    {
      sim::perf::PerfSession session(profiler);
      board.set_phase("modulated");
      outcome = scenarios::run_modulated_benchmark(
          trace, kind, seed, sim::milliseconds(10), 0.0, {},
          sim::seconds(7200), perf_watchdog);
    }
    workload = std::string("benchmark-") + scenarios::to_string(kind);
    sim_s = outcome.elapsed_s;
    ok = outcome.ok;
    std::printf("benchmark %s: %s in %.2f s (simulated)\n",
                scenarios::to_string(kind), outcome.ok ? "ok" : "FAILED",
                outcome.elapsed_s);
  }

  board.set_phase("export");
  const sim::perf::PerfSnapshot snap = sim::perf::capture_perf(profiler);
  const std::string json_path = prefix + ".perf.json";
  const std::string folded_path = prefix + ".folded.txt";
  const std::string counters_path = prefix + ".perf-counters.json";
  {
    std::ostringstream f;
    sim::perf::write_perf_json(f, snap, workload, sim_s, top, extra);
    if (!sim::io::write_artifact_or_complain(json_path, f.str())) {
      return kExitIo;
    }
  }
  {
    std::ostringstream f;
    sim::perf::write_flamegraph(f, snap);
    if (!sim::io::write_artifact_or_complain(folded_path, f.str())) {
      return kExitIo;
    }
  }
  {
    std::ostringstream f;
    sim::perf::write_perf_chrome(f, snap);
    if (!sim::io::write_artifact_or_complain(counters_path, f.str())) {
      return kExitIo;
    }
  }

  std::ostringstream report;
  sim::perf::write_perf_report(report, snap, top);
  std::fputs(report.str().c_str(), stdout);
  std::printf("wrote %s, %s, and %s\n", json_path.c_str(),
              folded_path.c_str(), counters_path.c_str());
  const int exit_code = ok ? kExitOk : kExitDegraded;
  board.finish(exit_code);
  return exit_code;
}

/// "wean:web:live:0" or "wean:web:live:0:2"; "-" fields are wildcards.
bool parse_poison(const std::string& spec,
                  scenarios::InjectedTrialFault* out) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() < 4 || parts.size() > 5) return false;
  scenarios::InjectedTrialFault f;
  if (parts[0] != "-") f.scenario = parts[0];
  if (parts[1] != "-") f.benchmark = parts[1];
  if (parts[2] != "-") {
    if (parts[2] != "live" && parts[2] != "collect" &&
        parts[2] != "modulated" && parts[2] != "ethernet" &&
        parts[2] != "audit") {
      return false;
    }
    f.phase = parts[2];
  }
  constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
  std::uint64_t v = 0;
  if (parts[3] != "-") {
    if (!parse_uint(parts[3], kMaxInt, &v)) return false;
    f.trial = static_cast<int>(v);
  }
  if (parts.size() == 5) {
    if (!parse_uint(parts[4], kMaxInt, &v) || v == 0) return false;
    f.fail_attempts = static_cast<int>(v);
  }
  *out = f;
  return true;
}

int cmd_sweep(const std::vector<std::string>& args) {
  using namespace scenarios;
  Parsed p = parse("tracemod sweep", args,
                   Observers::declare({{"--threads", true},
                                       {"--serial", false},
                                       {"--trials", true},
                                       {"--seed", true},
                                       {"--scenarios", true},
                                       {"--benchmarks", true},
                                       {"--no-compensate", false},
                                       {"--supervise", false},
                                       {"--retries", true},
                                       {"--retry-perturb", false},
                                       {"--budget", true},
                                       {"--wall-budget", true},
                                       {"--poison", true},
                                       {"--journal", true},
                                       {"--resume", true},
                                       {"--json", true}}),
                   0, 0);
  if (p.failed) return usage();
  ExperimentConfig cfg;
  SupervisionConfig& sup = cfg.supervision;
  unsigned threads = 0;  // 0 = hardware concurrency
  double budget_s = 0;
  checked_uint(p, "--threads", &threads);
  checked_uint(p, "--trials", &cfg.trials);
  checked_uint(p, "--seed", &cfg.base_seed);
  checked_uint(p, "--retries", &sup.max_retries);
  if (checked_number(p, "--budget", &budget_s)) {
    sup.virtual_budget = sim::from_seconds(budget_s);
  }
  checked_number(p, "--wall-budget", &sup.wall_budget_s);
  if (p.failed || cfg.trials == 0) return usage();
  if (p.has("--serial")) threads = 1;
  cfg.compensate = !p.has("--no-compensate");
  sup.perturb_retry_seed = p.has("--retry-perturb");
  // Every supervision flag implies --supervise, and so does --status:
  // per-trial progress accounting lives in the supervised path.
  for (const char* flag : {"--supervise", "--retries", "--retry-perturb",
                           "--budget", "--wall-budget", "--poison",
                           "--journal", "--resume", "--status"}) {
    if (p.has(flag)) sup.enabled = true;
  }
  if (const auto it = p.flags.find("--poison"); it != p.flags.end()) {
    for (const std::string& spec : it->second) {
      InjectedTrialFault fault;
      if (!parse_poison(spec, &fault)) {
        std::fprintf(stderr, "tracemod sweep: bad --poison spec '%s'\n",
                     spec.c_str());
        return usage();
      }
      sup.inject.push_back(fault);
    }
  }

  std::vector<Scenario> scens = all_scenarios();
  std::string list;
  if (p.str("--scenarios", &list)) {
    scens.clear();
    for (const std::string& name : split(list, ',')) {
      const Scenario* s = find_scenario(name, /*with_campus=*/true);
      if (s == nullptr) return usage();
      scens.push_back(*s);
    }
  }
  std::vector<BenchmarkKind> kinds = {
      BenchmarkKind::kWeb, BenchmarkKind::kFtpRecv, BenchmarkKind::kAndrew};
  if (p.str("--benchmarks", &list)) {
    kinds.clear();
    for (const std::string& name : split(list, ',')) {
      kinds.emplace_back();
      if (!parse_benchmark(name, &kinds.back())) return usage();
    }
  }
  std::string journal_path, resume_path, json_path;
  p.str("--journal", &journal_path);
  p.str("--resume", &resume_path);
  p.str("--json", &json_path);
  if (!journal_path.empty() && !resume_path.empty()) {
    std::fprintf(stderr, "--journal and --resume are mutually exclusive "
                         "(--resume keeps journaling to its own file)\n");
    return usage();
  }
  if (!resume_path.empty() && (p.has("--audit") || p.has("--telemetry"))) {
    std::fprintf(stderr, "--resume is incompatible with --audit and "
                         "--telemetry (neither is journaled)\n");
    return usage();
  }

  Observers obs;
  if (const int rc = obs.arm(p, "sweep", &cfg); rc != kExitOk) return rc;

  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.compensate) {
    cfg.compensation_vb = measure_compensation_vb();
    std::printf("measured physical network Vb: %.3f us/byte\n",
                cfg.compensation_vb * 1e6);
  }

  sim::TaskPool pool(threads);
  std::printf("sweep: %zu scenario(s) x %zu benchmark(s) x %d trial(s) on "
              "%u thread(s)\n\n",
              scens.size(), kinds.size(), cfg.trials, pool.thread_count());

  // Journal / resume plumbing.  Resume-specific notices go to stderr so a
  // resumed run's stdout stays byte-comparable to an uninterrupted one.
  SweepJournalWriter journal;
  JournalReadResult resumed;
  SweepOptions opts;
  const std::uint32_t fingerprint = sweep_fingerprint(cfg);
  if (!journal_path.empty()) {
    if (!journal.open(journal_path, fingerprint, /*fresh=*/true)) {
      std::fprintf(stderr, "cannot write sweep journal '%s'\n",
                   journal_path.c_str());
      return kExitIo;
    }
    opts.journal = &journal;
  } else if (!resume_path.empty()) {
    resumed = read_sweep_journal(resume_path, fingerprint);
    switch (resumed.status) {
      case JournalStatus::kMissing:
        std::fprintf(stderr, "resume: no journal at '%s'; running the full "
                             "sweep\n", resume_path.c_str());
        journal.open(resume_path, fingerprint, /*fresh=*/true);
        break;
      case JournalStatus::kClean:
        journal.open(resume_path, fingerprint, /*fresh=*/false);
        break;
      case JournalStatus::kDroppedTail:
        // The normal kill-mid-append shape: keep the intact prefix and
        // rewrite the journal without the partial tail.
        std::fprintf(stderr, "resume: %s; keeping %zu intact record(s)\n",
                     resumed.message.c_str(), resumed.records.size());
        if (journal.open(resume_path, fingerprint, /*fresh=*/true)) {
          for (const auto& r : resumed.records) journal.append(r);
        }
        break;
      case JournalStatus::kCorrupt:
      case JournalStatus::kMismatch:
        // A damaged or foreign journal must never skip work: warn, drop
        // every record, and re-run the full sweep.
        std::fprintf(stderr, "resume: journal '%s' unusable (%s: %s); "
                             "re-running the full sweep\n",
                     resume_path.c_str(), to_string(resumed.status),
                     resumed.message.c_str());
        resumed.records.clear();
        journal.open(resume_path, fingerprint, /*fresh=*/true);
        break;
    }
    if (!resumed.records.empty()) opts.resume = &resumed.records;
    if (journal.is_open()) opts.journal = &journal;
    std::fprintf(stderr, "resume: %zu journaled record(s) reused\n",
                 resumed.records.size());
  }

  const SweepResult result = run_sweep(&pool, scens, kinds, cfg, opts);

  // Telemetry merges in table order (cells, then Ethernet baselines) with
  // trial-ordered labels -- the same files regardless of thread count.
  std::printf("%-11s %-9s | %18s %18s | %s\n", "scenario", "benchmark",
              "real(s)", "modulated(s)", "check");
  for (const auto& c : result.cells) {
    const Summary r = summarize_elapsed(c.live);
    const Summary m = summarize_elapsed(c.modulated);
    std::printf("%-11s %-9s | %18s %18s | %s\n", c.scenario.c_str(),
                to_string(c.kind), cell(r).c_str(), cell(m).c_str(),
                check_label(r, m).c_str());
    const std::string label = c.scenario + "/" + to_string(c.kind);
    obs.add_telemetry(c.live, label + "/live");
    obs.add_telemetry(c.modulated, label + "/mod");
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Summary eth = summarize_elapsed(result.ethernet[k]);
    std::printf("%-11s %-9s | %18s %18s |\n", "Ethernet",
                to_string(kinds[k]), cell(eth).c_str(), "-");
    obs.add_telemetry(result.ethernet[k],
                      std::string("ethernet/") + to_string(kinds[k]));
  }

  if (sup.enabled) {
    const SupervisionReport& report = result.supervision;
    std::printf("\nsupervision: %llu trial(s) failed, %llu retry attempt(s), "
                "%llu timed out\n",
                static_cast<unsigned long long>(report.trials_failed),
                static_cast<unsigned long long>(report.trials_retried),
                static_cast<unsigned long long>(report.trials_timed_out));
    for (const TrialError& e : report.errors) {
      std::printf("  %s\n", describe(e).c_str());
    }
  }

  for (const auto& per_scenario : result.audits) {
    obs.add_audits(per_scenario, "");
  }
  const int observed = obs.write_exports();
  if (observed == kExitIo) return kExitIo;

  if (!json_path.empty()) {
    std::ostringstream out;
    write_sweep_json(out, result, cfg, kinds);
    if (!sim::io::write_artifact_or_complain(json_path, out.str())) {
      return kExitIo;
    }
    std::printf("\nsweep json: -> %s\n", json_path.c_str());
  }

  journal.close();
  if (journal.degraded()) {
    std::fprintf(stderr,
                 "warning: sweep journal degraded mid-run (%s); results are "
                 "complete but this run is not resumable\n",
                 journal.degraded_reason().c_str());
  }

  std::printf("\ntotal wall clock: %.2f s\n",
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
  // Degraded cells outrank an audit breach: exit 5 says "every cell ran,
  // but these trials carry error records" (the contract tracemod_cli.hpp
  // pins as kExitDegraded).  A journal plane that gave up mid-run is the
  // same grade of outcome: the table is good, the crash-safety is not.
  const int exit_code = result.supervision.degraded() || journal.degraded()
                            ? kExitDegraded
                            : observed;
  obs.status().finish(exit_code);
  return exit_code;
}

void print_status_human(const sim::status::StatusSnapshot& s) {
  std::printf("%s", s.driver.c_str());
  if (!s.phase.empty()) std::printf(" [%s]", s.phase.c_str());
  if (s.units_total > 0.0) {
    std::printf("  %.0f/%.0f %s (%.1f%%)", s.units_done, s.units_total,
                s.units_label.c_str(),
                100.0 * s.units_done / s.units_total);
  } else if (s.units_done > 0.0) {
    std::printf("  %.0f %s", s.units_done, s.units_label.c_str());
  }
  if (s.eta_seconds >= 0.0 && !s.finished) {
    std::printf("  ETA %.1fs", s.eta_seconds);
  }
  std::printf("\n  wall %.1fs", s.wall_seconds);
  if (s.sim_seconds > 0.0) {
    std::printf("  sim %.1fs (%.1fx real time)", s.sim_seconds,
                s.sim_per_wall);
  }
  if (s.events_dispatched > 0) {
    std::printf("  events %llu",
                static_cast<unsigned long long>(s.events_dispatched));
  }
  std::printf("\n");
  if (s.retries > 0 || s.errors > 0) {
    std::printf("  retries %llu  errors %llu\n",
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.errors));
  }
  if (s.records_streamed > 0 || s.windows_distilled > 0 ||
      s.windows_shed > 0) {
    std::printf("  records %llu  windows %llu distilled, %llu shed\n",
                static_cast<unsigned long long>(s.records_streamed),
                static_cast<unsigned long long>(s.windows_distilled),
                static_cast<unsigned long long>(s.windows_shed));
  }
  std::printf("  seq %llu  pid %llu  tool %s\n",
              static_cast<unsigned long long>(s.seq),
              static_cast<unsigned long long>(s.pid),
              s.tool_version.c_str());
  if (s.finished) std::printf("  finished: exit %d\n", s.exit_code);
}

int cmd_status(const std::vector<std::string>& args) {
  Parsed p = parse(
"status", args,
{{"--json", false}, {"--follow", false}, {"--interval", true}}, 1, 1);
  if (p.failed) return usage();
  double interval = 0.5;
  checked_number(p, "--interval", &interval);
  if (p.failed || interval <= 0) return usage();
  const bool as_json = p.has("--json");
  const bool follow = p.has("--follow");

  std::uint64_t last_seq = 0;
  for (;;) {
    const sim::status::StatusReadResult r =
        sim::status::read_status_file(p.pos[0]);
    if (r.status == sim::status::StatusReadStatus::kOk) {
      if (r.snapshot.seq != last_seq) {
        last_seq = r.snapshot.seq;
        if (as_json) {
          write_status_json(std::cout, r.snapshot);
          std::cout.flush();
        } else {
          print_status_human(r.snapshot);
          std::fflush(stdout);
        }
      }
      if (!follow || r.snapshot.finished) return kExitOk;
    } else if (r.status == sim::status::StatusReadStatus::kCorrupt) {
      // Publishes are atomic renames, so damage is never a benign race:
      // report it even in follow mode.
      std::fprintf(stderr, "tracemod status: %s\n", r.message.c_str());
      return kExitIo;
    } else if (!follow) {
      std::fprintf(stderr, "tracemod status: %s\n", r.message.c_str());
      return kExitIo;
    }
    // kMissing under --follow waits for the run to publish its first
    // snapshot; so does an unchanged seq.
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}

int cmd_version(const std::vector<std::string>& args) {
  const Parsed p = parse("tracemod version", args, {}, 0, 0);
  if (p.failed) return usage();
  std::printf("tracemod %s (%s build)\n", kToolVersion, build_type());
  std::printf(
      "binary formats: trace v2 (TMTR), sweep journal TMSJ v1, "
      "distill checkpoint TMDJ v1, status snapshot TMST v1\n");
  std::printf("json schemas:");
  for (const char* kind : kJsonSchemaKinds) std::printf(" %s", kind);
  std::printf("\n");
  return kExitOk;
}

}  // namespace

int run(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (cmd == "collect") return cmd_collect(rest);
    if (cmd == "distill") return cmd_distill(rest);
    if (cmd == "gen-corpus") return cmd_gen_corpus(rest);
    if (cmd == "info") return cmd_info(rest);
    if (cmd == "synth") return cmd_synth(rest);
    if (cmd == "verify") return cmd_verify(rest);
    if (cmd == "corrupt") return cmd_corrupt(rest);
    if (cmd == "audit") return cmd_audit(rest);
    if (cmd == "report") return cmd_report(rest);
    if (cmd == "campus") return cmd_campus(rest);
    if (cmd == "perf") return cmd_perf(rest);
    if (cmd == "status") return cmd_status(rest);
    if (cmd == "sweep") return cmd_sweep(rest);
    if (cmd == "version" || cmd == "--version") return cmd_version(rest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  }
  std::fprintf(stderr, "tracemod: unknown command '%s'\n", cmd.c_str());
  return usage();
}

}  // namespace tracemod::cli
