// Performance regression gate: measures throughput, real-time ratio, and
// allocation rate for six representative workloads and compares them
// against a committed baseline (BENCH_perf.json, schema
// tracemod-perf-gate-v1).  Exits non-zero when any workload regresses past
// the calibrated tolerances, so CI catches "the emulator got slower"
// before it lands.
//
// Workloads:
//   dispatch    raw event-loop dispatch (chained self-rescheduling events)
//   modulated   full modulated FTP-recv benchmark on a wavelan-like trace
//   campus_1k   1,000-host campus world for 30 virtual seconds
//   campus_10k  the same at 10,000 hosts: with campus_1k, the two points of
//               the campus scaling curve
//   distill     distillation of a one-hour synthetic ping trace, 700 times
//   corpus      streamed distillation of a 256 MB, half-hour synthetic
//               corpus (records/sec, and how much faster than real time)
//
// Wall-clock numbers are noisy, so the gate is deliberately one-sided and
// generous: throughput and real-time ratio must stay above
// --min-wall-ratio (default 0.25) of baseline, while allocs/event -- which
// is near-deterministic -- must stay below --max-alloc-ratio (default 1.5)
// of baseline plus a small absolute slack.  Each workload runs --repeat
// times and the best run counts.
//
// Usage: perf_gate [--baseline BENCH_perf.json] [--out measured.json]
//                  [--update] [--repeat K] [--drill-slowdown X]
//                  [--min-wall-ratio R] [--max-alloc-ratio R]
//                  [--allow-debug]
//   --update          rewrite the baseline from this run (no comparison)
//   --drill-slowdown  divide measured rates by X before comparing; CI uses
//                     2.0 to prove the gate actually fails on a regression
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/distiller.hpp"
#include "core/stream_distiller.hpp"
#include "flags.hpp"
#include "report.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "sim/event_loop.hpp"
#include "sim/io/durable.hpp"
#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "trace/ping.hpp"
#include "trace/synthetic_corpus.hpp"
#include "tracemod_cli.hpp"
#include "version.hpp"

#include "build_guard.hpp"

using namespace tracemod;

namespace {

struct WorkloadResult {
  std::string name;
  bool ok = true;
  double wall_s = 0.0;
  std::uint64_t events = 0;          ///< dispatches, or records distilled
  double work_per_sec = 0.0;         ///< events / wall_s
  double sim_per_wall = 0.0;         ///< simulated seconds per wall second
  double allocs_per_event = 0.0;
};

/// Same synthetic trace shape the micro benchmarks use: n complete
/// three-ping groups, one group per virtual second.
trace::CollectedTrace synthetic_collected(std::size_t groups) {
  trace::CollectedTrace out;
  sim::TimePoint t = sim::kEpoch;
  std::uint16_t seq = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double rtts[3] = {0.0009, 0.0150, 0.0217};
    const std::uint32_t sizes[3] = {60, 1052, 1052};
    for (int i = 0; i < 3; ++i) {
      trace::PacketRecord echo;
      echo.at = t;
      echo.dir = trace::PacketDirection::kOutgoing;
      echo.protocol = net::Protocol::kIcmp;
      echo.icmp_kind = trace::IcmpKind::kEcho;
      echo.icmp_seq = seq;
      echo.ip_bytes = sizes[i];
      out.records.emplace_back(echo);

      trace::PacketRecord reply = echo;
      reply.dir = trace::PacketDirection::kIncoming;
      reply.icmp_kind = trace::IcmpKind::kEchoReply;
      reply.echo_origin = t;
      reply.at = t + sim::from_seconds(rtts[i]);
      out.records.emplace_back(reply);
      ++seq;
    }
    t += sim::seconds(1);
  }
  return out;
}

/// A row timed on a profiled event loop: events are its dispatches.
WorkloadResult loop_row(std::string name, bool ok,
                        const sim::perf::PerfSnapshot& snap,
                        double virtual_s) {
  WorkloadResult r;
  r.name = std::move(name);
  r.ok = ok;
  r.wall_s = snap.wall_s;
  r.events = snap.dispatched;
  r.work_per_sec = snap.events_per_sec();
  r.sim_per_wall = virtual_s / std::max(snap.wall_s, 1e-9);
  r.allocs_per_event = snap.allocs_per_event();
  return r;
}

/// A distillation row: no event loop runs, so "events" are the records
/// streamed through the distiller, work_per_sec is records/sec and allocs
/// amortize over records.
WorkloadResult records_row(std::string name, bool ok,
                           const sim::perf::PerfSnapshot& snap,
                           std::uint64_t records, double virtual_s) {
  const double wall = std::max(snap.wall_s, 1e-9);
  WorkloadResult r;
  r.name = std::move(name);
  r.ok = ok;
  r.wall_s = snap.wall_s;
  r.events = records;
  r.work_per_sec = static_cast<double>(records) / wall;
  r.sim_per_wall = virtual_s / wall;
  r.allocs_per_event = static_cast<double>(snap.allocs.allocs) /
                       static_cast<double>(std::max<std::uint64_t>(records, 1));
  return r;
}

WorkloadResult run_dispatch() {
  constexpr std::uint64_t kEvents = 200'000;
  sim::perf::PerfProfiler profiler;
  sim::EventLoop loop;
  std::uint64_t fired = 0;
  // Two pointers fit the loop's inline slot, so each event costs what the
  // loop costs, not a std::function copy.
  struct Tick {
    sim::EventLoop* loop;
    std::uint64_t* fired;
    void operator()() const {
      if (++*fired < kEvents) {
        loop->schedule(sim::microseconds(10), *this, "gate.tick");
      }
    }
  };
  {
    sim::perf::PerfSession session(profiler);
    loop.schedule(sim::microseconds(10), Tick{&loop, &fired}, "gate.tick");
    loop.run();
  }
  return loop_row("dispatch", fired == kEvents,
                  sim::perf::capture_perf(profiler),
                  sim::to_seconds(loop.now() - sim::kEpoch));
}

WorkloadResult run_modulated() {
  const core::ReplayTrace trace =
      core::ReplayTrace::wavelan_like(sim::seconds(120));
  sim::perf::PerfProfiler profiler;
  scenarios::BenchmarkOutcome outcome;
  {
    sim::perf::PerfSession session(profiler);
    outcome = scenarios::run_modulated_benchmark(
        trace, scenarios::BenchmarkKind::kFtpRecv, 1, sim::milliseconds(10),
        0.0);
  }
  return loop_row("modulated", outcome.ok, sim::perf::capture_perf(profiler),
                  outcome.elapsed_s);
}

/// The campus world perfbench's `campus` workload runs: 30 virtual
/// seconds at seed 42 with the serial scan.  The 1k and 10k rows are the
/// two points of the scaling curve CI holds sub-quadratic.
WorkloadResult run_campus_workload(std::size_t hosts) {
  scenarios::CampusConfig cfg;
  cfg.hosts = hosts;
  cfg.horizon = sim::from_seconds(30);
  cfg.seed = 42;
  sim::perf::PerfProfiler profiler;
  scenarios::CampusResult res;
  {
    sim::perf::PerfSession session(profiler);
    res = scenarios::run_campus(cfg);
  }
  return loop_row("campus_" + std::to_string(hosts / 1000) + "k", res.ok,
                  sim::perf::capture_perf(profiler), res.virtual_s);
}

WorkloadResult run_distill() {
  // One distillation of the hour takes about 0.5 ms (Release, 4-vCPU VM):
  // too short to time, so the session repeats it.
  constexpr std::uint64_t kPasses = 700;
  const trace::CollectedTrace collected = synthetic_collected(3600);
  sim::perf::PerfProfiler profiler;
  std::size_t tuples = 0;
  {
    sim::perf::PerfSession session(profiler);
    for (std::uint64_t i = 0; i < kPasses; ++i) {
      core::Distiller distiller;
      tuples = distiller.distill(collected).tuples().size();
    }
  }
  return records_row("distill", tuples > 0, sim::perf::capture_perf(profiler),
                     collected.records.size() * kPasses, 3600.0 * kPasses);
}

/// Best of k: highest throughput run for the wall metrics, lowest
/// allocs/event across runs (first runs pay one-time lazy-init allocs).
template <typename Fn>
WorkloadResult best_of(Fn fn, int k) {
  WorkloadResult best = fn();
  for (int i = 1; i < k; ++i) {
    WorkloadResult r = fn();
    r.allocs_per_event = std::min(r.allocs_per_event, best.allocs_per_event);
    if (r.work_per_sec > best.work_per_sec) {
      best = r;
    } else {
      best.allocs_per_event =
          std::min(best.allocs_per_event, r.allocs_per_event);
    }
  }
  return best;
}

/// Streams a 256 MB corpus of 1800 virtual seconds through the one-read
/// distiller, best of k.  The corpus is written once into the temp
/// directory, outside the timed region, and removed again whatever
/// happens; a failed write or read fails the row.  sim_per_wall is how
/// much faster than real time the collected half hour distills.
WorkloadResult run_corpus_workload(int k) {
  constexpr double kSeconds = 1800.0;
  std::string path;
  auto run = [&path] {
    sim::perf::PerfProfiler profiler;
    core::StreamDistillResult res;
    {
      sim::perf::PerfSession session(profiler);
      res = core::StreamDistiller().distill_file(path);
    }
    return records_row("corpus", res.status == core::DistillStatus::kOk,
                       sim::perf::capture_perf(profiler),
                       res.stats.records_streamed, kSeconds);
  };
  WorkloadResult result;
  try {
    path = (std::filesystem::temp_directory_path() /
            ("tracemod_perf_gate_" + std::to_string(::getpid()) + ".tmtr"))
               .string();
    trace::CorpusSpec spec;
    spec.duration = sim::from_seconds(kSeconds);
    spec.target_bytes = 256ull << 20;
    spec.seed = 1997;
    trace::generate_ping_corpus(path, spec);
    result = best_of(run, k);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: corpus: %s\n", e.what());
    result.name = "corpus";
    result.ok = false;
  }
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  return result;
}

void write_gate_json(std::ostream& out, const std::vector<WorkloadResult>& ws,
                     int repeat) {
  out << "{\n"
      << "  \"schema\": \"tracemod-perf-gate-v1\",\n"
      << "  \"tool_version\": \"" << kToolVersion << "\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"best_of\": " << repeat << ",\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const WorkloadResult& w = ws[i];
    out << "    {\"name\": \"" << w.name << "\""
        << ", \"ok\": " << (w.ok ? "true" : "false")
        << ", \"wall_s\": " << w.wall_s << ", \"events\": " << w.events
        << ", \"work_per_sec\": " << w.work_per_sec
        << ", \"sim_per_wall\": " << w.sim_per_wall
        << ", \"allocs_per_event\": " << w.allocs_per_event << "}"
        << (i + 1 < ws.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Minimal baseline reader: finds the {...} object whose "name" matches,
/// then scans a numeric field inside it.  Good enough for the flat schema
/// this tool itself writes; returns false when the key is absent.
bool baseline_field(const std::string& text, const std::string& workload,
                    const char* key, double* out) {
  const std::string tag = "\"name\": \"" + workload + "\"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return false;
  const std::size_t end = text.find('}', at);
  const std::string obj =
      text.substr(at, end == std::string::npos ? std::string::npos : end - at);
  const std::string want = std::string("\"") + key + "\":";
  const std::size_t k = obj.find(want);
  if (k == std::string::npos) return false;
  *out = std::strtod(obj.c_str() + k + want.size(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool official = tracemod::bench::require_release_build(argc, argv);
  cli::Parsed cmdline = cli::parse(
      "perf_gate", std::vector<std::string>(argv + 1, argv + argc),
      {{"--baseline", true},
       {"--out", true},
       {"--update", false},
       {"--repeat", true},
       {"--drill-slowdown", true},
       {"--min-wall-ratio", true},
       {"--max-alloc-ratio", true},
       {"--allow-debug", false}},
      0, 0);
  std::string baseline_path = "BENCH_perf.json";
  std::string out_path;
  int repeat = 3;
  double drill = 1.0;
  double min_wall_ratio = 0.25;
  double max_alloc_ratio = 1.5;
  cmdline.str("--baseline", &baseline_path);
  cmdline.str("--out", &out_path);
  const bool update = cmdline.has("--update");
  cli::checked_uint(cmdline, "--repeat", &repeat);
  repeat = std::max(1, repeat);
  cli::checked_number(cmdline, "--drill-slowdown", &drill);
  cli::checked_number(cmdline, "--min-wall-ratio", &min_wall_ratio);
  cli::checked_number(cmdline, "--max-alloc-ratio", &max_alloc_ratio);
  if (cmdline.failed) return cli::kExitUsage;
  if (drill <= 0.0) {
    std::fprintf(stderr, "--drill-slowdown must be > 0\n");
    return cli::kExitUsage;
  }
  // Known before the first row: an unofficial build never writes a
  // baseline, so it does not run the workloads either.
  if (update && !official) {
    std::fprintf(stderr,
                 "perf_gate: refusing --update from a non-Release build\n");
    return 1;
  }

  bench::heading("Perf gate: throughput / real-time ratio / allocs vs baseline",
                 std::string("best of ") + std::to_string(repeat) +
                     ", build " + bench::build_type());

  std::vector<WorkloadResult> results;
  results.push_back(best_of(run_dispatch, repeat));
  results.push_back(best_of(run_modulated, repeat));
  for (const std::size_t hosts : {1000, 10000}) {
    results.push_back(
        best_of([hosts] { return run_campus_workload(hosts); }, repeat));
  }
  results.push_back(best_of(run_distill, repeat));
  results.push_back(run_corpus_workload(repeat));

  bench::rowf("%-10s %10s %12s %14s %12s %8s", "workload", "wall s",
              "work/sec", "sim-s/wall-s", "allocs/ev", "run");
  bool all_ok = true;
  for (const WorkloadResult& w : results) {
    all_ok = all_ok && w.ok;
    bench::rowf("%-10s %10.3f %12.0f %14.1f %12.3f %8s", w.name.c_str(),
                w.wall_s, w.work_per_sec, w.sim_per_wall, w.allocs_per_event,
                w.ok ? "ok" : "FAILED");
  }
  if (!all_ok) {
    std::fprintf(stderr, "perf_gate: a workload failed to complete\n");
    return 1;
  }

  if (!out_path.empty()) {
    std::ostringstream f;
    write_gate_json(f, results, repeat);
    if (!sim::io::write_artifact_or_complain(out_path, f.str())) {
      return cli::kExitIo;
    }
    bench::rowf("wrote %s", out_path.c_str());
  }

  if (update) {
    std::ostringstream f;
    write_gate_json(f, results, repeat);
    if (!sim::io::write_artifact_or_complain(baseline_path, f.str())) {
      return cli::kExitIo;
    }
    bench::rowf("baseline updated: %s", baseline_path.c_str());
    return 0;
  }

  std::ifstream bf(baseline_path);
  if (!bf) {
    std::fprintf(stderr,
                 "perf_gate: no baseline at %s (run with --update to create "
                 "one)\n",
                 baseline_path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << bf.rdbuf();
  const std::string baseline = buf.str();
  if (baseline.find("\"schema\": \"tracemod-perf-gate-v1\"") ==
      std::string::npos) {
    std::fprintf(stderr, "perf_gate: %s is not a tracemod-perf-gate-v1 file\n",
                 baseline_path.c_str());
    return 1;
  }

  if (drill != 1.0) {
    bench::rowf("drill: pretending the build got %.2fx slower", drill);
  }

  int regressions = 0;
  for (const WorkloadResult& w : results) {
    double base_work = 0.0, base_ratio = 0.0, base_allocs = 0.0;
    if (!baseline_field(baseline, w.name, "work_per_sec", &base_work) ||
        !baseline_field(baseline, w.name, "sim_per_wall", &base_ratio) ||
        !baseline_field(baseline, w.name, "allocs_per_event", &base_allocs)) {
      std::fprintf(stderr, "perf_gate: baseline lacks workload '%s'\n",
                   w.name.c_str());
      ++regressions;
      continue;
    }
    const double work = w.work_per_sec / drill;
    const double ratio = w.sim_per_wall / drill;
    const double work_floor = base_work * min_wall_ratio;
    const double ratio_floor = base_ratio * min_wall_ratio;
    const double alloc_ceil = base_allocs * max_alloc_ratio + 0.5;
    const bool work_ok = work >= work_floor;
    const bool ratio_ok = ratio >= ratio_floor;
    const bool alloc_ok = w.allocs_per_event <= alloc_ceil;
    bench::rowf("%-10s work %10.0f vs floor %10.0f [%s]   "
                "sim/wall %8.1f vs %8.1f [%s]   allocs %7.3f vs %7.3f [%s]",
                w.name.c_str(), work, work_floor, work_ok ? "ok" : "REGRESS",
                ratio, ratio_floor, ratio_ok ? "ok" : "REGRESS",
                w.allocs_per_event, alloc_ceil, alloc_ok ? "ok" : "REGRESS");
    if (!work_ok || !ratio_ok || !alloc_ok) ++regressions;
  }

  if (regressions > 0) {
    std::fprintf(stderr, "perf_gate: %d workload(s) regressed past tolerance\n",
                 regressions);
    return 1;
  }
  bench::rowf("perf gate passed (%zu workloads within tolerance)",
              results.size());
  return 0;
}
