// perfbench -- runs one benchmark workload for a wall-clock budget and
// prints its figures as one JSON object.  perfbench/run.py builds this
// binary, runs it, and picks out the metrics BENCHMARK.json names.
//
//   perfbench --workload paper_sweep|campus|distill --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--spans FILE]
//             [--expect-digest HEX]
//
// Untraced (--trace 0): passes of setup + run repeat until S seconds have
// passed (at least one).  Traced (--trace 1): passes alternate untraced and
// traced, and the traced ones record spans around every library call and
// attach a sim::perf::PerfSession; --spans writes the spans once the run
// ends.  Every figure is a median over passes: setup_s over setups, the
// end-to-end figures over each timed call (workloads.hpp), the per-layer
// figures over traced passes.  The medians handle a slow stretch within
// the run; a machine that runs slower for the whole run is handled by the
// yardstick (yardstick.hpp).  The end-to-end times are the median times
// divided by the run's slowdown: its mean yardstick slice (untraced
// passes) over Yardstick::kReferenceSliceS.  Every pass's digest must
// equal every other's, and under seed 0 (or with --expect-digest) the
// recorded digest too.  Exit status: 0 when every check passed, 3 when one failed, 2 when
// the workload could not run (an I/O error), 1 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "yardstick.hpp"

namespace {

using namespace perfbench;
namespace perf = tracemod::sim::perf;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::vector<double> scaled(std::vector<double> v, double by) {
  for (double& x : v) x *= by;
  return v;
}

/// Spans whose totals become per-layer metrics: NAME_s (wall), NAME.count,
/// and NAME.sim_s where the span covers virtual time.
struct SpanMetric {
  const char* name;
  bool sim;
};
const SpanMetric kSpanMetrics[] = {
    {"scenarios.live_trial", true},
    {"scenarios.collect", true},
    {"scenarios.ethernet_trial", true},
    {"scenarios.modulated_trial.web", true},
    {"scenarios.modulated_trial.ftp_recv", true},
    {"scenarios.modulated_trial.andrew", true},
    {"scenarios.measure_compensation", false},
    {"scenarios.campus_build", false},
    {"scenarios.campus_run", false},
    {"scenarios.campus_build_1k", false},
    {"scenarios.campus_run_1k", false},
    {"core.distill", false},
    {"core.distill_1h", false},
    {"core.reconstruct", false},
    {"core.estimate", false},
    {"core.assemble", false},
    {"core.stream_distill", false},
    {"trace.write", false},
    {"trace.read", false},
    {"trace.scan", false},
};

/// Per-layer figures only some workloads produce.
const char* const kWorkloadLayerMetrics[] = {
    "core.groups_corrected_share", "core.inmem_records_per_sec",
    "core.stream_records_per_sec", "wireless.frames_delivered_share",
    "wireless.handoffs"};

/// Passes that always start with a fresh setup(), so setup_s is a median
/// even for a workload whose inputs later passes reuse.
constexpr int kSetups = 3;

/// Perf-plane domains reported as DOMAIN.self_s, .count, .allocs_per_call.
const perf::Domain kDomains[] = {perf::Domain::kEventLoop,
                                 perf::Domain::kPacketPath,
                                 perf::Domain::kModulation,
                                 perf::Domain::kCellIndex,
                                 perf::Domain::kDistill};

/// Per-layer figures of one traced pass: span totals, perf-plane domains,
/// and the workload's own ratios.  Span figures appear only for spans the
/// pass recorded, so a call made on some passes only (a reused setup) is
/// the median over the passes that made it.
Metrics traced_layer_metrics(const SpanRecorder& spans, std::size_t first_span,
                             const perf::PerfSnapshot& snap,
                             const Metrics& workload_layer) {
  Metrics m = workload_layer;
  const auto totals = spans.totals(first_span);
  for (const SpanMetric& sm : kSpanMetrics) {
    const auto it = totals.find(sm.name);
    if (it == totals.end()) continue;
    const std::string n = sm.name;
    m[n + "_s"] = it->second.total_s;
    m[n + ".count"] = static_cast<double>(it->second.count);
    if (sm.sim) m[n + ".sim_s"] = it->second.sim_s;
  }
  if (const auto scan = totals.find("trace.scan"); scan != totals.end()) {
    m["trace.scan_records_per_sec"] =
        static_cast<double>(scan->second.items) / scan->second.total_s;
  }

  for (perf::Domain d : kDomains) {
    perf::PerfDomainStats st;
    for (const perf::PerfDomainStats& s : snap.domains) {
      if (s.domain == d) st = s;
    }
    const std::string n = perf::to_string(d);
    m[n + ".self_s"] = st.est_self_s;
    m[n + ".count"] = static_cast<double>(st.count);
    m[n + ".allocs_per_call"] =
        st.count > 0 ? static_cast<double>(st.self_allocs) /
                           static_cast<double>(st.count)
                     : 0.0;
  }
  m["heap.allocs_per_event"] = snap.allocs_per_event();
  std::uint64_t high_water = 0;
  for (const auto& s : snap.samples) {
    high_water = std::max(high_water, s.queue_depth);
  }
  m["event_loop.queue_high_water"] = static_cast<double>(high_water);
  return m;
}

/// Each unit's median wall time across passes (all passes time the same
/// units in the same order).
std::vector<double> unit_medians(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out(passes.front().size());
  for (std::size_t u = 0; u < out.size(); ++u) {
    std::vector<double> column;
    for (const auto& pass : passes) column.push_back(pass[u]);
    out[u] = median(std::move(column));
  }
  return out;
}

void append(std::map<std::string, std::vector<double>>* into,
            const Metrics& m) {
  for (const auto& [name, value] : m) (*into)[name].push_back(value);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const char* key, const Metrics& metrics) {
  std::printf("\"%s\": {", key);
  for (auto it = metrics.begin(); it != metrics.end(); ++it) {
    std::printf("%s\"%s\": %.17g", it == metrics.begin() ? "" : ", ",
                it->first.c_str(), it->second);
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|campus|distill "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--work-dir DIR] [--spans FILE] "
               "[--expect-digest HEX]\n");
  return 1;
}

int drive(int argc, char** argv) {
  std::string workload_name;
  WorkloadOptions opts;
  double seconds = -1.0;
  int trace = -1;
  std::string spans_path;
  std::optional<std::uint64_t> expect_digest;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else if (flag == "--spans") {
      spans_path = v;
    } else if (flag == "--expect-digest") {
      expect_digest = std::strtoull(v, &end, 16);
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || seconds < 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  // A fixed worker count, capped by the machine, so the stream distill
  // figures do not move with the core count above it.
  opts.stream_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  const std::unique_ptr<Workload> workload =
      make_workload(workload_name, opts);
  if (workload == nullptr) return usage();
  if (!expect_digest && opts.seed == 0) {
    expect_digest = workload->recorded_digest();
  }

  std::vector<double> setup_s;
  std::vector<std::vector<double>> untraced_units;
  std::vector<std::vector<double>> traced_units;
  std::vector<double> yard_s;  ///< every yardstick slice of untraced passes
  std::map<std::string, std::vector<double>> traced_layer;
  std::vector<std::uint64_t> digests;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  SpanRecorder spans;
  Yardstick yard;

  const auto start = Clock::now();
  for (int pass = 0;
       pass == 0 || since(start) < seconds || (trace == 1 && pass < 2);
       ++pass) {
    const bool traced = trace == 1 && pass % 2 == 1;
    SpanRecorder* rec = traced ? &spans : nullptr;
    const std::size_t first_span = spans.spans().size();

    if (pass < kSetups || workload->setup_every_pass()) {
      const auto t0 = Clock::now();
      {
        SpanScope span(rec, "setup");
        workload->setup(rec);
      }
      if (!traced) setup_s.push_back(since(t0));
    }

    PassResult res;
    if (traced) {
      perf::PerfConfig pcfg;
      pcfg.counter_sample_every = 256;
      perf::PerfProfiler profiler(pcfg);
      {
        perf::PerfSession session(profiler);
        SpanScope span(rec, "pass");
        res = workload->run(rec, yard);
      }
      append(&traced_layer, traced_layer_metrics(spans, first_span,
                                          perf::capture_perf(profiler),
                                          res.layer));
      traced_units.push_back(res.unit_wall_s);
    } else {
      res = workload->run(nullptr, yard);
      untraced_units.push_back(res.unit_wall_s);
      yard_s.insert(yard_s.end(), res.yard_s.begin(), res.yard_s.end());
    }
    attempted += res.attempted + 1;  // + the digest check below
    for (const std::string& f : res.failures) {
      failures.push_back("pass " + std::to_string(pass) + ": " + f);
    }
    if (!digests.empty() && res.digest != digests.front()) {
      failures.push_back("pass " + std::to_string(pass) +
                         (traced ? " (traced)" : "") +
                         ": digest differs from pass 0");
    } else if (digests.empty() && expect_digest &&
               res.digest != *expect_digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "digest %016llx differs from the expected %016llx",
                    static_cast<unsigned long long>(res.digest),
                    static_cast<unsigned long long>(*expect_digest));
      failures.push_back(buf);
    }
    digests.push_back(res.digest);
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const std::vector<double> unit_s = unit_medians(untraced_units);
  const double slowdown = mean(yard_s) / Yardstick::kReferenceSliceS;
  const Metrics raw = workload->summarize(unit_s);
  const Metrics ref = workload->summarize(scaled(unit_s, 1.0 / slowdown));
  const Metrics e2e = {
      {"setup_s", median(setup_s) / slowdown},
      {"ref_wall_s", ref.at("wall_s")},
      {"sim_s_per_ref_s", ref.at("sim_s_per_wall_s")},
      {"work_per_ref_s", ref.at("work_per_sec")},
      {"wall_exponent", ref.at("wall_exponent")},
      {"peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0},
      // Not end-to-end metrics: the raw figures, for the per-layer ones
      // below and for a reader of perfbench's own output.
      {"raw.setup_s", median(setup_s)},
      {"raw.wall_s", raw.at("wall_s")},
      {"raw.slowdown", slowdown},
  };
  Metrics layer;
  if (trace == 1) {
    for (const auto& [name, values] : traced_layer) {
      layer[name] = median(values);
    }
    // Every workload reports every per-layer name; 0 = no such work here.
    for (const char* name : kWorkloadLayerMetrics) layer.try_emplace(name);
    for (const SpanMetric& sm : kSpanMetrics) {
      const std::string n = sm.name;
      layer.try_emplace(n + "_s");
      layer.try_emplace(n + ".count");
      if (sm.sim) layer.try_emplace(n + ".sim_s");
    }
    layer.try_emplace("trace.scan_records_per_sec");
    // Traced and untraced passes alternate, so the raw times compare.
    layer["bench.trace_overhead"] =
        workload->summarize(unit_medians(traced_units)).at("wall_s") /
        raw.at("wall_s");
    layer["bench.raw_wall_s"] = raw.at("wall_s");
    layer["bench.raw_setup_s"] = median(setup_s);
    layer["bench.slowdown"] = slowdown;
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      spans.write_json(out);
      if (!out) failures.push_back("cannot write spans to " + spans_path);
    }
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }

  std::printf("{\"workload\": %s, \"seed\": %llu, \"passes\": %zu, ",
              json_string(workload_name).c_str(),
              static_cast<unsigned long long>(opts.seed), digests.size());
  std::printf("\"digest\": \"%016llx\", \"stream_threads\": %u, ",
              static_cast<unsigned long long>(digests.front()),
              opts.stream_threads);
  print_metrics("e2e", e2e);
  std::printf(", ");
  print_metrics("layer", layer);
  std::printf(", \"attempted\": %llu, \"failed\": %zu, \"failures\": [",
              static_cast<unsigned long long>(attempted), failures.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_string(failures[i]).c_str());
  }
  std::printf("]}\n");
  return failures.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return drive(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
