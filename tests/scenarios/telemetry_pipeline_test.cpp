// End-to-end observability tests: full runs with telemetry enabled, the
// zero-perturbation contract, serial/parallel export identity, the
// metric-name drift check, and the golden report shape.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "scenarios/experiment.hpp"
#include "sim/metric_names.hpp"
#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "sim/task_pool.hpp"
#include "sim/telemetry.hpp"

namespace tracemod::scenarios {
namespace {

sim::TelemetryConfig enabled_telemetry() {
  sim::TelemetryConfig cfg;
  cfg.enabled = true;
  return cfg;
}

BenchmarkOutcome telemetered_ftp_run() {
  return run_modulated_benchmark(
      core::ReplayTrace::wavelan_like(sim::seconds(120)),
      BenchmarkKind::kFtpRecv, 2026, sim::milliseconds(10), 0.0,
      enabled_telemetry());
}

/// write_report's text, wall times left out, for the telemetered FTP run.
/// The run is profiled on the perf plane, which supplies the per-handler
/// dispatch lines.
std::string telemetered_ftp_report() {
  sim::perf::PerfProfiler profiler;
  BenchmarkOutcome out;
  {
    sim::perf::PerfSession session(profiler);
    out = telemetered_ftp_run();
  }
  if (out.telemetry == nullptr) {
    ADD_FAILURE() << "the telemetered run captured no snapshot";
    return "";
  }
  std::ostringstream report;
  sim::write_report(report, *out.telemetry, sim::perf::capture_perf(profiler),
                    /*include_wall_time=*/false);
  return report.str();
}

TEST(TelemetryPipeline, ModulatedRunRecordsAllLayers) {
  const BenchmarkOutcome out = telemetered_ftp_run();
  ASSERT_TRUE(out.ok);
  ASSERT_NE(out.telemetry, nullptr);
  const sim::TelemetrySnapshot& snap = *out.telemetry;

  // The flight recorder must have seen the packet lifecycle across at
  // least ip / eth / transport / modulation (the acceptance bar is 4).
  EXPECT_GE(snap.distinct_layers(), 4u);
  EXPECT_GT(snap.events.size(), 1000u);
  EXPECT_EQ(snap.events_dropped, 0u);

  // Spans must come in begin/end pairs somewhere in the stream.
  std::size_t begins = 0, ends = 0;
  for (const auto& e : snap.events) {
    begins += e.phase == sim::TraceEvent::Phase::kBegin;
    ends += e.phase == sim::TraceEvent::Phase::kEnd;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_GT(ends, 0u);

  // The promised channels: end-to-end latency histogram and delay-queue
  // depth series.
  const sim::Histogram* e2e = nullptr;
  const sim::TimeSeries* depth = nullptr;
  for (const auto& [name, h] : snap.histograms) {
    if (name == sim::metric::kE2eLatencyMs) e2e = &h;
  }
  for (const auto& [name, s] : snap.series) {
    if (name == sim::metric::kDelayQueueDepth) depth = &s;
  }
  ASSERT_NE(e2e, nullptr);
  EXPECT_GT(e2e->total(), 100u);
  ASSERT_NE(depth, nullptr);
  EXPECT_FALSE(depth->empty());

  // The event loop's side of the run.
  EXPECT_GT(snap.dispatched, 0u);
  EXPECT_GT(snap.queue_high_water, 0u);
}

TEST(TelemetryPipeline, LiveRunRecordsTheAirLayer) {
  ExperimentConfig cfg;
  cfg.telemetry = enabled_telemetry();
  const BenchmarkOutcome out =
      run_live_trial(wean(), BenchmarkKind::kWeb, cfg, 0);
  ASSERT_TRUE(out.ok);
  ASSERT_NE(out.telemetry, nullptr);
  bool has_air = false;
  for (const auto& t : out.telemetry->tracks) has_air |= t.layer == "air";
  EXPECT_TRUE(has_air);
  EXPECT_GE(out.telemetry->distinct_layers(), 4u);
}

TEST(TelemetryPipeline, EveryCounterNameIsDeclaredCentrally) {
  // The drift test: a full live run plus a modulated run touch every
  // subsystem; any counter name in their snapshots that is not listed in
  // metric_names.hpp is a stray string literal.
  ExperimentConfig cfg;
  cfg.telemetry = enabled_telemetry();
  const BenchmarkOutcome live =
      run_live_trial(wean(), BenchmarkKind::kWeb, cfg, 0);
  const BenchmarkOutcome modulated = telemetered_ftp_run();
  ASSERT_NE(live.telemetry, nullptr);
  ASSERT_NE(modulated.telemetry, nullptr);

  auto check = [](const sim::TelemetrySnapshot& snap) {
    for (const auto& [name, value] : snap.counters) {
      bool declared = false;
      for (const char* known : sim::metric::kAllCounterNames) {
        declared |= name == known;
      }
      EXPECT_TRUE(declared) << "counter '" << name
                            << "' is not declared in sim/metric_names.hpp";
    }
    for (const auto& [name, series] : snap.series) {
      bool declared = false;
      for (const char* known : sim::metric::kAllSeriesNames) {
        declared |= name == known;
      }
      EXPECT_TRUE(declared) << "series '" << name
                            << "' is not declared in sim/metric_names.hpp";
    }
    for (const auto& [name, histogram] : snap.histograms) {
      bool declared = false;
      for (const char* known : sim::metric::kAllHistogramNames) {
        declared |= name == known;
      }
      EXPECT_TRUE(declared) << "histogram '" << name
                            << "' is not declared in sim/metric_names.hpp";
    }
  };
  check(*live.telemetry);
  check(*modulated.telemetry);
  // The runs must actually exercise the stack, or the check is vacuous.
  EXPECT_GT(live.telemetry->counters.size(), 3u);
}

TEST(TelemetryPipeline, EnablingTelemetryDoesNotPerturbTheSimulation) {
  // The zero-overhead contract's stronger half: recording never schedules
  // events or draws randomness, so virtual-time results are bit-identical
  // with telemetry on or off.
  const auto trace = core::ReplayTrace::wavelan_like(sim::seconds(120));
  const BenchmarkOutcome off = run_modulated_benchmark(
      trace, BenchmarkKind::kFtpRecv, 2026, sim::milliseconds(10), 0.0);
  const BenchmarkOutcome off_explicit = run_modulated_benchmark(
      trace, BenchmarkKind::kFtpRecv, 2026, sim::milliseconds(10), 0.0,
      sim::TelemetryConfig{});
  const BenchmarkOutcome on = telemetered_ftp_run();
  EXPECT_EQ(off.telemetry, nullptr);
  EXPECT_EQ(off_explicit.telemetry, nullptr);
  EXPECT_DOUBLE_EQ(off.elapsed_s, off_explicit.elapsed_s);
  EXPECT_DOUBLE_EQ(off.elapsed_s, on.elapsed_s);
}

TEST(TelemetryPipeline, SerialAndParallelRunsExportIdentically) {
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.telemetry = enabled_telemetry();

  const auto serial = run_live_trials(wean(), BenchmarkKind::kWeb, cfg);
  sim::TaskPool pool(8);
  const SweepResult sweep =
      run_sweep(&pool, {wean()}, {BenchmarkKind::kWeb}, cfg);
  const auto& parallel = sweep.cells.at(0).live;
  ASSERT_EQ(serial.size(), parallel.size());

  const auto serial_labels = labeled_telemetry(serial, "wean/web");
  const auto parallel_labels = labeled_telemetry(parallel, "wean/web");
  ASSERT_EQ(serial_labels.size(), 2u);
  ASSERT_EQ(parallel_labels.size(), 2u);

  std::ostringstream sm, pm, sj, pj;
  sim::write_metrics_text(sm, serial_labels);
  sim::write_metrics_text(pm, parallel_labels);
  EXPECT_EQ(sm.str(), pm.str());
  sim::write_chrome_trace(sj, serial_labels);
  sim::write_chrome_trace(pj, parallel_labels);
  EXPECT_EQ(sj.str(), pj.str());
}

// Collapses every run of digits and '#' bar characters to a single '#', so
// the golden file pins the report's *shape* (sections, channel names,
// layout) without breaking when deterministic counts shift.
std::string normalize_report(const std::string& report) {
  std::string out;
  bool in_run = false;
  for (const char c : report) {
    const bool run_char = (c >= '0' && c <= '9') || c == '#';
    if (run_char) {
      if (!in_run) out += '#';
      in_run = true;
    } else {
      out += c;
      in_run = false;
    }
  }
  return out;
}

TEST(TelemetryPipeline, ReportShapeMatchesGolden) {
  const std::string actual = normalize_report(telemetered_ftp_report());

  const std::string path =
      std::string(TRACEMOD_TEST_DIR) + "/golden/telemetry_report.txt";
  std::ifstream golden_in(path);
  ASSERT_TRUE(golden_in) << "missing golden file " << path;
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "normalized report drifted; if intentional, regenerate the golden "
         "file:\n"
      << actual;
}

TEST(TelemetryPipeline, EventLoopSectionIsPinned) {
  // The golden above pins the report's shape; this pins the numbers of its
  // deterministic [event loop] section: dispatches, the pending-event high
  // water, and every handler tag's dispatch count.
  const std::string text = telemetered_ftp_report();
  const std::size_t at = text.find("[event loop]");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.substr(at),
            "[event loop] dispatched=38262 queue-high-water=19\n"
            "  (untagged): count=305\n"
            "  daemon.pump: count=551\n"
            "  eth.deliver: count=12898\n"
            "  eth.pump: count=12898\n"
            "  mod.release: count=11519\n"
            "  tcp.delack: count=59\n"
            "  tcp.rto: count=32\n");
}

}  // namespace
}  // namespace tracemod::scenarios
