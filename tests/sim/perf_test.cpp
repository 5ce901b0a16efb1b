// The wall-clock perf plane's contracts: call-path attribution, sampling
// that keeps counts exact, the disabled-is-free and attached-is-
// virtual-time-identical guarantees, exporter shapes, and the perf.*
// metric family staying inside the declared namespace.
#include "sim/perf/perf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/model.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "sim/event_loop.hpp"
#include "sim/metric_names.hpp"
#include "sim/perf/report.hpp"
#include "sim/telemetry.hpp"

namespace tracemod::sim::perf {
namespace {

/// Burns a little CPU so sampled self-times are nonzero without sleeping.
void spin() {
  volatile std::uint64_t x = 0;
  for (int i = 0; i < 20000; ++i) x = x + static_cast<std::uint64_t>(i);
}

const PerfPath* find_path(const PerfSnapshot& snap, const std::string& p) {
  for (const PerfPath& path : snap.paths) {
    if (path.path == p) return &path;
  }
  return nullptr;
}

TEST(PerfProfiler, NoSessionMeansNoCurrentAndScopesAreNoops) {
  EXPECT_EQ(current(), nullptr);
  {
    PerfScope scope(Domain::kOther, "orphan");
    EXPECT_EQ(current(), nullptr);
  }
}

TEST(PerfProfiler, SessionsAttachAndNestAndRestore) {
  PerfProfiler outer_p;
  PerfProfiler inner_p;
  EXPECT_EQ(current(), nullptr);
  {
    PerfSession outer(outer_p);
    EXPECT_EQ(current(), &outer_p);
    {
      PerfSession inner(inner_p);
      EXPECT_EQ(current(), &inner_p);
    }
    EXPECT_EQ(current(), &outer_p);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(PerfProfiler, NestedScopesBuildCallPaths) {
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    for (int i = 0; i < 3; ++i) {
      PerfScope a(Domain::kEventLoop, "tick");
      PerfScope b(Domain::kPacketPath, "node.send");
      if (i == 0) {
        PerfScope c(Domain::kModulation, "modulation.modulate");
      }
    }
  }
  const PerfSnapshot snap = capture_perf(profiler);
  const PerfPath* tick = find_path(snap, "event_loop;tick");
  const PerfPath* send = find_path(snap, "event_loop;tick;node.send");
  const PerfPath* mod =
      find_path(snap, "event_loop;tick;node.send;modulation.modulate");
  ASSERT_NE(tick, nullptr);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(tick->count, 3u);
  EXPECT_EQ(send->count, 3u);
  EXPECT_EQ(mod->count, 1u);
  EXPECT_EQ(mod->leaf_domain, Domain::kModulation);
}

TEST(PerfProfiler, SiblingScopesWithSameLabelMergeAcrossOccurrences) {
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    for (int i = 0; i < 5; ++i) {
      PerfScope root(Domain::kOther, "root");
      PerfScope leaf(Domain::kOther, "leaf");
    }
  }
  // One node per distinct (parent, domain, label): 5 occurrences share it.
  EXPECT_EQ(profiler.nodes().size(), 2u);
  EXPECT_EQ(profiler.roots().size(), 1u);
  EXPECT_EQ(profiler.nodes()[0].count, 5u);
}

TEST(PerfProfiler, SamplingStrideKeepsCountsExactAndScalesEstimates) {
  PerfConfig cfg;
  cfg.sampling_stride = 4;
  PerfProfiler profiler(cfg);
  {
    PerfSession session(profiler);
    for (int i = 0; i < 100; ++i) {
      PerfScope root(Domain::kOther, "sampled");
      spin();
    }
  }
  const PerfSnapshot snap = capture_perf(profiler);
  ASSERT_EQ(snap.paths.size(), 1u);
  const PerfPath& p = snap.paths[0];
  EXPECT_EQ(p.count, 100u);          // counts are exact regardless
  EXPECT_EQ(p.timed_count, 25u);     // one in four occurrences timed
  EXPECT_GT(p.est_total_s, 0.0);     // estimate scaled up from the sample
  EXPECT_EQ(snap.sampling_stride, 4u);
}

TEST(PerfProfiler, ChildTimingFollowsTheSampledRoot) {
  // The whole stack of a selected root occurrence is timed together, so
  // self = total - child subtraction never mixes sampled and unsampled
  // frames.
  PerfConfig cfg;
  cfg.sampling_stride = 2;
  PerfProfiler profiler(cfg);
  {
    PerfSession session(profiler);
    for (int i = 0; i < 10; ++i) {
      PerfScope root(Domain::kOther, "root");
      PerfScope child(Domain::kOther, "child");
      spin();
    }
  }
  const PerfSnapshot snap = capture_perf(profiler);
  const PerfPath* root = find_path(snap, "other;root");
  const PerfPath* child = find_path(snap, "other;root;child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->timed_count, 5u);
  EXPECT_EQ(child->timed_count, 5u);
  EXPECT_GE(root->est_total_s, child->est_total_s);
  EXPECT_GE(root->est_self_s, 0.0);
}

TEST(PerfProfiler, EventLoopDispatchIsCountedAndSampled) {
  PerfConfig cfg;
  cfg.counter_sample_every = 8;
  PerfProfiler profiler(cfg);
  EventLoop loop;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 100) loop.schedule(milliseconds(1), chain, "perf.tick");
  };
  {
    PerfSession session(profiler);
    loop.schedule(milliseconds(1), chain, "perf.tick");
    loop.run();
  }
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(profiler.dispatched(), 100u);
  const PerfSnapshot snap = capture_perf(profiler);
  const PerfPath* tick = find_path(snap, "event_loop;perf.tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->count, 100u);
  // 100 dispatches at one sample per 8: periodic counter samples landed.
  ASSERT_FALSE(snap.samples.empty());
  std::uint64_t prev = 0;
  for (const auto& s : snap.samples) {
    EXPECT_GE(s.dispatched, prev);
    prev = s.dispatched;
    EXPECT_GE(s.wall_s, 0.0);
  }
  EXPECT_LE(prev, 100u);
}

TEST(PerfProfiler, AttachedRunIsVirtualTimeIdenticalOnCampus) {
  // The headline contract: attaching the profiler never changes what the
  // simulation computes.  The campus digest hashes every counter and
  // final host state, so equality here is byte-equivalence of the world.
  scenarios::CampusConfig cfg;
  cfg.hosts = 50;
  cfg.horizon = from_seconds(2);
  cfg.seed = 42;
  const scenarios::CampusResult plain = scenarios::run_campus(cfg);

  PerfProfiler profiler;
  scenarios::CampusResult profiled;
  {
    PerfSession session(profiler);
    profiled = scenarios::run_campus(cfg);
  }
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(profiled.ok);
  EXPECT_EQ(plain.digest, profiled.digest);
  EXPECT_EQ(plain.events, profiled.events);
  EXPECT_DOUBLE_EQ(plain.virtual_s, profiled.virtual_s);
  EXPECT_GT(profiler.dispatched(), 0u);
}

TEST(PerfProfiler, AttachedRunIsVirtualTimeIdenticalOnModulatedBenchmark) {
  const core::ReplayTrace trace =
      core::ReplayTrace::wavelan_like(seconds(30));
  const scenarios::BenchmarkOutcome plain = scenarios::run_modulated_benchmark(
      trace, scenarios::BenchmarkKind::kFtpRecv, 7, milliseconds(10), 0.0);

  PerfProfiler profiler;
  scenarios::BenchmarkOutcome profiled;
  {
    PerfSession session(profiler);
    profiled = scenarios::run_modulated_benchmark(
        trace, scenarios::BenchmarkKind::kFtpRecv, 7, milliseconds(10), 0.0);
  }
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(profiled.ok);
  EXPECT_DOUBLE_EQ(plain.elapsed_s, profiled.elapsed_s);
}

TEST(PerfReport, PipelineHotspotsLandInTheExpectedDomains) {
  // Shape test for the acceptance bar: profile the modulated pipeline and
  // pin where the top self-time paths live.  Every hotspot must sit under
  // a declared domain root, and the profile must attribute work to the
  // event loop, the packet path, and the modulation layer (those are the
  // subsystems the workload exercises).
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    const core::ReplayTrace trace =
        core::ReplayTrace::wavelan_like(seconds(60));
    const scenarios::BenchmarkOutcome out = scenarios::run_modulated_benchmark(
        trace, scenarios::BenchmarkKind::kFtpRecv, 1, milliseconds(10), 0.0);
    ASSERT_TRUE(out.ok);
  }
  const PerfSnapshot snap = capture_perf(profiler);
  ASSERT_GE(snap.paths.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string& path = snap.paths[i].path;
    const std::size_t semi = path.find(';');
    ASSERT_NE(semi, std::string::npos) << path;
    const std::string root = path.substr(0, semi);
    bool known = false;
    for (std::size_t d = 0; d < kDomainCount; ++d) {
      known |= root == to_string(static_cast<Domain>(d));
    }
    EXPECT_TRUE(known) << "hotspot root '" << root << "' in " << path;
  }
  bool saw_event_loop = false, saw_packet = false, saw_modulation = false;
  for (const PerfDomainStats& d : snap.domains) {
    saw_event_loop |= d.domain == Domain::kEventLoop;
    saw_packet |= d.domain == Domain::kPacketPath;
    saw_modulation |= d.domain == Domain::kModulation;
  }
  EXPECT_TRUE(saw_event_loop);
  EXPECT_TRUE(saw_packet);
  EXPECT_TRUE(saw_modulation);
  EXPECT_GT(snap.dispatched, 0u);
  EXPECT_GT(snap.wall_s, 0.0);
}

TEST(PerfReport, FlamegraphIsCollapsedStackFormat) {
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    for (int i = 0; i < 50; ++i) {
      PerfScope root(Domain::kOther, "hot");
      spin();
    }
  }
  std::ostringstream out;
  write_flamegraph(out, capture_perf(profiler));
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  // Every line is "semicolon;joined;path <integer us>\n".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
    EXPECT_NE(line.substr(0, space).find("other;hot"), std::string::npos);
  }
}

TEST(PerfReport, PerfJsonCarriesTheV1Schema) {
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    PerfScope root(Domain::kOther, "workload");
    spin();
  }
  std::ostringstream out;
  write_perf_json(out, capture_perf(profiler), "unit-test", 12.5, 5,
                  "\"digest\": \"abc\"");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"tracemod-perf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_s\": 12.500000"), std::string::npos);
  EXPECT_NE(json.find("\"sim_per_wall\""), std::string::npos);
  EXPECT_NE(json.find("\"digest\": \"abc\""), std::string::npos);
  EXPECT_NE(json.find("\"hotspots\""), std::string::npos);
  EXPECT_NE(json.find("\"allocs_per_event\""), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\""), std::string::npos);
}

TEST(PerfReport, PerfFamilyStaysInsideDeclaredMetricNames) {
  // Drift guard for the perf.* family: everything append_perf_to_telemetry
  // adds must be declared in metric_names.hpp, and the snapshot's sorted-
  // name invariant must survive the append.
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    EventLoop loop;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 64) loop.schedule(milliseconds(1), chain, "drift.tick");
    };
    loop.schedule(milliseconds(1), chain, "drift.tick");
    loop.run();
  }
  TelemetrySnapshot tel;
  append_perf_to_telemetry(tel, capture_perf(profiler));

  for (const auto& [name, value] : tel.counters) {
    bool declared = false;
    for (const char* known : metric::kAllCounterNames) declared |= name == known;
    EXPECT_TRUE(declared) << "counter '" << name << "' undeclared";
  }
  for (const auto& [name, series] : tel.series) {
    bool declared = false;
    for (const char* known : metric::kAllSeriesNames) declared |= name == known;
    EXPECT_TRUE(declared) << "series '" << name << "' undeclared";
  }
  for (const auto& [name, hist] : tel.histograms) {
    bool declared = false;
    for (const char* known : metric::kAllHistogramNames)
      declared |= name == known;
    EXPECT_TRUE(declared) << "histogram '" << name << "' undeclared";
  }
  auto sorted = [](const auto& entries) {
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i - 1].first >= entries[i].first) return false;
    }
    return true;
  };
  EXPECT_TRUE(sorted(tel.counters));
  EXPECT_TRUE(sorted(tel.series));
  EXPECT_TRUE(sorted(tel.histograms));
  // The family actually landed (not vacuous).
  bool has_profiled = false;
  for (const auto& [name, value] : tel.counters) {
    has_profiled |= name == metric::kPerfEventsProfiled;
  }
  EXPECT_TRUE(has_profiled);
}

TEST(PerfReport, ReportShapeIsDeterministicWithoutWallTimes) {
  PerfProfiler profiler;
  {
    PerfSession session(profiler);
    PerfScope a(Domain::kCellIndex, "cell.query");
  }
  std::ostringstream out;
  write_perf_report(out, capture_perf(profiler), 10,
                    /*include_wall_time=*/false);
  const std::string text = out.str();
  EXPECT_NE(text.find("cell_index"), std::string::npos);
  EXPECT_NE(text.find("cell.query"), std::string::npos);
  EXPECT_EQ(text.find("wall"), std::string::npos);
}

}  // namespace
}  // namespace tracemod::sim::perf
