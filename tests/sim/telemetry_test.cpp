#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/json.hpp"
#include "sim/perf/perf.hpp"
#include "sim/perf/report.hpp"
#include "sim/sim_context.hpp"
#include "sim/trace_event.hpp"

namespace tracemod::sim {
namespace {

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorder, TrackRegistrationIsDeduplicatedAndOrdered) {
  FlightRecorder rec(16);
  const TrackId a = rec.track("mobile", "ip");
  const TrackId b = rec.track("mobile", "eth");
  const TrackId a2 = rec.track("mobile", "ip");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoTrack);
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[a - 1].layer, "ip");
  EXPECT_EQ(rec.tracks()[b - 1].layer, "eth");
}

TEST(FlightRecorder, RecordsSpansAndInstants) {
  FlightRecorder rec(16);
  const TrackId t = rec.track("mobile", "ip");
  rec.begin(t, "pkt", 7, kEpoch, 1500.0);
  rec.instant(t, "forward", 7, kEpoch + milliseconds(1));
  rec.end(t, "pkt", 7, kEpoch + milliseconds(2));
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(rec.events()[0].id, 7u);
  EXPECT_DOUBLE_EQ(rec.events()[0].value, 1500.0);
  EXPECT_EQ(rec.events()[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, CapCountsDropsInsteadOfGrowing) {
  FlightRecorder rec(2);
  const TrackId t = rec.track("n", "l");
  rec.instant(t, "a", 1, kEpoch);
  rec.instant(t, "b", 2, kEpoch);
  rec.instant(t, "c", 3, kEpoch);
  rec.instant(t, "d", 4, kEpoch);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 2u);
}

TEST(JsonEscape, EscapesControlQuoteAndBackslash) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

// A tiny structural JSON checker: verifies string/escape correctness and
// that braces/brackets balance.  Not a full parser, but enough to catch the
// classic exporter bugs (trailing commas are caught by the real validation
// in CI via python -m json.tool).
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ChromeTrace, SingleSnapshotIsWellFormed) {
  TelemetrySnapshot snap;
  snap.tracks = {{"mobile", "ip"}, {"server", "eth"}};
  snap.events = {
      {TraceEvent::Phase::kBegin, 1, "pkt", 1, kEpoch, 40.0},
      {TraceEvent::Phase::kEnd, 1, "pkt", 1, kEpoch + milliseconds(3), 0.0},
      {TraceEvent::Phase::kInstant, 2, "eth.drop", 2, kEpoch, 0.0},
      {TraceEvent::Phase::kCounter, 2, "depth", 0, kEpoch, 4.0},
  };
  std::ostringstream out;
  write_chrome_trace(out, snap);
  const std::string json = out.str();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST(ChromeTrace, MergedSnapshotsGetDistinctProcessesAndLabels) {
  auto make = [](const char* node) {
    auto s = std::make_shared<TelemetrySnapshot>();
    s->tracks = {{node, "ip"}};
    s->events = {
        {TraceEvent::Phase::kInstant, 1, "x", 1, kEpoch, 0.0}};
    return s;
  };
  std::vector<LabeledTelemetry> snaps{{"trial0", make("mobile")},
                                      {"trial1", make("mobile")}};
  std::ostringstream out;
  write_chrome_trace(out, snaps);
  const std::string json = out.str();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("trial0/mobile"), std::string::npos);
  EXPECT_NE(json.find("trial1/mobile"), std::string::npos);
  // The two snapshots' single track must land on different pids.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(TelemetrySnapshot, DistinctLayersCountsLayerNamesOnce) {
  TelemetrySnapshot snap;
  snap.tracks = {{"mobile", "ip"}, {"server", "ip"}, {"mobile", "eth"}};
  EXPECT_EQ(snap.distinct_layers(), 2u);
}

// --- Telemetry switch ------------------------------------------------------

TEST(Telemetry, DisabledByDefaultAndTrackReturnsNoTrack) {
  SimContext ctx(1);
  EXPECT_FALSE(ctx.telemetry().enabled());
  EXPECT_EQ(ctx.telemetry().track("mobile", "ip"), kNoTrack);
}

TEST(Telemetry, EnabledContextRecordsAndCaptures) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  SimContext ctx(1, cfg);
  ASSERT_TRUE(ctx.telemetry().enabled());
  const TrackId t = ctx.telemetry().track("mobile", "ip");
  ASSERT_NE(t, kNoTrack);
  ctx.telemetry().recorder().instant(t, "x", 1, kEpoch);
  ++ctx.metrics().counter("net.packets_sent");
  ctx.metrics().histogram("e2e.latency_ms", 0, 10, 2).add(3.0);
  ctx.metrics().series("depth").sample(kEpoch, 1.0);

  const TelemetrySnapshot snap = capture_telemetry(ctx);
  EXPECT_EQ(snap.events.size(), 1u);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "net.packets_sent");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.total(), 1u);
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].second.samples().size(), 1u);
}

// --- MetricsRegistry extensions -------------------------------------------

TEST(MetricsRegistry, HistogramRegistrationIsIdempotent) {
  MetricsRegistry m;
  Histogram& h1 = m.histogram("lat", 0.0, 100.0, 10);
  h1.add(5.0);
  // A second registration with a different shape returns the same channel
  // and keeps the original shape and contents.
  Histogram& h2 = m.histogram("lat", 0.0, 1.0, 2);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bins(), 10u);
  EXPECT_EQ(h2.total(), 1u);
}

TEST(MetricsRegistry, SeriesReferencesAreStable) {
  MetricsRegistry m;
  TimeSeries& s = m.series("depth");
  // Registering other channels must not move existing ones (node-based map).
  for (int i = 0; i < 64; ++i) {
    m.series(std::string("s").append(std::to_string(i)));
  }
  EXPECT_EQ(&s, &m.series("depth"));
  s.sample(kEpoch, 2.0);
  ASSERT_NE(m.find_series("depth"), nullptr);
  EXPECT_EQ(m.find_series("depth")->samples().size(), 1u);
  EXPECT_EQ(m.find_series("absent"), nullptr);
  EXPECT_EQ(m.find_histogram("absent"), nullptr);
}

TEST(MetricsRegistry, ChannelsEnumerateInNameOrder) {
  MetricsRegistry m;
  m.histogram("zeta", 0, 1, 1);
  m.histogram("alpha", 0, 1, 1);
  m.series("zeta");
  m.series("alpha");
  std::vector<std::string> hist_names, series_names;
  for (const auto& [name, h] : m.histograms()) hist_names.push_back(name);
  for (const auto& [name, s] : m.series_channels())
    series_names.push_back(name);
  EXPECT_EQ(hist_names, (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(series_names, (std::vector<std::string>{"alpha", "zeta"}));
}

// --- text exporters --------------------------------------------------------

TEST(MetricsText, EmitsCumulativeBucketsAndCounters) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  SimContext ctx(1, cfg);
  ++ctx.metrics().counter("tcp.retransmits");
  Histogram& h = ctx.metrics().histogram("e2e.latency_ms", 0.0, 10.0, 2);
  h.add(1.0);
  h.add(6.0);
  std::ostringstream out;
  write_metrics_text(out, capture_telemetry(ctx));
  const std::string text = out.str();
  EXPECT_NE(text.find("tracemod_tcp_retransmits 1"), std::string::npos)
      << text;
  // Buckets are cumulative: le="10" must hold both samples.
  EXPECT_NE(text.find("le=\"5\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"10\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("_count 2"), std::string::npos) << text;
}

/// Runs the context's loop under a perf-plane profiler, whose snapshot
/// supplies the report's per-handler dispatch lines.
perf::PerfSnapshot run_profiled(SimContext& ctx) {
  perf::PerfProfiler profiler;
  {
    perf::PerfSession session(profiler);
    ctx.loop().run();
  }
  return perf::capture_perf(profiler);
}

TEST(Report, OmitsWallClockWhenAsked) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  SimContext ctx(1, cfg);
  ctx.loop().schedule(milliseconds(1), [] {}, "tick");
  const perf::PerfSnapshot dispatch = run_profiled(ctx);
  std::ostringstream with, without;
  write_report(with, capture_telemetry(ctx), dispatch,
               /*include_wall_time=*/true);
  write_report(without, capture_telemetry(ctx), dispatch,
               /*include_wall_time=*/false);
  EXPECT_NE(with.str().find("self="), std::string::npos);
  EXPECT_EQ(without.str().find("self="), std::string::npos);
}

TEST(Report, HandlerLinesCountThePerfPlaneDispatchScopes) {
  // One line per handler tag, untagged events included, from the perf
  // plane's event_loop root scopes; a scope nested in a handler is not a
  // handler of its own.
  TelemetryConfig cfg;
  cfg.enabled = true;
  SimContext ctx(1, cfg);
  for (int i = 0; i < 3; ++i) {
    ctx.loop().schedule(
        milliseconds(i),
        [] { perf::PerfScope nested(perf::Domain::kPacketPath, "node.send"); },
        "tick");
  }
  ctx.loop().schedule(milliseconds(9), [] {});
  const perf::PerfSnapshot dispatch = run_profiled(ctx);
  std::ostringstream out;
  write_report(out, capture_telemetry(ctx), dispatch,
               /*include_wall_time=*/false);
  const std::string text = out.str();
  const std::size_t at = text.find("[event loop]");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.substr(at),
            "[event loop] dispatched=4 queue-high-water=4\n"
            "  (untagged): count=1\n"
            "  tick: count=3\n");
}

}  // namespace
}  // namespace tracemod::sim
