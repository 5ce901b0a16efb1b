#include "sim/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

#include "sim/json.hpp"
#include "sim/perf/report.hpp"
#include "sim/sim_context.hpp"

namespace tracemod::sim {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// Prometheus metric identifier: [a-zA-Z0-9_], everything else becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "tracemod_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

std::string run_label(const std::string& label) {
  return label.empty() ? "" : "{run=\"" + json_escape(label) + "\"}";
}

std::size_t distinct_nodes(const std::vector<Track>& tracks) {
  std::set<std::string> nodes;
  for (const Track& t : tracks) nodes.insert(t.node);
  return nodes.size();
}

}  // namespace

std::size_t TelemetrySnapshot::distinct_layers() const {
  std::set<std::string> layers;
  for (const Track& t : tracks) layers.insert(t.layer);
  return layers.size();
}

TelemetrySnapshot capture_telemetry(const SimContext& ctx) {
  TelemetrySnapshot snap;
  const Telemetry& tel = ctx.telemetry();
  if (tel.enabled()) {
    snap.tracks = tel.recorder().tracks();
    snap.events = tel.recorder().events();
    snap.events_dropped = tel.recorder().dropped();
  }
  snap.counters = ctx.metrics().snapshot();
  for (const auto& [name, hist] : ctx.metrics().histograms()) {
    snap.histograms.emplace_back(name, hist);
  }
  for (const auto& [name, series] : ctx.metrics().series_channels()) {
    snap.series.emplace_back(name, series);
  }
  snap.dispatched = ctx.loop().dispatched();
  snap.queue_high_water = ctx.loop().queue_high_water();
  return snap;
}

void write_chrome_trace(std::ostream& out, const TelemetrySnapshot& snap) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  write_chrome_trace_events(out, snap.tracks, snap.events);
  out << "\n]}\n";
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<LabeledTelemetry>& snaps) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  int pid_base = 0;
  bool continuation = false;
  for (const LabeledTelemetry& s : snaps) {
    if (s.snapshot == nullptr) continue;
    write_chrome_trace_events(out, s.snapshot->tracks, s.snapshot->events,
                              s.label, pid_base, continuation);
    pid_base += static_cast<int>(distinct_nodes(s.snapshot->tracks));
    continuation = continuation || !s.snapshot->tracks.empty();
  }
  out << "\n]}\n";
}

void write_metrics_text(std::ostream& out, const TelemetrySnapshot& snap,
                        const std::string& label) {
  const std::string run = run_label(label);
  for (const auto& [name, value] : snap.counters) {
    const std::string id = prom_name(name);
    out << "# TYPE " << id << " counter\n";
    out << id << run << " " << value << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string id = prom_name(name);
    out << "# TYPE " << id << " histogram\n";
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < hist.bins(); ++i) {
      cumulative += hist.bin_count(i);
      out << id << "_bucket{";
      if (!label.empty()) out << "run=\"" << json_escape(label) << "\",";
      out << "le=\"" << fmt("%.6g", hist.bin_hi(i)) << "\"} " << cumulative
          << "\n";
    }
    out << id << "_bucket{";
    if (!label.empty()) out << "run=\"" << json_escape(label) << "\",";
    out << "le=\"+Inf\"} " << hist.total() << "\n";
    out << id << "_sum" << run << " " << fmt("%.6g", hist.sum()) << "\n";
    out << id << "_count" << run << " " << hist.total() << "\n";
  }
  for (const auto& [name, series] : snap.series) {
    const std::string id = prom_name(name);
    const RunningStats& s = series.stats();
    out << "# TYPE " << id << " gauge\n";
    out << id << "_last" << run << " " << fmt("%.6g", series.last()) << "\n";
    out << id << "_max" << run << " " << fmt("%.6g", s.max()) << "\n";
    out << id << "_mean" << run << " " << fmt("%.6g", s.mean()) << "\n";
    out << id << "_samples" << run << " " << s.count() << "\n";
  }
}

void write_metrics_text(std::ostream& out,
                        const std::vector<LabeledTelemetry>& snaps) {
  for (const LabeledTelemetry& s : snaps) {
    if (s.snapshot == nullptr) continue;
    write_metrics_text(out, *s.snapshot, s.label);
  }
}

void write_report(std::ostream& out, const TelemetrySnapshot& snap,
                  const perf::PerfSnapshot& dispatch, bool include_wall_time) {
  out << "== telemetry report ==\n";
  out << "[flight recorder] " << snap.events.size() << " events on "
      << snap.tracks.size() << " tracks (" << snap.distinct_layers()
      << " layers, " << snap.events_dropped << " dropped)\n";
  std::vector<std::size_t> per_track(snap.tracks.size(), 0);
  for (const TraceEvent& e : snap.events) {
    if (e.track != kNoTrack && e.track <= snap.tracks.size()) {
      ++per_track[e.track - 1];
    }
  }
  for (std::size_t i = 0; i < snap.tracks.size(); ++i) {
    out << "  " << snap.tracks[i].node << "/" << snap.tracks[i].layer << ": "
        << per_track[i] << " events\n";
  }
  out << "[series]\n";
  for (const auto& [name, series] : snap.series) {
    const RunningStats& s = series.stats();
    out << "  " << name << ": n=" << s.count()
        << " mean=" << fmt("%.3f", s.mean()) << " max=" << fmt("%.3f", s.max())
        << " last=" << fmt("%.3f", series.last()) << "\n";
  }
  out << "[histograms]\n";
  for (const auto& [name, hist] : snap.histograms) {
    out << hist.render("  " + name);
  }
  out << "[counters]\n";
  for (const auto& [name, value] : snap.counters) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "[event loop] dispatched=" << snap.dispatched
      << " queue-high-water=" << snap.queue_high_water << "\n";
  // A handler's root scope has the path "event_loop;<tag>"; a path with a
  // further ';' is a scope nested inside a handler.
  const std::string prefix =
      std::string(perf::to_string(perf::Domain::kEventLoop)) + ";";
  std::vector<const perf::PerfPath*> handlers;
  for (const perf::PerfPath& p : dispatch.paths) {
    if (p.path.starts_with(prefix) &&
        p.path.find(';', prefix.size()) == std::string::npos) {
      handlers.push_back(&p);
    }
  }
  std::sort(handlers.begin(), handlers.end(),
            [](const perf::PerfPath* a, const perf::PerfPath* b) {
              return a->path < b->path;
            });
  for (const perf::PerfPath* p : handlers) {
    out << "  " << p->path.substr(prefix.size()) << ": count=" << p->count;
    if (include_wall_time) {
      out << " self=" << fmt("%.3f", p->est_total_s * 1e3) << "ms";
    }
    out << "\n";
  }
}

}  // namespace tracemod::sim
