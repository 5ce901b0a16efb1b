#include "sim/perf/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/json.hpp"
#include "sim/metric_names.hpp"
#include "sim/telemetry.hpp"
#include "version.hpp"

namespace tracemod::sim::perf {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// "domain;label;label..." for the node at `idx` (root-first).
std::string path_string(const std::vector<PerfProfiler::Node>& nodes,
                        std::uint32_t idx) {
  std::vector<const char*> labels;
  std::int32_t cur = static_cast<std::int32_t>(idx);
  Domain root_domain = Domain::kOther;
  while (cur >= 0) {
    const PerfProfiler::Node& n = nodes[static_cast<std::size_t>(cur)];
    labels.push_back(n.label);
    root_domain = n.domain;
    cur = n.parent;
  }
  std::string out = to_string(root_domain);
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    out += ';';
    out += *it;
  }
  return out;
}

/// Sampling-scaled estimate: measured seconds extrapolated from the timed
/// occurrences to all occurrences.
double scale(double measured_s, std::uint64_t count, std::uint64_t timed) {
  if (timed == 0) return 0.0;
  return measured_s * (static_cast<double>(count) / static_cast<double>(timed));
}

void append_counter_event(std::string& buf, bool& first, const char* name,
                          double ts_us, const char* arg, double value) {
  if (!first) buf += ",\n";
  first = false;
  buf += "{\"name\":\"";
  buf += name;
  buf += "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":";
  buf += fmt("%.3f", ts_us);
  buf += ",\"args\":{\"";
  buf += arg;
  buf += "\":";
  buf += fmt("%.6g", value);
  buf += "}}";
}

/// Inserts (name, value) into a name-sorted vector, summing on collision.
template <typename T>
void sorted_upsert(std::vector<std::pair<std::string, T>>& vec,
                   const std::string& name, T value) {
  auto it = std::lower_bound(
      vec.begin(), vec.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != vec.end() && it->first == name) {
    it->second += value;
  } else {
    vec.insert(it, {name, value});
  }
}

/// Inserts (name, value) into a name-sorted vector, replacing on collision
/// (for histogram/series entries, which do not sum meaningfully).
template <typename T>
void sorted_put(std::vector<std::pair<std::string, T>>& vec,
                const std::string& name, T value) {
  auto it = std::lower_bound(
      vec.begin(), vec.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != vec.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    vec.insert(it, {name, std::move(value)});
  }
}

}  // namespace

PerfSnapshot capture_perf(const PerfProfiler& profiler) {
  PerfSnapshot snap;
  snap.wall_s = profiler.attached_wall_s();
  snap.dispatched = profiler.dispatched();
  snap.allocs = profiler.alloc_delta();
  snap.sampling_stride = profiler.config().sampling_stride;
  snap.samples = profiler.samples();
  snap.dispatch_self_us = profiler.dispatch_hist();

  const std::vector<PerfProfiler::Node>& nodes = profiler.nodes();
  snap.paths.reserve(nodes.size());
  double domain_self_s[kDomainCount] = {};
  std::uint64_t domain_count[kDomainCount] = {};
  std::uint64_t domain_allocs[kDomainCount] = {};
  std::uint64_t domain_bytes[kDomainCount] = {};
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const PerfProfiler::Node& n = nodes[i];
    if (n.count == 0) continue;
    PerfPath p;
    p.path = path_string(nodes, i);
    p.leaf_domain = n.domain;
    p.count = n.count;
    p.timed_count = n.timed_count;
    p.est_total_s = scale(n.wall_s, n.count, n.timed_count);
    const double self_s = std::max(0.0, n.wall_s - n.child_s);
    p.est_self_s = scale(self_s, n.count, n.timed_count);
    p.allocs = n.allocs;
    p.alloc_bytes = n.alloc_bytes;
    p.self_allocs = n.allocs - n.child_allocs;
    p.self_alloc_bytes = n.alloc_bytes - n.child_alloc_bytes;
    const auto d = static_cast<std::size_t>(n.domain);
    domain_self_s[d] += p.est_self_s;
    domain_count[d] += p.count;
    domain_allocs[d] += p.self_allocs;
    domain_bytes[d] += p.self_alloc_bytes;
    snap.paths.push_back(std::move(p));
  }
  std::sort(snap.paths.begin(), snap.paths.end(),
            [](const PerfPath& a, const PerfPath& b) {
              if (a.est_self_s != b.est_self_s) {
                return a.est_self_s > b.est_self_s;
              }
              return a.path < b.path;
            });
  for (std::size_t d = 0; d < kDomainCount; ++d) {
    if (domain_count[d] == 0) continue;
    PerfDomainStats s;
    s.domain = static_cast<Domain>(d);
    s.count = domain_count[d];
    s.est_self_s = domain_self_s[d];
    s.self_allocs = domain_allocs[d];
    s.self_alloc_bytes = domain_bytes[d];
    snap.domains.push_back(s);
  }
  return snap;
}

void write_flamegraph(std::ostream& out, const PerfSnapshot& snap) {
  // flamegraph.pl wants integral sample values; self-microseconds keeps
  // sub-millisecond paths visible.
  std::vector<const PerfPath*> by_path;
  by_path.reserve(snap.paths.size());
  for (const PerfPath& p : snap.paths) by_path.push_back(&p);
  std::sort(by_path.begin(), by_path.end(),
            [](const PerfPath* a, const PerfPath* b) {
              return a->path < b->path;
            });
  for (const PerfPath* p : by_path) {
    const auto us = static_cast<std::uint64_t>(std::llround(
        p->est_self_s * 1e6));
    if (us == 0) continue;
    out << p->path << " " << us << "\n";
  }
}

void write_perf_chrome(std::ostream& out, const PerfSnapshot& snap) {
  std::string buf;
  bool first = true;
  double prev_wall = 0.0;
  std::uint64_t prev_dispatched = 0;
  for (const PerfProfiler::CounterSample& s : snap.samples) {
    const double ts_us = s.wall_s * 1e6;
    append_counter_event(buf, first, "perf.events_dispatched", ts_us,
                         "events", static_cast<double>(s.dispatched));
    append_counter_event(buf, first, "perf.heap_live_bytes", ts_us, "bytes",
                         static_cast<double>(s.heap_live_bytes));
    append_counter_event(buf, first, "perf.event_queue_depth", ts_us,
                         "events", static_cast<double>(s.queue_depth));
    const double dt = s.wall_s - prev_wall;
    if (dt > 0.0) {
      append_counter_event(
          buf, first, "perf.events_per_sec", ts_us, "rate",
          static_cast<double>(s.dispatched - prev_dispatched) / dt);
    }
    prev_wall = s.wall_s;
    prev_dispatched = s.dispatched;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << buf << "\n]}\n";
}

void write_perf_report(std::ostream& out, const PerfSnapshot& snap,
                       std::size_t top_n, bool include_wall_time) {
  out << "== perf report ==\n";
  out << "[totals] events=" << snap.dispatched;
  if (include_wall_time) {
    out << " wall=" << fmt("%.3f", snap.wall_s) << "s"
        << " events/sec=" << fmt("%.0f", snap.events_per_sec());
  }
  out << " allocs=" << snap.allocs.allocs
      << " allocs/event=" << fmt("%.3f", snap.allocs_per_event())
      << " stride=" << snap.sampling_stride << "\n";
  out << "[domains]\n";
  for (const PerfDomainStats& d : snap.domains) {
    out << "  " << to_string(d.domain) << ": count=" << d.count;
    if (include_wall_time) {
      out << " self=" << fmt("%.3f", d.est_self_s * 1e3) << "ms";
    }
    out << " self-allocs=" << d.self_allocs << " ("
        << d.self_alloc_bytes << " bytes)\n";
  }
  out << "[hotspots]\n";
  std::size_t shown = 0;
  for (const PerfPath& p : snap.paths) {
    if (shown++ >= top_n) break;
    out << "  " << p.path << ": count=" << p.count;
    if (include_wall_time) {
      out << " self=" << fmt("%.3f", p.est_self_s * 1e3) << "ms"
          << " total=" << fmt("%.3f", p.est_total_s * 1e3) << "ms";
    }
    out << " self-allocs=" << p.self_allocs << "\n";
  }
}

void write_perf_json(std::ostream& out, const PerfSnapshot& snap,
                     const std::string& workload, double sim_seconds,
                     std::size_t top_n, const std::string& extra) {
  out << "{\n";
  out << "  \"schema\": \"tracemod-perf-v1\",\n";
  out << "  \"tool_version\": \"" << kToolVersion << "\",\n";
  out << "  \"workload\": \"" << json_escape(workload) << "\",\n";
  out << "  \"wall_s\": " << fmt("%.6f", snap.wall_s) << ",\n";
  out << "  \"sim_s\": " << fmt("%.6f", sim_seconds) << ",\n";
  out << "  \"sim_per_wall\": "
      << fmt("%.6g", snap.wall_s > 0.0 ? sim_seconds / snap.wall_s : 0.0)
      << ",\n";
  out << "  \"events\": " << snap.dispatched << ",\n";
  out << "  \"events_per_sec\": " << fmt("%.6g", snap.events_per_sec())
      << ",\n";
  out << "  \"allocs\": " << snap.allocs.allocs << ",\n";
  out << "  \"frees\": " << snap.allocs.frees << ",\n";
  out << "  \"alloc_bytes\": " << snap.allocs.bytes_allocated << ",\n";
  out << "  \"allocs_per_event\": " << fmt("%.6g", snap.allocs_per_event())
      << ",\n";
  out << "  \"sampling_stride\": " << snap.sampling_stride << ",\n";
  if (!extra.empty()) out << "  " << extra << ",\n";
  out << "  \"domains\": [";
  for (std::size_t i = 0; i < snap.domains.size(); ++i) {
    const PerfDomainStats& d = snap.domains[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"domain\": \"" << to_string(d.domain)
        << "\", \"count\": " << d.count
        << ", \"self_s\": " << fmt("%.6f", d.est_self_s)
        << ", \"self_allocs\": " << d.self_allocs
        << ", \"self_alloc_bytes\": " << d.self_alloc_bytes << "}";
  }
  out << "\n  ],\n";
  out << "  \"hotspots\": [";
  std::size_t shown = 0;
  for (const PerfPath& p : snap.paths) {
    if (shown >= top_n) break;
    out << (shown ? ",\n    " : "\n    ");
    ++shown;
    out << "{\"path\": \"" << json_escape(p.path)
        << "\", \"count\": " << p.count
        << ", \"self_s\": " << fmt("%.6f", p.est_self_s)
        << ", \"total_s\": " << fmt("%.6f", p.est_total_s)
        << ", \"self_allocs\": " << p.self_allocs
        << ", \"self_alloc_bytes\": " << p.self_alloc_bytes << "}";
  }
  out << "\n  ]\n";
  out << "}\n";
}

void append_perf_to_telemetry(TelemetrySnapshot& tel,
                              const PerfSnapshot& snap) {
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfEventsProfiled,
                               snap.dispatched);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfAllocs,
                               snap.allocs.allocs);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfFrees,
                               snap.allocs.frees);
  sorted_upsert<std::uint64_t>(tel.counters, metric::kPerfAllocBytes,
                               snap.allocs.bytes_allocated);

  TimeSeries heap, depth, rate;
  double prev_wall = 0.0;
  std::uint64_t prev_dispatched = 0;
  for (const PerfProfiler::CounterSample& s : snap.samples) {
    heap.sample(s.at, static_cast<double>(s.heap_live_bytes));
    depth.sample(s.at, static_cast<double>(s.queue_depth));
    const double dt = s.wall_s - prev_wall;
    if (dt > 0.0) {
      rate.sample(s.at,
                  static_cast<double>(s.dispatched - prev_dispatched) / dt);
    }
    prev_wall = s.wall_s;
    prev_dispatched = s.dispatched;
  }
  // capture_telemetry emits channels in name order (MetricsRegistry is a
  // std::map); keep that invariant so merged exports stay deterministic.
  sorted_put<TimeSeries>(tel.series, metric::kPerfHeapLiveBytes, heap);
  sorted_put<TimeSeries>(tel.series, metric::kPerfEventQueueDepth, depth);
  sorted_put<TimeSeries>(tel.series, metric::kPerfEventsPerSec, rate);
  sorted_put<Histogram>(tel.histograms, metric::kPerfDispatchSelfUs,
                        snap.dispatch_self_us);
}

}  // namespace tracemod::sim::perf
