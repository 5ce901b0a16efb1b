#include "sim/trace_event.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <ostream>

#include "sim/json.hpp"

namespace tracemod::sim {

TrackId FlightRecorder::track(const std::string& node,
                              const std::string& layer) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].node == node && tracks_[i].layer == layer) {
      return static_cast<TrackId>(i + 1);
    }
  }
  tracks_.push_back(Track{node, layer});
  return static_cast<TrackId>(tracks_.size());
}

namespace {

// Formats virtual time as the trace-event "ts" field (microseconds, with
// nanosecond precision preserved in the fraction).
void append_ts(std::string& out, TimePoint t) {
  char buf[40];
  const std::int64_t ns = t.time_since_epoch().count();
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

void write_chrome_trace_events(std::ostream& out,
                               const std::vector<Track>& tracks,
                               const std::vector<TraceEvent>& events,
                               const std::string& label, int pid_base,
                               bool continuation) {
  // Assign process ids per distinct node (in track order) and thread ids
  // per layer within a node, so the assignment is deterministic.
  std::map<std::string, int> pid_of_node;
  std::vector<int> pid_of_track(tracks.size(), 0);
  std::vector<int> tid_of_track(tracks.size(), 0);
  std::map<std::string, int> tid_next;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    auto [it, fresh] =
        pid_of_node.try_emplace(tracks[i].node,
                                pid_base + 1 + static_cast<int>(pid_of_node.size()));
    (void)fresh;
    pid_of_track[i] = it->second;
    tid_of_track[i] = ++tid_next[tracks[i].node];
  }

  std::string buf;
  bool first = !continuation;
  auto emit = [&](const std::string& obj) {
    if (!first) out << ",\n";
    first = false;
    out << obj;
  };

  // Metadata: name each process and thread.
  for (const auto& [node, pid] : pid_of_node) {
    const std::string shown =
        label.empty() ? node : label + "/" + node;
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         json_escape(shown) + "\"}}");
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid_of_track[i]) +
         ",\"tid\":" + std::to_string(tid_of_track[i]) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(tracks[i].layer) + "\"}}");
  }

  // Events, sorted by timestamp (stable: recording order breaks ties, so a
  // begin at t always precedes its end at t).
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].at < events[b].at;
                   });

  for (const std::size_t i : order) {
    const TraceEvent& e = events[i];
    if (e.track == kNoTrack || e.track > tracks.size()) continue;
    const int pid = pid_of_track[e.track - 1];
    const int tid = tid_of_track[e.track - 1];
    buf.clear();
    buf += "{\"name\":\"";
    buf += json_escape(e.name);
    buf += "\",\"pid\":";
    buf += std::to_string(pid);
    buf += ",\"tid\":";
    buf += std::to_string(tid);
    buf += ",\"ts\":";
    append_ts(buf, e.at);
    switch (e.phase) {
      case TraceEvent::Phase::kBegin:
        buf += ",\"ph\":\"b\",\"cat\":\"pkt\",\"id\":\"" +
               std::to_string(e.id) + "\",\"args\":{\"bytes\":";
        append_double(buf, e.value);
        buf += "}}";
        break;
      case TraceEvent::Phase::kEnd:
        buf += ",\"ph\":\"e\",\"cat\":\"pkt\",\"id\":\"" +
               std::to_string(e.id) + "\"}";
        break;
      case TraceEvent::Phase::kInstant:
        buf += ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"pkt\":" +
               std::to_string(e.id) + ",\"value\":";
        append_double(buf, e.value);
        buf += "}}";
        break;
      case TraceEvent::Phase::kCounter:
        buf += ",\"ph\":\"C\",\"args\":{\"value\":";
        append_double(buf, e.value);
        buf += "}}";
        break;
    }
    emit(buf);
  }
}

}  // namespace tracemod::sim
