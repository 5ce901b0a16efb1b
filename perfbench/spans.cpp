#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::size_t SpanRecorder::open(const std::string& name, std::int64_t unit) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  s.unit = unit;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_.back().start_s = now_s();
  return spans_.size() - 1;
}

void SpanRecorder::close() {
  spans_[open_.back()].end_s = now_s();
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  return self;
}

std::map<std::string, SpanTotals> SpanRecorder::totals(
    std::size_t first) const {
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    t.total_s += s.end_s - s.start_s;
    t.count += 1;
    t.sim_s += s.sim_s;
    t.items += s.items;
  }
  return out;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<double> self = self_times();
  char buf[256];
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                  "\"parent\": %d, \"unit\": %lld, \"sim_s\": %.9g, "
                  "\"items\": %llu}",
                  s.start_s, s.end_s, self[i], s.parent,
                  static_cast<long long>(s.unit), s.sim_s,
                  static_cast<unsigned long long>(s.items));
    // Span names are fixed identifiers from perfbench: no escaping needed.
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", "
        << buf;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
