// In-memory spans recorded by the benchmark around its calls into
// the tracemod libraries.  The libraries themselves are not instrumented:
// every span opens and closes in perfbench code, so a span's duration is
// the wall time of one public call (or of a group of them, for roots).
//
// A span carries a name, its wall-clock start and end (seconds since the
// recorder was created), the index of the span that was open when it
// began (its parent), and a unit id shared by every span of one trial or
// one distillation input.  Nothing is written while the workload runs;
// write_json() dumps the whole list once the run has ended.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index into SpanRecorder::spans(), -1 = root
  std::int64_t unit = -1;    ///< trial / input id shared by related spans
  double sim_s = 0.0;        ///< virtual seconds the call covered, if any
  std::uint64_t items = 0;   ///< records or events the call handled, if any
};

/// Per-name totals: wall time, call count, and the summed sim_s / items
/// attributes.
struct SpanTotals {
  double total_s = 0.0;
  std::uint64_t count = 0;
  double sim_s = 0.0;
  std::uint64_t items = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const std::string& name, std::int64_t unit);
  /// Closes the innermost open span (SpanScope keeps them nested).
  void close();

  Span& at(std::size_t index) { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Totals over the spans from index `first` on.
  std::map<std::string, SpanTotals> totals(std::size_t first = 0) const;

  /// {"spans": [{"name", "start_s", "end_s", "self_s", "parent", "unit",
  /// "sim_s", "items"}]}; self_s is the span's wall time minus the part its
  /// direct children cover.
  void write_json(std::ostream& out) const;

 private:
  double now_s() const;
  /// Each span's duration minus the durations of its direct children.
  std::vector<double> self_times() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span over one scope.  A null recorder makes it a no-op, which is
/// how the untraced run shares the traced run's code path.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const std::string& name, std::int64_t unit = -1)
      : rec_(rec), index_(rec != nullptr ? rec->open(name, unit) : 0) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_sim_s(double s) {
    if (rec_ != nullptr) rec_->at(index_).sim_s = s;
  }
  void set_items(std::uint64_t n) {
    if (rec_ != nullptr) rec_->at(index_).items = n;
  }

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

}  // namespace perfbench
