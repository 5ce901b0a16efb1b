#include "sim/perf/perf.hpp"

#include <cstring>

#include "sim/assert.hpp"

namespace tracemod::sim::perf {

namespace detail {
constinit thread_local PerfProfiler* g_current = nullptr;
}

const char* to_string(Domain d) {
  switch (d) {
    case Domain::kEventLoop: return "event_loop";
    case Domain::kPacketPath: return "packet_path";
    case Domain::kModulation: return "modulation";
    case Domain::kCellIndex: return "cell_index";
    case Domain::kDistill: return "distill";
    case Domain::kOther: return "other";
  }
  return "unknown";
}

PerfProfiler::PerfProfiler(PerfConfig cfg)
    : cfg_(cfg),
      dispatch_hist_(0.0, cfg.dispatch_hist_max_us, cfg.dispatch_hist_bins) {
  if (cfg_.sampling_stride == 0) cfg_.sampling_stride = 1;
  if (cfg_.counter_sample_every == 0) cfg_.counter_sample_every = 1024;
  AllocSuspendGuard guard;
  stack_.reserve(64);
  nodes_.reserve(256);
  sample_countdown_ = cfg_.counter_sample_every;
}

std::uint32_t PerfProfiler::find_or_create(std::int32_t parent, Domain d,
                                           const char* label) {
  const std::vector<std::uint32_t>& siblings =
      parent < 0 ? roots_ : nodes_[static_cast<std::size_t>(parent)].children;
  for (const std::uint32_t idx : siblings) {
    const Node& n = nodes_[idx];
    if (n.domain == d &&
        (n.label == label || std::strcmp(n.label, label) == 0)) {
      return idx;
    }
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.parent = parent;
  n.domain = d;
  n.label = label;
  nodes_.push_back(std::move(n));
  if (parent < 0) {
    roots_.push_back(idx);
  } else {
    nodes_[static_cast<std::size_t>(parent)].children.push_back(idx);
  }
  return idx;
}

void PerfProfiler::enter(Domain d, const char* label) {
  AllocSuspendGuard guard;  // the instrument's allocations are invisible
  const std::int32_t parent =
      stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back().node);
  const std::uint32_t node = find_or_create(parent, d, label);
  Frame f;
  f.node = node;
  // Sampling decision at the root: the whole stack of a selected root
  // occurrence is timed together, so self = total - child stays exact
  // within the sample.
  f.timed = stack_.empty()
                ? (cfg_.sampling_stride <= 1 ||
                   root_seq_++ % cfg_.sampling_stride == 0)
                : stack_.back().timed;
  ++nodes_[node].count;
  f.alloc0 = thread_alloc_totals();
  if (f.timed) f.t0 = Clock::now();
  stack_.push_back(f);
}

void PerfProfiler::leave() {
  AllocSuspendGuard guard;
  TM_ASSERT(!stack_.empty());
  const Frame f = stack_.back();
  stack_.pop_back();
  Node& n = nodes_[f.node];

  const AllocTotals now_alloc = thread_alloc_totals();
  const std::uint64_t d_allocs = now_alloc.allocs - f.alloc0.allocs;
  const std::uint64_t d_bytes =
      now_alloc.bytes_allocated - f.alloc0.bytes_allocated;
  n.allocs += d_allocs;
  n.alloc_bytes += d_bytes;
  n.child_allocs += f.child_allocs;
  n.child_alloc_bytes += f.child_alloc_bytes;

  double total_s = 0.0;
  if (f.timed) {
    total_s = std::chrono::duration<double>(Clock::now() - f.t0).count();
    ++n.timed_count;
    n.wall_s += total_s;
    n.child_s += f.child_s;
  }

  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_allocs += d_allocs;
    parent.child_alloc_bytes += d_bytes;
    if (f.timed) parent.child_s += total_s;
  } else if (f.timed && n.domain == Domain::kEventLoop) {
    dispatch_hist_.add(total_s * 1e6);
  }
}

void PerfProfiler::on_dispatch(TimePoint virtual_now,
                               std::size_t queue_depth) {
  ++dispatched_;
  if (--sample_countdown_ != 0) return;
  sample_countdown_ = cfg_.counter_sample_every;
  AllocSuspendGuard guard;
  const AllocTotals now_alloc = alloc_totals();
  CounterSample s;
  s.wall_s = std::chrono::duration<double>(Clock::now() - first_attach_).count();
  s.at = virtual_now;
  s.dispatched = dispatched_;
  s.allocs = now_alloc.allocs - alloc_at_start_.allocs;
  s.heap_live_bytes = now_alloc.live_bytes();
  s.queue_depth = queue_depth;
  samples_.push_back(s);
}

void PerfProfiler::on_attach() {
  TM_ASSERT(!attached_);
  if (!ever_attached_) {
    ever_attached_ = true;
    first_attach_ = Clock::now();
    alloc_at_start_ = alloc_totals();
    owner_ = std::this_thread::get_id();
  } else {
    TM_ASSERT(owner_ == std::this_thread::get_id());
  }
  attached_ = true;
  session_t0_ = Clock::now();
}

void PerfProfiler::on_detach() {
  TM_ASSERT(attached_);
  attached_ = false;
  closed_wall_s_ +=
      std::chrono::duration<double>(Clock::now() - session_t0_).count();
}

double PerfProfiler::attached_wall_s() const {
  double s = closed_wall_s_;
  if (attached_) {
    s += std::chrono::duration<double>(Clock::now() - session_t0_).count();
  }
  return s;
}

AllocTotals PerfProfiler::alloc_delta() const {
  if (!ever_attached_) return {};
  return alloc_totals() - alloc_at_start_;
}

PerfSession::PerfSession(PerfProfiler& p) : prev_(detail::g_current) {
  detail::g_current = &p;
  p.on_attach();
}

PerfSession::~PerfSession() {
  detail::g_current->on_detach();
  detail::g_current = prev_;
}

}  // namespace tracemod::sim::perf
