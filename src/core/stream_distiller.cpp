#include "core/stream_distiller.hpp"

#include "sim/io/durable.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "sim/crc32c.hpp"
#include "sim/io/codec.hpp"
#include "sim/metric_names.hpp"
#include "sim/perf/perf.hpp"
#include "sim/sim_context.hpp"
#include "sim/task_pool.hpp"
#include "trace/stream_reader.hpp"

namespace tracemod::core {

namespace {

// ===========================================================================
// TMDJ checkpoint journal: the shared journal header, then CRC-framed plan
// and window records (sim/io/codec.hpp).  The reader is tolerant: a frame
// that fails its CRC or does not decode is skipped (that window
// recomputes), and a torn tail or an implausible length ends the scan.
// ===========================================================================

constexpr sim::io::JournalFormat kJournal{
    {'T', 'M', 'D', 'J'}, 1, 64u * 1024 * 1024, sim::io::BadFrame::kSkip};
constexpr std::uint8_t kFramePlan = 1;
constexpr std::uint8_t kFrameWindow = 2;

using sim::io::put;

// ===========================================================================
// Plan: everything pass 1 learns about the corpus.
// ===========================================================================

struct WindowPlan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t records = 0;
  std::uint64_t sent = 0;
  std::uint64_t replies = 0;
  bool damaged = false;
  bool shed = false;
};

struct Plan {
  std::uint64_t header_bytes = 0;
  std::uint64_t file_size = 0;
  trace::TraceReadReport report;
  bool any_records = false;
  std::int64_t t0 = 0;
  std::int64_t t_end = 0;
  std::uint64_t echoes_total = 0;
  std::uint64_t replies_total = 0;
  std::uint64_t records_streamed = 0;
  // Finalized integer loss lattice, one entry per output step.
  std::vector<std::int64_t> loss_b;
  std::vector<std::int64_t> loss_lo;
  std::vector<std::int64_t> loss_hi;
  std::vector<WindowPlan> windows;
};

/// Exactly-sized echo buffers for one corpus window (or one journal frame).
struct WindowData {
  std::unique_ptr<EchoSent[]> sent;
  std::size_t n_sent = 0;
  std::unique_ptr<EchoReply[]> replies;
  std::size_t n_reply = 0;
};

std::uint64_t retained_bytes_of(const WindowPlan& w) {
  return w.sent * sizeof(EchoSent) + w.replies * sizeof(EchoReply);
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if (a % b != 0 && (a < 0) != (b < 0)) --q;
  return q;
}

// ===========================================================================
// Pass 1: one streaming scan producing the plan.
//
// The loss lattice is built incrementally.  For step j the in-memory
// distiller classifies every reply against w_begin_j = A + j*step and
// w_end_j = B + j*step (A, B fixed by t0 and the config, both halves
// truncated separately, matching assemble_replay's chrono arithmetic):
//   at <  w_begin_j  -> candidate for seq_lo_j   (j >  jb)
//   at >= w_end_j    -> candidate for seq_hi_j   (j <= j1)
//   otherwise        -> counts into b_j          (j1 < j <= jb)
// where jb = floor((t-A)/step), j1 = floor((t-B)/step).  The three ranges
// partition the step axis, so recording one candidate (at jb+1 for lo, at
// j1 for hi) plus a prefix-max / suffix-min sweep at the end reproduces
// the in-memory integers exactly.
// ===========================================================================

class LatticeBuilder {
 public:
  LatticeBuilder(std::int64_t t0, sim::Duration window, sim::Duration step) {
    const std::int64_t hs = (step / 2).count();
    const std::int64_t hw = (window / 2).count();
    a_ = t0 + hs - hw;
    b_ = t0 + hs + hw;
    step_ = step.count();
  }

  void add_reply(std::int64_t t, std::uint16_t seq) {
    const std::int64_t jb = floor_div(t - a_, step_);
    const std::int64_t j1 = floor_div(t - b_, step_);
    grow(std::max(jb + 2, j1 + 1));
    for (std::int64_t j = std::max<std::int64_t>(j1 + 1, 0); j <= jb; ++j) {
      ++b_count_[static_cast<std::size_t>(j)];
    }
    if (jb + 1 >= 0) {
      auto& lo = cand_lo_[static_cast<std::size_t>(jb + 1)];
      lo = std::max<std::int64_t>(lo, seq);
    }
    if (j1 >= 0) {
      auto& hi = cand_hi_[static_cast<std::size_t>(j1)];
      hi = std::min<std::int64_t>(hi, seq);
    }
  }

  void finalize(std::size_t steps, std::uint64_t echoes_total, Plan* plan) {
    grow(static_cast<std::int64_t>(steps));
    plan->loss_b.assign(steps, 0);
    plan->loss_lo.assign(steps, -1);
    plan->loss_hi.assign(steps, static_cast<std::int64_t>(echoes_total));
    std::int64_t run_lo = -1;
    for (std::size_t j = 0; j < steps; ++j) {
      run_lo = std::max(run_lo, cand_lo_[j]);
      plan->loss_lo[j] = run_lo;
      plan->loss_b[j] = b_count_[j];
    }
    std::int64_t run_hi = static_cast<std::int64_t>(echoes_total);
    for (std::size_t j = cand_hi_.size(); j-- > 0;) {
      run_hi = std::min(run_hi, cand_hi_[j]);
      if (j < steps) plan->loss_hi[j] = run_hi;
    }
  }

 private:
  void grow(std::int64_t n) {
    if (n <= static_cast<std::int64_t>(b_count_.size())) return;
    const auto sz = static_cast<std::size_t>(n);
    b_count_.resize(sz, 0);
    cand_lo_.resize(sz, std::numeric_limits<std::int64_t>::min());
    cand_hi_.resize(sz, std::numeric_limits<std::int64_t>::max());
  }

  std::int64_t a_, b_, step_;
  std::vector<std::int64_t> b_count_;
  std::vector<std::int64_t> cand_lo_;
  std::vector<std::int64_t> cand_hi_;
};

std::uint64_t file_size_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return static_cast<std::uint64_t>(in.tellg());
}

Plan run_pass1(const std::string& path, const StreamDistillConfig& cfg) {
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kDistill,
                                  "distill.pass1");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  trace::TraceReadOptions opts;
  opts.mode = trace::ReadMode::kSalvage;
  trace::TraceStreamReader reader(in, opts);

  Plan plan;
  plan.header_bytes = reader.header_bytes();
  plan.file_size = reader.stream_size().value_or(0);

  std::optional<LatticeBuilder> lattice;
  WindowPlan cur;
  bool window_open = false;
  sim::TimePoint window_first{};

  sim::status::StatusBoard* board =
      cfg.status != nullptr && cfg.status->enabled() ? cfg.status : nullptr;
  if (board != nullptr) board->set_phase("plan");
  std::uint64_t reported = 0;

  trace::TraceRecord rec;
  while (reader.next(&rec)) {
    ++plan.records_streamed;
    if (board != nullptr && (plan.records_streamed & 0xFFFFu) == 0) {
      board->add_records_streamed(plan.records_streamed - reported);
      reported = plan.records_streamed;
      board->maybe_publish();
    }
    const sim::TimePoint t = trace::record_time(rec);
    const bool marker = std::holds_alternative<trace::LostRecords>(rec);
    if (!plan.any_records) {
      plan.any_records = true;
      plan.t0 = t.time_since_epoch().count();
      lattice.emplace(plan.t0, cfg.distill.window, cfg.distill.step);
    }
    plan.t_end = t.time_since_epoch().count();

    if (!window_open) {
      cur = WindowPlan{};
      cur.begin = plan.windows.empty() ? plan.header_bytes
                                       : reader.record_frame_offset();
      window_first = t;
      window_open = true;
    } else if (!marker && t >= window_first + cfg.span) {
      // This record's frame starts the next window; everything before it
      // (including any damaged bytes a preceding marker accounts for)
      // belongs to the window being closed.
      cur.end = reader.record_frame_offset();
      plan.windows.push_back(cur);
      cur = WindowPlan{};
      cur.begin = reader.record_frame_offset();
      window_first = t;
    }

    ++cur.records;
    if (marker) {
      cur.damaged = true;
    } else if (const auto* p = std::get_if<trace::PacketRecord>(&rec)) {
      if (is_echo_sent(*p)) {
        ++cur.sent;
        ++plan.echoes_total;
      } else if (is_echo_reply(*p)) {
        ++cur.replies;
        ++plan.replies_total;
        lattice->add_reply(t.time_since_epoch().count(), p->icmp_seq);
      }
    }
  }
  if (window_open) {
    cur.end = reader.next_frame_offset();
    plan.windows.push_back(cur);
  }
  if (board != nullptr && plan.records_streamed > reported) {
    board->add_records_streamed(plan.records_streamed - reported);
    board->maybe_publish();
  }
  plan.report = reader.report();
  if (plan.file_size == 0) plan.file_size = reader.next_frame_offset();

  // Output step count, matching assemble_replay's loop bound.
  std::size_t steps = 0;
  if (plan.any_records && plan.t_end > plan.t0) {
    const std::int64_t d = plan.t_end - plan.t0;
    const std::int64_t s = cfg.distill.step.count();
    steps = static_cast<std::size_t>((d + s - 1) / s);
  }
  if (lattice) {
    lattice->finalize(steps, plan.echoes_total, &plan);
  } else {
    plan.loss_b.assign(steps, 0);
    plan.loss_lo.assign(steps, -1);
    plan.loss_hi.assign(steps, 0);
  }
  return plan;
}

/// Decides which windows keep their echo buffers, in window-index order so
/// the plan is identical for every thread count and schedule.
void apply_shed_plan(const MemoryBudget& budget, Plan* plan,
                     std::uint64_t* retained_out) {
  std::uint64_t retained = 0;
  const unsigned inflight = std::max(1u, budget.max_inflight);
  const std::uint64_t window_cap =
      budget.bytes == 0 ? 0 : budget.bytes / inflight;
  for (WindowPlan& w : plan->windows) {
    const std::uint64_t need = retained_bytes_of(w);
    if (budget.bytes != 0 &&
        (need > window_cap || retained + need > budget.bytes)) {
      w.shed = true;
      continue;
    }
    retained += need;
  }
  *retained_out = retained;
}

// ===========================================================================
// Journal encode/decode.
// ===========================================================================

std::uint32_t journal_fingerprint(const std::string& path,
                                  std::uint64_t file_size,
                                  const StreamDistillConfig& cfg) {
  std::string blob;
  put<std::uint64_t>(blob, file_size);
  // Identity of the container header (magic, version, schema, count).
  std::ifstream in(path, std::ios::binary);
  char head[4096];
  in.read(head, sizeof(head));
  const auto got = static_cast<std::size_t>(std::max<std::streamsize>(
      0, in.gcount()));
  put<std::uint32_t>(blob, sim::crc32c(head, got));
  // Everything the plan depends on.  Thread count is deliberately absent:
  // a resume on a different machine must still be byte-identical.
  put<std::int64_t>(blob, cfg.distill.window.count());
  put<std::int64_t>(blob, cfg.distill.step.count());
  put<double>(blob, cfg.distill.max_loss);
  put<std::int64_t>(blob, cfg.span.count());
  put<std::uint64_t>(blob, cfg.budget.bytes);
  put<std::uint32_t>(blob, cfg.budget.max_inflight);
  return sim::crc32c(blob.data(), blob.size());
}

std::string encode_plan(const Plan& plan) {
  std::string p;
  // The layout carries the trace format version twice: here and in the
  // read report below.
  put<std::uint16_t>(p, plan.report.version);
  put<std::uint64_t>(p, plan.header_bytes);
  put<std::uint64_t>(p, plan.file_size);
  const trace::TraceReadReport& r = plan.report;
  put<std::uint16_t>(p, r.version);
  put<std::uint8_t>(p, static_cast<std::uint8_t>(r.mode));
  for (const std::uint64_t v :
       {r.records_expected, r.records_read, r.records_skipped,
        r.records_salvaged, r.crc_failures, r.unknown_tags, r.resync_scans,
        r.bytes_scanned, r.lost_markers_synthesized}) {
    put<std::uint64_t>(p, v);
  }
  put<std::uint8_t>(p, r.truncated ? 1 : 0);
  put<std::uint8_t>(p, plan.any_records ? 1 : 0);
  put<std::int64_t>(p, plan.t0);
  put<std::int64_t>(p, plan.t_end);
  put<std::uint64_t>(p, plan.echoes_total);
  put<std::uint64_t>(p, plan.replies_total);
  put<std::uint64_t>(p, plan.records_streamed);
  put<std::uint64_t>(p, plan.loss_b.size());
  for (std::size_t j = 0; j < plan.loss_b.size(); ++j) {
    put<std::int64_t>(p, plan.loss_b[j]);
    put<std::int64_t>(p, plan.loss_lo[j]);
    put<std::int64_t>(p, plan.loss_hi[j]);
  }
  put<std::uint64_t>(p, plan.windows.size());
  for (const WindowPlan& w : plan.windows) {
    for (const std::uint64_t v : {w.begin, w.end, w.records, w.sent,
                                  w.replies}) {
      put<std::uint64_t>(p, v);
    }
    put<std::uint8_t>(p, w.damaged ? 1 : 0);
    put<std::uint8_t>(p, w.shed ? 1 : 0);
  }
  return p;
}

bool decode_plan(std::string_view payload, Plan* plan) {
  sim::io::ByteReader c(payload.data(), payload.size());
  trace::TraceReadReport& r = plan->report;
  (void)c.get<std::uint16_t>();  // the trace version, repeated in r
  plan->header_bytes = c.get<std::uint64_t>();
  plan->file_size = c.get<std::uint64_t>();
  r.version = c.get<std::uint16_t>();
  r.mode = static_cast<trace::ReadMode>(c.get<std::uint8_t>());
  for (std::uint64_t* v :
       {&r.records_expected, &r.records_read, &r.records_skipped,
        &r.records_salvaged, &r.crc_failures, &r.unknown_tags,
        &r.resync_scans, &r.bytes_scanned, &r.lost_markers_synthesized}) {
    *v = c.get<std::uint64_t>();
  }
  r.truncated = c.get<std::uint8_t>() != 0;
  plan->any_records = c.get<std::uint8_t>() != 0;
  plan->t0 = c.get<std::int64_t>();
  plan->t_end = c.get<std::int64_t>();
  plan->echoes_total = c.get<std::uint64_t>();
  plan->replies_total = c.get<std::uint64_t>();
  plan->records_streamed = c.get<std::uint64_t>();
  const auto steps = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(steps, 24)) return false;
  plan->loss_b.resize(steps);
  plan->loss_lo.resize(steps);
  plan->loss_hi.resize(steps);
  for (std::uint64_t j = 0; j < steps; ++j) {
    plan->loss_b[j] = c.get<std::int64_t>();
    plan->loss_lo[j] = c.get<std::int64_t>();
    plan->loss_hi[j] = c.get<std::int64_t>();
  }
  const auto windows = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(windows, 42)) return false;
  plan->windows.resize(windows);
  for (WindowPlan& w : plan->windows) {
    for (std::uint64_t* v : {&w.begin, &w.end, &w.records, &w.sent,
                             &w.replies}) {
      *v = c.get<std::uint64_t>();
    }
    w.damaged = c.get<std::uint8_t>() != 0;
    w.shed = c.get<std::uint8_t>() != 0;
  }
  return c.ok();
}

std::string encode_window(std::uint64_t index, const WindowData& data) {
  std::string p;
  put<std::uint64_t>(p, index);
  put<std::uint64_t>(p, data.n_sent);
  for (std::size_t i = 0; i < data.n_sent; ++i) {
    put<std::uint16_t>(p, data.sent[i].icmp_seq);
    put<std::uint32_t>(p, data.sent[i].ip_bytes);
  }
  put<std::uint64_t>(p, data.n_reply);
  for (std::size_t i = 0; i < data.n_reply; ++i) {
    put<std::int64_t>(p, data.replies[i].at.time_since_epoch().count());
    put<std::int64_t>(p, data.replies[i].rtt.count());
    put<std::uint16_t>(p, data.replies[i].icmp_seq);
  }
  return p;
}

bool decode_window(std::string_view payload, std::uint64_t* index,
                   WindowData* data) {
  sim::io::ByteReader c(payload.data(), payload.size());
  *index = c.get<std::uint64_t>();
  const auto n_sent = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(n_sent, 6)) return false;
  data->n_sent = static_cast<std::size_t>(n_sent);
  data->sent = std::make_unique<EchoSent[]>(data->n_sent);
  for (std::size_t i = 0; i < data->n_sent; ++i) {
    data->sent[i].icmp_seq = c.get<std::uint16_t>();
    data->sent[i].ip_bytes = c.get<std::uint32_t>();
  }
  const auto n_reply = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(n_reply, 18)) return false;
  data->n_reply = static_cast<std::size_t>(n_reply);
  data->replies = std::make_unique<EchoReply[]>(data->n_reply);
  for (std::size_t i = 0; i < data->n_reply; ++i) {
    data->replies[i].at =
        sim::TimePoint{sim::Duration{c.get<std::int64_t>()}};
    data->replies[i].rtt = sim::Duration{c.get<std::int64_t>()};
    data->replies[i].icmp_seq = c.get<std::uint16_t>();
  }
  return c.ok();
}

/// Append-side journal handle over the durable write plane
/// (sim/io/durable.hpp).  I/O failure degrades to not-journaling
/// (checkpointing is an optimization; the distillation must not die for
/// it), truncating back so a failed append never masquerades as a
/// committed frame, and the degradation is reported so drivers can flag
/// the run non-resumable.
class JournalWriter {
 public:
  void open(const std::string& path, std::uint32_t fingerprint,
            sim::io::FaultPlan* plan) {
    // Window frames land at task-pool cadence; periodic fdatasync bounds
    // the resumable-progress loss without a sync per window.
    sim::io::AppendJournalWriter::Options options;
    options.plan = plan;
    const sim::io::IoResult r = writer_.open_fresh(
        path, sim::io::journal_header(kJournal, fingerprint), options);
    if (!r.ok) note_degraded();
  }

  void append(std::uint8_t type, const std::string& payload) {
    std::string frame;
    sim::io::append_frame(frame, type, payload);
    std::lock_guard<std::mutex> lock(mu_);
    if (!writer_.is_open()) return;
    const sim::io::IoResult r = writer_.append(frame);
    if (!r.ok) note_degraded();
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!writer_.is_open()) return;
    const sim::io::IoResult r = writer_.close();
    if (!r.ok) note_degraded();
  }

  /// True once any checkpoint write failed; the run is complete but not
  /// resumable past the journal's intact prefix.
  bool degraded() const { return writer_.degraded(); }

 private:
  void note_degraded() {
    sim::io::note_degraded_plane("distill-checkpoint", writer_.last_error());
  }

  sim::io::AppendJournalWriter writer_;
  std::mutex mu_;
};

/// Tolerant journal read: header + fingerprint gate, then every frame that
/// checksums.  Never throws; anything suspect is simply not reused.
struct JournalContents {
  bool have_plan = false;
  Plan plan;
  std::map<std::uint64_t, WindowData> windows;
};

JournalContents parse_journal_bytes(std::string_view bytes,
                                    const std::uint32_t* fingerprint) {
  JournalContents out;
  sim::io::scan_journal(
      bytes, kJournal, fingerprint,
      [&](std::uint8_t type, std::string_view payload) {
        if (type == kFramePlan) {
          Plan plan;
          if (!decode_plan(payload, &plan)) return false;
          out.plan = std::move(plan);
          out.have_plan = true;
          return true;
        }
        std::uint64_t index = 0;
        WindowData data;
        if (type != kFrameWindow || !decode_window(payload, &index, &data)) {
          return false;
        }
        out.windows[index] = std::move(data);
        return true;
      });
  return out;
}

JournalContents read_journal(const std::string& path,
                             std::uint32_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return JournalContents{};
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return parse_journal_bytes(bytes, &fingerprint);
}

// ===========================================================================
// Pass 2: per-window echo extraction from the window's byte range.
// ===========================================================================

/// std::istream view over [offset, offset+length) of a file, so a window
/// task re-reads exactly its frames and nothing else.
class BoundedFileBuf : public std::streambuf {
 public:
  BoundedFileBuf(const std::string& path, std::uint64_t offset,
                 std::uint64_t length)
      : in_(path, std::ios::binary), remaining_(length) {
    if (in_) in_.seekg(static_cast<std::streamoff>(offset));
  }
  bool ok() const { return static_cast<bool>(in_); }

 protected:
  int_type underflow() override {
    if (remaining_ == 0) return traits_type::eof();
    const auto want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(sizeof(buf_), remaining_));
    in_.read(buf_, want);
    const auto got = in_.gcount();
    if (got <= 0) return traits_type::eof();
    remaining_ -= static_cast<std::uint64_t>(got);
    setg(buf_, buf_, buf_ + got);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  std::ifstream in_;
  std::uint64_t remaining_;
  char buf_[64 * 1024];
};

/// Re-reads one window's byte range and extracts its echo projections into
/// exactly-sized buffers (capacities come from the pass-1 plan, so there
/// is no growth and no over-allocation).  Returns false on a plan/parse
/// mismatch, which the caller treats as a shed window -- never an abort.
bool extract_window(const std::string& path, const WindowPlan& w,
                    WindowData* out) {
  BoundedFileBuf buf(path, w.begin, w.end - w.begin);
  if (!buf.ok()) return false;
  std::istream in(&buf);
  trace::TraceStreamReader reader(
      in, trace::TraceStreamReader::FrameRange{}, w.begin);

  out->n_sent = 0;
  out->n_reply = 0;
  out->sent = std::make_unique<EchoSent[]>(static_cast<std::size_t>(w.sent));
  out->replies =
      std::make_unique<EchoReply[]>(static_cast<std::size_t>(w.replies));

  trace::TraceRecord rec;
  while (reader.next(&rec)) {
    const auto* p = std::get_if<trace::PacketRecord>(&rec);
    if (p == nullptr) continue;
    if (is_echo_sent(*p)) {
      if (out->n_sent >= w.sent) return false;
      out->sent[out->n_sent++] = EchoSent{p->icmp_seq, p->ip_bytes};
    } else if (is_echo_reply(*p)) {
      if (out->n_reply >= w.replies) return false;
      out->replies[out->n_reply++] = EchoReply{p->at, p->rtt(), p->icmp_seq};
    }
  }
  return out->n_sent == w.sent && out->n_reply == w.replies;
}

}  // namespace

std::size_t probe_checkpoint_journal(const char* data, std::size_t size) {
  const JournalContents contents =
      parse_journal_bytes(std::string_view(data, size), nullptr);
  return (contents.have_plan ? 1u : 0u) + contents.windows.size();
}

// ===========================================================================
// Driver.
// ===========================================================================

StreamDistillResult StreamDistiller::distill_file(const std::string& path) {
  const std::uint64_t file_size = file_size_of(path);
  const bool journaling = !cfg_.checkpoint_path.empty();
  const std::uint32_t fingerprint =
      journaling ? journal_fingerprint(path, file_size, cfg_) : 0;

  // Reuse a killed run's plan and intact windows when asked to.
  JournalContents resumed;
  if (journaling && cfg_.resume) {
    resumed = read_journal(cfg_.checkpoint_path, fingerprint);
  }

  Plan plan;
  if (resumed.have_plan) {
    plan = std::move(resumed.plan);
  } else {
    plan = run_pass1(path, cfg_);
    std::uint64_t retained = 0;
    apply_shed_plan(cfg_.budget, &plan, &retained);
  }

  // The journal is rewritten fresh on every run: header, plan, then the
  // window frames we can vouch for, with newly computed windows appended
  // as they finish.  A kill at any point leaves a valid prefix.
  JournalWriter journal;
  if (journaling) {
    journal.open(cfg_.checkpoint_path, fingerprint,
                 cfg_.checkpoint_fault_plan);
    journal.append(kFramePlan, encode_plan(plan));
  }

  const std::size_t n_windows = plan.windows.size();
  std::vector<WindowData> window_data(n_windows);
  std::vector<std::uint8_t> window_ok(n_windows, 0);
  std::vector<std::uint8_t> window_resumed(n_windows, 0);

  // Adopt journal windows whose shape matches the plan.
  for (auto& [index, data] : resumed.windows) {
    if (index >= n_windows) continue;
    const WindowPlan& w = plan.windows[index];
    if (w.shed || data.n_sent != w.sent || data.n_reply != w.replies) {
      continue;
    }
    window_data[index] = std::move(data);
    window_ok[index] = 1;
    window_resumed[index] = 1;
    if (journaling) {
      journal.append(kFrameWindow,
                     encode_window(index, window_data[index]));
    }
  }

  // Pass 2: every remaining non-shed window, fanned out.  Extraction is
  // deterministic byte-range parsing, so scheduling cannot change results.
  sim::status::StatusBoard* board =
      cfg_.status != nullptr && cfg_.status->enabled() ? cfg_.status
                                                       : nullptr;
  if (board != nullptr) {
    board->set_units("windows", static_cast<double>(n_windows));
    // Windows the plan shed and windows adopted from the journal are
    // already settled; account them up front so done reaches total.
    for (std::size_t k = 0; k < n_windows; ++k) {
      if (plan.windows[k].shed) {
        board->add_windows_shed(1);
        board->add_units_done(1);
      } else if (window_ok[k]) {
        board->add_windows_distilled(1);
        board->add_units_done(1);
      }
    }
    board->set_phase("distill");
  }
  {
    std::vector<std::function<void()>> tasks;
    for (std::size_t k = 0; k < n_windows; ++k) {
      if (plan.windows[k].shed || window_ok[k]) continue;
      tasks.push_back([&, k, board] {
        if (extract_window(path, plan.windows[k], &window_data[k])) {
          window_ok[k] = 1;
          if (journaling) {
            journal.append(kFrameWindow, encode_window(k, window_data[k]));
          }
        }
        if (board != nullptr) {
          if (window_ok[k]) {
            board->add_windows_distilled(1);
          } else {
            board->add_windows_shed(1);
          }
          board->add_units_done(1);
          board->maybe_publish();
        }
      });
    }
    unsigned threads = cfg_.threads == 0
                           ? std::thread::hardware_concurrency()
                           : cfg_.threads;
    threads = std::max(1u, std::min(threads,
                                    std::max(1u, cfg_.budget.max_inflight)));
    sim::TaskPool pool(threads);
    pool.run_all(std::move(tasks));
  }

  // Merge, in window-index order, through the exact in-memory pipeline.
  if (board != nullptr) board->set_phase("merge");
  StreamDistillResult result;
  result.read_report = plan.report;

  std::uint64_t retained_sent = 0, retained_replies = 0;
  for (std::size_t k = 0; k < n_windows; ++k) {
    if (window_ok[k]) {
      retained_sent += window_data[k].n_sent;
      retained_replies += window_data[k].n_reply;
    }
  }
  std::vector<EchoSent> sent;
  std::vector<EchoReply> replies;
  sent.reserve(static_cast<std::size_t>(retained_sent));
  replies.reserve(static_cast<std::size_t>(retained_replies));

  result.windows.reserve(n_windows);
  for (std::size_t k = 0; k < n_windows; ++k) {
    const WindowPlan& w = plan.windows[k];
    WindowSummary s;
    s.begin_offset = w.begin;
    s.end_offset = w.end;
    s.records = w.records;
    s.sent_echoes = w.sent;
    s.replies = w.replies;
    s.damaged = w.damaged;
    s.shed = w.shed || (!window_ok[k]);
    s.resumed = window_resumed[k] != 0;
    result.windows.push_back(s);

    if (window_ok[k]) {
      WindowData& d = window_data[k];
      sent.insert(sent.end(), d.sent.get(), d.sent.get() + d.n_sent);
      replies.insert(replies.end(), d.replies.get(),
                     d.replies.get() + d.n_reply);
      d = WindowData{};  // free the arena as soon as it is merged
    }
  }

  const auto groups = reconstruct_echo_groups(sent, replies);
  result.distill_stats = Distiller::Stats{};
  const auto estimates =
      estimate_delay_parameters(groups, &result.distill_stats);

  if (plan.any_records) {
    const sim::TimePoint t0{sim::Duration{plan.t0}};
    const sim::TimePoint t_end{sim::Duration{plan.t_end}};
    std::size_t j = 0;
    result.replay = assemble_replay(
        cfg_.distill, estimates, t0, t_end,
        [&](sim::TimePoint, sim::TimePoint, double prev) {
          const std::size_t step_index = j++;
          if (plan.replies_total == 0 || plan.echoes_total == 0) return prev;
          return loss_from_gap(plan.loss_b[step_index],
                               plan.loss_lo[step_index],
                               plan.loss_hi[step_index], prev,
                               cfg_.distill.max_loss);
        },
        &result.distill_stats);
  }

  // Accounting and status.
  if (journaling) journal.close();
  StreamDistillStats& st = result.stats;
  st.checkpoint_degraded = journaling && journal.degraded();
  st.windows_total = n_windows;
  st.records_streamed = plan.records_streamed;
  st.steps = plan.loss_b.size();
  for (const WindowSummary& s : result.windows) {
    if (s.damaged) ++st.windows_damaged;
    if (s.shed) ++st.windows_shed;
    if (s.resumed) ++st.windows_resumed;
  }
  st.retained_bytes =
      retained_sent * sizeof(EchoSent) + retained_replies * sizeof(EchoReply);

  if (st.windows_shed > 0) {
    result.status = DistillStatus::kDegraded;
  } else if (!plan.report.clean()) {
    result.status = DistillStatus::kSalvaged;
  } else {
    result.status = DistillStatus::kOk;
  }

  if (cfg_.metrics != nullptr) {
    sim::MetricsRegistry& m = *cfg_.metrics;
    m.counter(sim::metric::kDistillWindowsTotal) += st.windows_total;
    m.counter(sim::metric::kDistillWindowsSalvaged) += st.windows_damaged;
    m.counter(sim::metric::kDistillWindowsShed) += st.windows_shed;
    m.counter(sim::metric::kDistillWindowsResumed) += st.windows_resumed;
    m.counter(sim::metric::kDistillRecordsStreamed) += st.records_streamed;
    sim::io::export_io_metrics(m);
  }
  return result;
}

}  // namespace tracemod::core
