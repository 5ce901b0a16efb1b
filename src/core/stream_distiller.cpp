#include "core/stream_distiller.hpp"

#include "sim/io/durable.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <variant>

#include "sim/crc32c.hpp"
#include "sim/io/codec.hpp"
#include "sim/perf/perf.hpp"
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
// Plan: everything the scan learns about the corpus.
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
  std::uint64_t records_streamed = 0;
  LossLattice loss;  ///< final after the scan, one entry per output step
  std::vector<WindowPlan> windows;
};

/// Echo projections: of one window (a journal frame), or of every window a
/// scan kept, in index order.
struct WindowData {
  std::vector<EchoSent> sent;
  std::vector<EchoReply> replies;
};

std::uint64_t retained_bytes_of(const WindowPlan& w) {
  return w.sent * sizeof(EchoSent) + w.replies * sizeof(EchoReply);
}

// ===========================================================================
// The scan: one streaming read that produces the plan and keeps every
// window's echo projections the budget allows.  Every reply goes into the
// shared loss lattice (core/distiller.hpp) as it streams past, so loss
// needs no second look at the replies.
// ===========================================================================

std::uint64_t file_size_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return static_cast<std::uint64_t>(in.tellg());
}

struct Scan {
  Plan plan;
  WindowData kept;  ///< the kept windows' projections, in index order
};

Scan scan_corpus(const std::string& path, const StreamDistillConfig& cfg) {
  sim::perf::PerfScope perf_scope(sim::perf::Domain::kDistill,
                                  "distill.scan");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  trace::TraceReadOptions opts;
  opts.mode = trace::ReadMode::kSalvage;
  trace::TraceStreamReader reader(in, opts);

  Scan scan;
  Plan& plan = scan.plan;
  plan.header_bytes = reader.header_bytes();
  plan.file_size = reader.stream_size().value_or(0);

  std::optional<LatticeBuilder> lattice;
  std::uint64_t echoes_sent = 0;
  WindowPlan cur;
  bool window_open = false;
  sim::TimePoint window_first{};
  // The MemoryBudget shed rule, in window-index order: a window sheds when
  // it alone exceeds bytes/max_inflight or when it would push the retained
  // total past bytes.  It looks only at earlier windows, so applying it as
  // each window closes decides exactly what a pass over the finished plan
  // would; and it is monotone in a window's need, so a growing window that
  // would shed stops accumulating at once.
  const std::uint64_t budget = cfg.budget.bytes;
  const std::uint64_t window_cap =
      budget / std::max(1u, cfg.budget.max_inflight);
  std::uint64_t retained = 0;
  const auto sheds = [&](std::uint64_t need) {
    return budget != 0 && (need > window_cap || retained + need > budget);
  };
  // The open window's projections go straight to the end of scan.kept,
  // from these marks on, while it is kept.
  WindowData& kept = scan.kept;
  std::size_t sent_mark = 0, reply_mark = 0;
  bool open_kept = true;
  // Called once cur counts a new echo.
  const auto keep_echo = [&] {
    if (open_kept && sheds(retained_bytes_of(cur))) {
      open_kept = false;
      kept.sent.resize(sent_mark);
      kept.replies.resize(reply_mark);
    }
    return open_kept;
  };
  const auto close_window = [&] {
    cur.shed = !open_kept;
    if (open_kept) retained += retained_bytes_of(cur);
    plan.windows.push_back(cur);
    sent_mark = kept.sent.size();
    reply_mark = kept.replies.size();
    open_kept = true;
  };

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
      lattice.emplace(t, cfg.distill);
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
      close_window();
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
        ++echoes_sent;
        if (keep_echo()) {
          kept.sent.push_back(EchoSent{p->icmp_seq, p->ip_bytes});
        }
      } else if (is_echo_reply(*p)) {
        ++cur.replies;
        lattice->add_reply(t, p->icmp_seq);
        if (keep_echo()) {
          kept.replies.push_back(EchoReply{p->at, p->rtt(), p->icmp_seq});
        }
      }
    }
  }
  if (window_open) {
    cur.end = reader.next_frame_offset();
    close_window();
  }
  if (board != nullptr && plan.records_streamed > reported) {
    board->add_records_streamed(plan.records_streamed - reported);
    board->maybe_publish();
  }
  plan.report = reader.report();
  if (plan.file_size == 0) plan.file_size = reader.next_frame_offset();

  if (lattice) {
    const std::size_t steps =
        step_count(sim::TimePoint{sim::Duration{plan.t0}},
                   sim::TimePoint{sim::Duration{plan.t_end}},
                   cfg.distill.step);
    plan.loss = std::move(*lattice).finalize(steps, echoes_sent);
  }
  return scan;
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
  const LossLattice& loss = plan.loss;
  put<std::uint64_t>(p, loss.echoes_sent);
  put<std::uint64_t>(p, loss.replies);
  put<std::uint64_t>(p, plan.records_streamed);
  put<std::uint64_t>(p, loss.in_window.size());
  for (std::size_t j = 0; j < loss.in_window.size(); ++j) {
    put<std::int64_t>(p, loss.in_window[j]);
    put<std::int64_t>(p, loss.seq_lo[j]);
    put<std::int64_t>(p, loss.seq_hi[j]);
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
  LossLattice& loss = plan->loss;
  loss.echoes_sent = c.get<std::uint64_t>();
  loss.replies = c.get<std::uint64_t>();
  plan->records_streamed = c.get<std::uint64_t>();
  const auto steps = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(steps, 24)) return false;
  loss.in_window.resize(steps);
  loss.seq_lo.resize(steps);
  loss.seq_hi.resize(steps);
  for (std::uint64_t j = 0; j < steps; ++j) {
    loss.in_window[j] = c.get<std::int64_t>();
    loss.seq_lo[j] = c.get<std::int64_t>();
    loss.seq_hi[j] = c.get<std::int64_t>();
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

std::string encode_window(std::uint64_t index,
                          std::span<const EchoSent> sent,
                          std::span<const EchoReply> replies) {
  std::string p;
  put<std::uint64_t>(p, index);
  put<std::uint64_t>(p, sent.size());
  for (const EchoSent& e : sent) {
    put<std::uint16_t>(p, e.icmp_seq);
    put<std::uint32_t>(p, e.ip_bytes);
  }
  put<std::uint64_t>(p, replies.size());
  for (const EchoReply& r : replies) {
    put<std::int64_t>(p, r.at.time_since_epoch().count());
    put<std::int64_t>(p, r.rtt.count());
    put<std::uint16_t>(p, r.icmp_seq);
  }
  return p;
}

bool decode_window(std::string_view payload, std::uint64_t* index,
                   WindowData* data) {
  sim::io::ByteReader c(payload.data(), payload.size());
  *index = c.get<std::uint64_t>();
  const auto n_sent = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(n_sent, 6)) return false;
  data->sent.resize(static_cast<std::size_t>(n_sent));
  for (EchoSent& e : data->sent) {
    e.icmp_seq = c.get<std::uint16_t>();
    e.ip_bytes = c.get<std::uint32_t>();
  }
  const auto n_reply = c.get<std::uint64_t>();
  if (!c.ok() || !c.fits(n_reply, 18)) return false;
  data->replies.resize(static_cast<std::size_t>(n_reply));
  for (EchoReply& r : data->replies) {
    r.at = sim::TimePoint{sim::Duration{c.get<std::int64_t>()}};
    r.rtt = sim::Duration{c.get<std::int64_t>()};
    r.icmp_seq = c.get<std::uint16_t>();
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
    // Window frames land back to back; periodic fdatasync bounds the
    // resumable-progress loss without a sync per window.
    sim::io::AppendJournalWriter::Options options;
    options.plan = plan;
    const sim::io::IoResult r = writer_.open_fresh(
        path, sim::io::journal_header(kJournal, fingerprint), options);
    if (!r.ok) note_degraded();
  }

  void append(std::uint8_t type, const std::string& payload) {
    std::string frame;
    sim::io::append_frame(frame, type, payload);
    if (!writer_.is_open()) return;
    const sim::io::IoResult r = writer_.append(frame);
    if (!r.ok) note_degraded();
  }

  void close() {
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

/// Whether a journal window frame is window `w` intact: the plan keeps the
/// window and the frame has its shape.
bool holds(const WindowPlan& w, const WindowData& frame) {
  return !w.shed && frame.sent.size() == w.sent &&
         frame.replies.size() == w.replies;
}

/// Whether a journal holds its plan and every window the plan keeps.
bool is_whole(const JournalContents& journal) {
  if (!journal.have_plan) return false;
  const std::vector<WindowPlan>& windows = journal.plan.windows;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    if (windows[k].shed) continue;
    const auto it = journal.windows.find(k);
    if (it == journal.windows.end() || !holds(windows[k], it->second)) {
      return false;
    }
  }
  return true;
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

  // Reuse a killed run's journal when asked to.  A journal that holds the
  // plan and every window the plan keeps stands in for the read.  Anything
  // less, and the corpus is scanned afresh: the journal then only marks
  // the windows it held as resumed.
  JournalContents resumed;
  if (journaling && cfg_.resume) {
    resumed = read_journal(cfg_.checkpoint_path, fingerprint);
  }
  Scan scan;
  const bool whole = is_whole(resumed);
  if (whole) {
    scan.plan = std::move(resumed.plan);
    for (auto& [index, data] : resumed.windows) {  // in index order
      if (index >= scan.plan.windows.size() ||
          !holds(scan.plan.windows[index], data)) {
        continue;
      }
      scan.kept.sent.insert(scan.kept.sent.end(), data.sent.begin(),
                            data.sent.end());
      scan.kept.replies.insert(scan.kept.replies.end(), data.replies.begin(),
                               data.replies.end());
      data = WindowData{};
    }
  } else {
    scan = scan_corpus(path, cfg_);
  }
  const Plan& plan = scan.plan;
  const std::size_t n_windows = plan.windows.size();

  sim::status::StatusBoard* board =
      cfg_.status != nullptr && cfg_.status->enabled() ? cfg_.status
                                                       : nullptr;
  if (board != nullptr) {
    // Every window is settled once the scan (or the journal) is in hand.
    board->set_units("windows", static_cast<double>(n_windows));
    for (const WindowPlan& w : plan.windows) {
      if (w.shed) {
        board->add_windows_shed(1);
      } else {
        board->add_windows_distilled(1);
      }
    }
    board->add_units_done(n_windows);
    board->set_phase("distill");
  }

  // The journal is rewritten fresh on every run: header, plan, then every
  // kept window in index order -- a function of the input and config
  // alone.  A kill at any point leaves a valid prefix.
  JournalWriter journal;
  if (journaling) {
    journal.open(cfg_.checkpoint_path, fingerprint,
                 cfg_.checkpoint_fault_plan);
    journal.append(kFramePlan, encode_plan(plan));
    std::size_t sent_at = 0, reply_at = 0;  // a window's place in kept
    for (std::size_t k = 0; k < n_windows; ++k) {
      const WindowPlan& w = plan.windows[k];
      if (w.shed) continue;
      journal.append(
          kFrameWindow,
          encode_window(k, std::span(scan.kept.sent).subspan(sent_at, w.sent),
                        std::span(scan.kept.replies)
                            .subspan(reply_at, w.replies)));
      sent_at += w.sent;
      reply_at += w.replies;
    }
  }

  // Merge, in window-index order, through the exact in-memory pipeline:
  // the kept arrays hold the kept windows in index order already.
  if (board != nullptr) board->set_phase("merge");
  StreamDistillResult result;
  result.read_report = plan.report;
  const std::vector<EchoSent> sent = std::move(scan.kept.sent);
  const std::vector<EchoReply> replies = std::move(scan.kept.replies);

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
    s.shed = w.shed;
    // A whole journal supplied every kept window; after a scan, only the
    // journal's intact frames count.
    const auto it = resumed.windows.find(k);
    s.resumed = whole ? !w.shed
                      : it != resumed.windows.end() && holds(w, it->second);
    result.windows.push_back(s);
  }

  const auto groups = reconstruct_echo_groups(sent, replies);
  result.distill_stats = Distiller::Stats{};
  const auto estimates =
      estimate_delay_parameters(groups, &result.distill_stats);

  if (plan.any_records) {
    const sim::TimePoint t0{sim::Duration{plan.t0}};
    const sim::TimePoint t_end{sim::Duration{plan.t_end}};
    std::size_t step = 0;
    result.replay = assemble_replay(
        cfg_.distill, estimates, t0, t_end,
        [&](sim::TimePoint, sim::TimePoint, double prev) {
          return plan.loss.loss(step++, prev, cfg_.distill.max_loss);
        },
        &result.distill_stats);
  }

  // Accounting and status.
  if (journaling) journal.close();
  StreamDistillStats& st = result.stats;
  st.checkpoint_degraded = journaling && journal.degraded();
  st.windows_total = n_windows;
  st.records_streamed = plan.records_streamed;
  st.steps = plan.loss.in_window.size();
  for (const WindowSummary& s : result.windows) {
    if (s.damaged) ++st.windows_damaged;
    if (s.shed) ++st.windows_shed;
    if (s.resumed) ++st.windows_resumed;
  }
  st.retained_bytes =
      sent.size() * sizeof(EchoSent) + replies.size() * sizeof(EchoReply);

  if (st.windows_shed > 0) {
    result.status = DistillStatus::kDegraded;
  } else if (!plan.report.clean()) {
    result.status = DistillStatus::kSalvaged;
  } else {
    result.status = DistillStatus::kOk;
  }

  return result;
}

}  // namespace tracemod::core
