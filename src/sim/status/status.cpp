#include "sim/status/status.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>

#include "sim/crc32c.hpp"
#include "sim/io/codec.hpp"
#include "sim/io/durable.hpp"
#include "sim/json.hpp"
#include "version.hpp"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace tracemod::sim::status {

// --- TMST codec -------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'T', 'M', 'S', 'T'};
constexpr std::size_t kHeaderSize = 4 + 2 + 4 + 4;  // magic|version|len|crc
constexpr std::uint32_t kMaxPayload = 1u << 20;     // snapshots are tiny

std::string encode_payload(const StatusSnapshot& s) {
  std::string out;
  io::put_str(out, s.tool_version);
  io::put_str(out, s.driver);
  io::put_str(out, s.phase);
  io::put_str(out, s.units_label);
  io::put<std::uint64_t>(out, s.seq);
  io::put<std::uint64_t>(out, s.pid);
  io::put<std::uint64_t>(out, s.published_unix_ms);
  io::put<double>(out, s.units_done);
  io::put<double>(out, s.units_total);
  io::put<std::uint64_t>(out, s.events_dispatched);
  io::put<std::uint64_t>(out, s.retries);
  io::put<std::uint64_t>(out, s.errors);
  io::put<std::uint64_t>(out, s.windows_distilled);
  io::put<std::uint64_t>(out, s.windows_shed);
  io::put<std::uint64_t>(out, s.records_streamed);
  io::put<double>(out, s.sim_seconds);
  io::put<double>(out, s.wall_seconds);
  io::put<double>(out, s.sim_per_wall);
  io::put<double>(out, s.eta_seconds);
  io::put<std::uint8_t>(out, s.finished ? 1 : 0);
  io::put<std::uint32_t>(out, static_cast<std::uint32_t>(s.exit_code));
  return out;
}

/// Decodes every field; the reader's sticky flag reports a short payload.
StatusSnapshot decode_payload(io::ByteReader& c) {
  StatusSnapshot s;
  s.tool_version = c.str();
  s.driver = c.str();
  s.phase = c.str();
  s.units_label = c.str();
  s.seq = c.get<std::uint64_t>();
  s.pid = c.get<std::uint64_t>();
  s.published_unix_ms = c.get<std::uint64_t>();
  s.units_done = c.get<double>();
  s.units_total = c.get<double>();
  s.events_dispatched = c.get<std::uint64_t>();
  s.retries = c.get<std::uint64_t>();
  s.errors = c.get<std::uint64_t>();
  s.windows_distilled = c.get<std::uint64_t>();
  s.windows_shed = c.get<std::uint64_t>();
  s.records_streamed = c.get<std::uint64_t>();
  s.sim_seconds = c.get<double>();
  s.wall_seconds = c.get<double>();
  s.sim_per_wall = c.get<double>();
  s.eta_seconds = c.get<double>();
  s.finished = c.get<std::uint8_t>() != 0;
  s.exit_code = static_cast<std::int32_t>(c.get<std::uint32_t>());
  return s;
}

std::uint64_t current_pid() {
#if defined(_WIN32)
  return static_cast<std::uint64_t>(_getpid());
#else
  return static_cast<std::uint64_t>(::getpid());
#endif
}

std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<std::uint8_t> encode_status(const StatusSnapshot& snap) {
  const std::string payload = encode_payload(snap);
  std::string out(kMagic, sizeof(kMagic));
  out.reserve(kHeaderSize + payload.size());
  io::put<std::uint16_t>(out, kStatusFormatVersion);
  io::put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  io::put<std::uint32_t>(out, crc32c(payload.data(), payload.size()));
  out += payload;
  return std::vector<std::uint8_t>(out.begin(), out.end());
}

StatusReadResult decode_status(const std::uint8_t* data, std::size_t size) {
  StatusReadResult r;
  r.status = StatusReadStatus::kCorrupt;
  if (size < kHeaderSize) {
    r.message = "file shorter than the TMST header (torn write?)";
    return r;
  }
  if (std::char_traits<char>::compare(reinterpret_cast<const char*>(data),
                                      kMagic, sizeof(kMagic)) != 0) {
    r.message = "bad magic: not a TMST status file";
    return r;
  }
  io::ByteReader header(data + sizeof(kMagic), kHeaderSize - sizeof(kMagic));
  const auto version = header.get<std::uint16_t>();
  if (version != kStatusFormatVersion) {
    r.message = "unsupported TMST version " + std::to_string(version);
    return r;
  }
  const auto len = header.get<std::uint32_t>();
  const auto crc = header.get<std::uint32_t>();
  if (len > kMaxPayload) {
    r.message = "payload length implausible";
    return r;
  }
  if (size != kHeaderSize + len) {
    r.message = "payload truncated: header claims " + std::to_string(len) +
                " bytes, file carries " +
                std::to_string(size - kHeaderSize);
    return r;
  }
  // TMST is one record, not a frame: its CRC covers the payload only.
  if (crc32c(data + kHeaderSize, len) != crc) {
    r.message = "CRC mismatch: snapshot payload is damaged";
    return r;
  }
  io::ByteReader payload(data + kHeaderSize, len, kHeaderSize);
  StatusSnapshot snap = decode_payload(payload);
  if (!payload.done()) {
    r.message = payload.ok() ? "status snapshot has trailing bytes"
                             : "status snapshot truncated mid-field";
    return r;
  }
  r.snapshot = std::move(snap);
  r.status = StatusReadStatus::kOk;
  return r;
}

StatusReadResult read_status_file(const std::string& path) {
  StatusReadResult r;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    r.status = StatusReadStatus::kMissing;
    r.message = "no status file at " + path;
    return r;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return decode_status(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
}

void write_status_json(std::ostream& out, const StatusSnapshot& s) {
  out << "{\"schema\": \"" << kStatusSchema << "\"";
  out << ",\n \"tool_version\": \"" << json_escape(s.tool_version) << "\"";
  out << ",\n \"driver\": \"" << json_escape(s.driver) << "\"";
  out << ",\n \"phase\": \"" << json_escape(s.phase) << "\"";
  out << ",\n \"seq\": " << s.seq;
  out << ",\n \"pid\": " << s.pid;
  out << ",\n \"published_unix_ms\": " << s.published_unix_ms;
  out << ",\n \"units\": {\"label\": \"" << json_escape(s.units_label)
      << "\", \"done\": " << json_double(s.units_done)
      << ", \"total\": " << json_double(s.units_total) << "}";
  out << ",\n \"events_dispatched\": " << s.events_dispatched;
  out << ",\n \"retries\": " << s.retries;
  out << ",\n \"errors\": " << s.errors;
  out << ",\n \"windows_distilled\": " << s.windows_distilled;
  out << ",\n \"windows_shed\": " << s.windows_shed;
  out << ",\n \"records_streamed\": " << s.records_streamed;
  out << ",\n \"sim_seconds\": " << json_double(s.sim_seconds);
  out << ",\n \"wall_seconds\": " << json_double(s.wall_seconds);
  out << ",\n \"sim_per_wall\": " << json_double(s.sim_per_wall);
  if (s.eta_seconds >= 0.0) {
    out << ",\n \"eta_seconds\": " << json_double(s.eta_seconds);
  } else {
    out << ",\n \"eta_seconds\": null";
  }
  out << ",\n \"finished\": " << (s.finished ? "true" : "false");
  if (s.finished) {
    out << ",\n \"exit_code\": " << s.exit_code;
  } else {
    out << ",\n \"exit_code\": null";
  }
  out << "}\n";
}

// --- StatusBoard ------------------------------------------------------------

bool StatusBoard::configure(Config cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(cfg.path);
  driver_ = std::move(cfg.driver);
  min_interval_s_ = cfg.min_publish_interval_s;
  wall_start_ = std::chrono::steady_clock::now();
  phase_ = "starting";
  enabled_.store(true, std::memory_order_relaxed);
  publish_locked();
  if (write_failures_.load(std::memory_order_relaxed) > 0) {
    enabled_.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void StatusBoard::set_phase(const std::string& phase) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
  publish_locked();
}

void StatusBoard::set_units(const std::string& label, double total) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  units_label_ = label;
  units_total_ = total;
}

void StatusBoard::set_units_follow_sim(bool follow) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  units_follow_sim_ = follow;
}

void StatusBoard::add_units_done(std::uint64_t n) {
  units_done_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_retries(std::uint64_t n) {
  retries_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_errors(std::uint64_t n) {
  errors_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_windows_distilled(std::uint64_t n) {
  windows_distilled_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_windows_shed(std::uint64_t n) {
  windows_shed_.fetch_add(n, std::memory_order_relaxed);
}
void StatusBoard::add_records_streamed(std::uint64_t n) {
  records_streamed_.fetch_add(n, std::memory_order_relaxed);
}

void StatusBoard::note_dispatch(std::uint64_t delta_events,
                                double sim_now_s) {
  events_.fetch_add(delta_events, std::memory_order_relaxed);
  // Monotone max across concurrently heartbeating worlds: the published
  // virtual clock never runs backwards.
  std::uint64_t cur = sim_now_bits_.load(std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(sim_now_s);
  while (sim_now_s > std::bit_cast<double>(cur) &&
         !sim_now_bits_.compare_exchange_weak(cur, bits,
                                              std::memory_order_relaxed)) {
  }
  maybe_publish();
}

void StatusBoard::maybe_publish() {
  if (!enabled()) return;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(min_interval_s_ * 1e9);
  if (now_ns - last_publish_ns_.load(std::memory_order_relaxed) <
      interval_ns) {
    return;
  }
  // try_lock, not lock: a worker thread must never block on a slow disk.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (now_ns - last_publish_ns_.load(std::memory_order_relaxed) <
      interval_ns) {
    return;  // lost the race to a concurrent publisher
  }
  publish_locked();
}

void StatusBoard::publish_now() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked();
}

void StatusBoard::finish(int exit_code) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
  exit_code_ = exit_code;
  if (phase_ != "finished") phase_ = "finished";
  publish_locked();
}

StatusSnapshot StatusBoard::peek() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_snapshot_locked();
}

StatusSnapshot StatusBoard::build_snapshot_locked() const {
  StatusSnapshot s;
  s.tool_version = kToolVersion;
  s.driver = driver_;
  s.phase = phase_;
  s.units_label = units_label_;
  s.seq = seq_.load(std::memory_order_relaxed) + 1;
  s.pid = current_pid();
  s.published_unix_ms = unix_now_ms();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start_;
  s.wall_seconds = wall.count();
  s.sim_seconds =
      std::bit_cast<double>(sim_now_bits_.load(std::memory_order_relaxed));
  s.units_total = units_total_;
  s.units_done = units_follow_sim_
                     ? (units_total_ > 0.0
                            ? std::min(s.sim_seconds, units_total_)
                            : s.sim_seconds)
                     : static_cast<double>(
                           units_done_.load(std::memory_order_relaxed));
  s.events_dispatched = events_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.windows_distilled = windows_distilled_.load(std::memory_order_relaxed);
  s.windows_shed = windows_shed_.load(std::memory_order_relaxed);
  s.records_streamed = records_streamed_.load(std::memory_order_relaxed);
  if (s.wall_seconds > 0.0 && s.sim_seconds > 0.0) {
    s.sim_per_wall = s.sim_seconds / s.wall_seconds;
  }
  s.finished = finished_;
  s.exit_code = exit_code_;
  if (finished_) {
    s.eta_seconds = 0.0;
  } else if (s.units_total > 0.0 && s.units_done > 0.0 &&
             s.units_done <= s.units_total) {
    s.eta_seconds =
        s.wall_seconds * (s.units_total - s.units_done) / s.units_done;
  }
  return s;
}

void StatusBoard::publish_locked() {
  const StatusSnapshot snap = build_snapshot_locked();
  const std::vector<std::uint8_t> image = encode_status(snap);
  // Atomic replace via a pid/seq-unique tmp: readers see either the
  // previous complete snapshot or this one, never a mix, two boards
  // publishing to one path never clobber each other's tmp, and tmp files
  // orphaned by a killed run are swept on the next writer's open.
  // Degradation policy: a failed publish drops this snapshot (counted in
  // status.publish_failed) and the run continues -- the status plane must
  // never abort or block the work it is describing.
  const io::IoResult r =
      io::write_file_atomic(path_, std::string_view(reinterpret_cast<const char*>(
                                                        image.data()),
                                                    image.size()));
  if (!r.ok) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    io::io_counters().status_publish_failures.fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  seq_.fetch_add(1, std::memory_order_relaxed);
  last_publish_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count(),
                         std::memory_order_relaxed);
}

}  // namespace tracemod::sim::status
