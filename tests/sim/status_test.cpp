// The status-plane contract (sim/status/status.hpp, DESIGN.md section 14):
// TMST snapshots round-trip every field through the on-disk format; any
// damage -- truncation, bad magic, CRC-breaking bit flips -- is diagnosed
// as corrupt instead of yielding a wrong snapshot; and the StatusBoard
// publishes atomically, so the file on disk is valid after every publish
// and the last good snapshot survives a kill.
#include "sim/status/status.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/crc32c.hpp"
#include "sim/io/durable.hpp"
#include "sim/io/fault_plan.hpp"
#include "sim/io/file_sink.hpp"

namespace tracemod::sim::status {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_status_" + name;
}

/// Removes `path` and every `<path>.tmp.*` sibling that a publish crashed
/// part-way left next to it.
void remove_with_tmps(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
  std::filesystem::remove(target);
}

StatusSnapshot sample_snapshot() {
  StatusSnapshot s;
  s.tool_version = "0.9.0";
  s.driver = "sweep";
  s.phase = "bench:Wean/web";
  s.units_label = "trials";
  s.seq = 17;
  s.pid = 4242;
  s.published_unix_ms = 1754600000123ull;
  s.units_done = 9.0;
  s.units_total = 24.0;
  s.events_dispatched = 1234567;
  s.retries = 3;
  s.errors = 1;
  s.windows_distilled = 88;
  s.windows_shed = 2;
  s.records_streamed = 99991;
  s.sim_seconds = 512.25;
  s.wall_seconds = 1.75;
  s.sim_per_wall = 292.71;
  s.eta_seconds = 2.9;
  s.finished = true;
  s.exit_code = 5;
  return s;
}

void expect_equal(const StatusSnapshot& a, const StatusSnapshot& b) {
  EXPECT_EQ(a.tool_version, b.tool_version);
  EXPECT_EQ(a.driver, b.driver);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.units_label, b.units_label);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.pid, b.pid);
  EXPECT_EQ(a.published_unix_ms, b.published_unix_ms);
  EXPECT_EQ(a.units_done, b.units_done);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.windows_distilled, b.windows_distilled);
  EXPECT_EQ(a.windows_shed, b.windows_shed);
  EXPECT_EQ(a.records_streamed, b.records_streamed);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.sim_per_wall, b.sim_per_wall);
  EXPECT_EQ(a.eta_seconds, b.eta_seconds);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.exit_code, b.exit_code);
}

TEST(StatusFormat, RoundTripPreservesEveryField) {
  const StatusSnapshot want = sample_snapshot();
  const std::vector<std::uint8_t> bytes = encode_status(want);
  // Pinned bytes: the TMST image a status client reads.
  EXPECT_EQ(bytes.size(), 185u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0xc8685bc1u);
  const StatusReadResult read = decode_status(bytes.data(), bytes.size());
  ASSERT_EQ(read.status, StatusReadStatus::kOk) << read.message;
  expect_equal(read.snapshot, want);
}

TEST(StatusFormat, MissingFileIsDistinguishedFromDamage) {
  const StatusReadResult read = read_status_file(tmp("nonexistent.status"));
  EXPECT_EQ(read.status, StatusReadStatus::kMissing);
}

TEST(StatusFormat, TruncationAtEveryLengthIsCorruptNeverWrong) {
  const std::vector<std::uint8_t> bytes = encode_status(sample_snapshot());
  // A torn write can chop the file anywhere; no prefix may ever decode.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const StatusReadResult read = decode_status(bytes.data(), keep);
    EXPECT_EQ(read.status, StatusReadStatus::kCorrupt) << "keep=" << keep;
    EXPECT_FALSE(read.message.empty());
  }
}

TEST(StatusFormat, BadMagicAndVersionAreRejected) {
  std::vector<std::uint8_t> bytes = encode_status(sample_snapshot());
  std::vector<std::uint8_t> wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_EQ(decode_status(wrong_magic.data(), wrong_magic.size()).status,
            StatusReadStatus::kCorrupt);

  std::vector<std::uint8_t> wrong_version = bytes;
  wrong_version[4] = 0xEE;  // u16 version little-endian low byte
  EXPECT_EQ(decode_status(wrong_version.data(), wrong_version.size()).status,
            StatusReadStatus::kCorrupt);
}

TEST(StatusFormat, PayloadBitFlipsAreCaughtByTheCrc) {
  const std::vector<std::uint8_t> bytes = encode_status(sample_snapshot());
  const std::size_t header = bytes.size() > 14 ? 14 : 0;
  for (std::size_t i = header; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[i] ^= 0x40;
    const StatusReadResult read = decode_status(damaged.data(),
                                                damaged.size());
    EXPECT_EQ(read.status, StatusReadStatus::kCorrupt) << "byte " << i;
  }
}

TEST(StatusFormat, JsonCarriesTheSchemaAndEveryCounter) {
  std::ostringstream out;
  write_status_json(out, sample_snapshot());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"tracemod-status-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool_version\": \"0.9.0\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"bench:Wean/web\""), std::string::npos);
  EXPECT_NE(json.find("\"events_dispatched\": 1234567"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\": 5"), std::string::npos);
}

TEST(StatusFormat, UnknownEtaAndUnfinishedExitCodeAreJsonNull) {
  StatusSnapshot s = sample_snapshot();
  s.eta_seconds = -1.0;
  s.finished = false;
  std::ostringstream out;
  write_status_json(out, s);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"eta_seconds\": null"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\": null"), std::string::npos);
}

TEST(StatusFormat, NonFiniteNumbersAreJsonNull) {
  // A status file comes from outside the process: a CRC-valid snapshot can
  // still carry NaN or Inf, which JSON cannot spell.
  StatusSnapshot s = sample_snapshot();
  s.sim_per_wall = std::numeric_limits<double>::quiet_NaN();
  s.wall_seconds = std::numeric_limits<double>::infinity();
  const std::string path = tmp("nonfinite.status");
  const std::vector<std::uint8_t> bytes = encode_status(s);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const StatusReadResult read = read_status_file(path);
  ASSERT_EQ(read.status, StatusReadStatus::kOk) << read.message;
  std::ostringstream out;
  write_status_json(out, read.snapshot);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sim_per_wall\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
}

TEST(StatusBoardContract, DisabledBoardIsInert) {
  StatusBoard board;
  EXPECT_FALSE(board.enabled());
  // Every hook must be a no-op on the null/default path.
  board.set_phase("x");
  board.set_units("trials", 10);
  board.add_units_done(1);
  board.note_dispatch(100, 1.0);
  board.maybe_publish();
  board.publish_now();
  board.finish(0);
  EXPECT_EQ(board.publishes(), 0u);
}

TEST(StatusBoardContract, UnwritablePathLeavesTheBoardDisabled) {
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = tmp("no_such_dir") + "/deep/run.status";
  cfg.driver = "test";
  EXPECT_FALSE(board.configure(cfg));
  EXPECT_FALSE(board.enabled());
}

TEST(StatusBoardContract, CountersFlowIntoThePublishedSnapshot) {
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = tmp("counters.status");
  cfg.driver = "sweep";
  cfg.min_publish_interval_s = 0.0;
  ASSERT_TRUE(board.configure(cfg));
  EXPECT_TRUE(board.enabled());
  EXPECT_EQ(board.publishes(), 1u);  // configure publishes snapshot #1

  board.set_units("trials", 4);
  board.set_phase("bench:Wean/web");  // publishes immediately
  board.add_units_done(2);
  board.add_retries(1);
  board.add_errors(1);
  board.note_dispatch(5000, 123.5);
  board.publish_now();

  const StatusReadResult read = read_status_file(cfg.path);
  ASSERT_EQ(read.status, StatusReadStatus::kOk) << read.message;
  const StatusSnapshot& s = read.snapshot;
  EXPECT_EQ(s.driver, "sweep");
  EXPECT_EQ(s.phase, "bench:Wean/web");
  EXPECT_EQ(s.units_label, "trials");
  EXPECT_EQ(s.units_done, 2.0);
  EXPECT_EQ(s.units_total, 4.0);
  EXPECT_EQ(s.events_dispatched, 5000u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.sim_seconds, 123.5);
  EXPECT_FALSE(s.finished);
  EXPECT_GE(s.seq, 3u);
  EXPECT_EQ(board.write_failures(), 0u);
}

TEST(StatusBoardContract, FinishPublishesTheTerminalSnapshot) {
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = tmp("finish.status");
  cfg.driver = "campus";
  ASSERT_TRUE(board.configure(cfg));
  board.finish(5);

  const StatusReadResult read = read_status_file(cfg.path);
  ASSERT_EQ(read.status, StatusReadStatus::kOk);
  EXPECT_TRUE(read.snapshot.finished);
  EXPECT_EQ(read.snapshot.exit_code, 5);
  EXPECT_EQ(read.snapshot.phase, "finished");
}

TEST(StatusBoardContract, EveryPublishLeavesAValidFileBehind) {
  // The atomic-rename discipline: no matter when a reader (or a kill)
  // lands, the path always holds a complete CRC-valid snapshot.
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = tmp("atomic.status");
  cfg.driver = "distill";
  cfg.min_publish_interval_s = 0.0;
  ASSERT_TRUE(board.configure(cfg));
  board.set_units("windows", 64);
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 64; ++i) {
    board.add_units_done(1);
    board.add_windows_distilled(1);
    board.publish_now();
    const StatusReadResult read = read_status_file(cfg.path);
    ASSERT_EQ(read.status, StatusReadStatus::kOk) << "publish " << i;
    EXPECT_GT(read.snapshot.seq, last_seq);
    last_seq = read.snapshot.seq;
    EXPECT_EQ(read.snapshot.windows_distilled,
              static_cast<std::uint64_t>(i + 1));
  }
  // No stale staging file survives a successful publish.
  std::ifstream tmp_file(cfg.path + ".tmp");
  EXPECT_FALSE(tmp_file.good());
}

TEST(StatusBoardContract, SimClockIsMonotoneAcrossWorlds) {
  // Parallel trial worlds report their own clocks; the published value is
  // the max, never a regression to a younger world's time.
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = tmp("monotone.status");
  cfg.driver = "sweep";
  cfg.min_publish_interval_s = 0.0;
  ASSERT_TRUE(board.configure(cfg));
  board.note_dispatch(10, 50.0);
  board.note_dispatch(10, 12.0);  // younger world finishes later
  board.publish_now();
  const StatusReadResult read = read_status_file(cfg.path);
  ASSERT_EQ(read.status, StatusReadStatus::kOk);
  EXPECT_EQ(read.snapshot.sim_seconds, 50.0);
  EXPECT_EQ(read.snapshot.events_dispatched, 20u);
}

TEST(StatusBoardContract, CrashAtEverySyscallLeavesPreviousOrNewSnapshot) {
  // The acceptance bar for the status plane: kill the publisher at ANY
  // syscall of the publish sequence and a reader must see the previous
  // complete snapshot or the new complete snapshot -- never kCorrupt,
  // never a snapshot with wrong values.
  StatusSnapshot v1 = sample_snapshot();
  v1.seq = 1;
  v1.phase = "previous";
  StatusSnapshot v2 = sample_snapshot();
  v2.seq = 2;
  v2.phase = "next phase with a longer label";
  v2.events_dispatched = 999999999;
  const std::vector<std::uint8_t> img1 = encode_status(v1);
  const std::vector<std::uint8_t> img2 = encode_status(v2);
  const auto view = [](const std::vector<std::uint8_t>& img) {
    return std::string_view(reinterpret_cast<const char*>(img.data()),
                            img.size());
  };

  for (std::uint64_t crash_at = 1; crash_at <= 8; ++crash_at) {
    const std::string path =
        tmp("crash_sweep_" + std::to_string(crash_at) + ".status");
    ASSERT_TRUE(io::write_file_atomic(path, view(img1)).ok);

    io::FaultPlanConfig cfg;
    cfg.seed = 100 + crash_at;
    cfg.crash_at_op = crash_at;
    io::FaultPlan plan(cfg);
    (void)io::write_file_atomic(path, view(img2), &plan);

    const StatusReadResult read = read_status_file(path);
    ASSERT_EQ(read.status, StatusReadStatus::kOk)
        << "crash at op " << crash_at << ": " << read.message;
    ASSERT_TRUE(read.snapshot.seq == 1 || read.snapshot.seq == 2)
        << "crash at op " << crash_at;
    expect_equal(read.snapshot, read.snapshot.seq == 1 ? v1 : v2);
    remove_with_tmps(path);
  }
}

TEST(StatusBoardContract, FailedPublishDropsTheSnapshotNeverAborts) {
  // Degradation policy (DESIGN.md section 15): a status publish that
  // cannot land is dropped and counted; the run itself never aborts and
  // the board keeps trying on later heartbeats.
  namespace fs = std::filesystem;
  const std::string dir = tmp("vanishing_dir");
  fs::create_directory(dir);
  StatusBoard board;
  StatusBoard::Config cfg;
  cfg.path = dir + "/run.status";
  cfg.driver = "sweep";
  cfg.min_publish_interval_s = 0.0;
  ASSERT_TRUE(board.configure(cfg));

  const std::uint64_t failures_before =
      io::io_counters().status_publish_failures.load();
  fs::remove_all(dir);  // the directory disappears mid-run
  board.add_units_done(1);
  board.publish_now();

  EXPECT_TRUE(board.enabled());  // still trying, not aborted
  EXPECT_GE(board.write_failures(), 1u);
  EXPECT_GT(io::io_counters().status_publish_failures.load(),
            failures_before);

  // The plane heals when the directory comes back.
  fs::create_directory(dir);
  board.publish_now();
  EXPECT_EQ(read_status_file(cfg.path).status, StatusReadStatus::kOk);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tracemod::sim::status
