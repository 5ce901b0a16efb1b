// Tests for the durable-write plane (DESIGN.md section 15): the seeded
// fault schedule, FileSink's syscall-boundary fault handling, the
// atomic-replace and append-journal contracts, and the crash-consistency
// guarantee that a kill at ANY syscall leaves either the previous
// complete artifact or the new complete artifact, never a mix.

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/io/durable.hpp"
#include "sim/io/fault_plan.hpp"
#include "sim/io/file_sink.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace tracemod::sim::io {
namespace {

namespace fs = std::filesystem;

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_io_" + name;
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// --- fault-plan spec grammar ------------------------------------------------

TEST(FaultPlanConfigTest, SpecRoundTrip) {
  const std::string spec =
      "seed=42;match=.journal;short-write-chance=0.25;eintr-chance=0.5;"
      "enospc-after-bytes=1024;eio-at-op=3;fsync-fail-at=2;rename-fail-at=1;"
      "crash-at-op=7;log=/tmp/faults.log";
  auto cfg = FaultPlanConfig::parse(spec);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->seed, 42u);
  EXPECT_EQ(cfg->match, ".journal");
  EXPECT_DOUBLE_EQ(cfg->short_write_chance, 0.25);
  EXPECT_DOUBLE_EQ(cfg->eintr_chance, 0.5);
  EXPECT_EQ(cfg->enospc_after_bytes, 1024u);
  EXPECT_EQ(cfg->eio_at_op, 3u);
  EXPECT_EQ(cfg->fsync_fail_at, 2u);
  EXPECT_EQ(cfg->rename_fail_at, 1u);
  EXPECT_EQ(cfg->crash_at_op, 7u);
  EXPECT_EQ(cfg->log_path, "/tmp/faults.log");
  EXPECT_TRUE(cfg->any_fault());

  // The canonical spec re-parses to the same configuration.
  auto again = FaultPlanConfig::parse(cfg->to_spec());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_spec(), cfg->to_spec());
}

TEST(FaultPlanConfigTest, CommaSeparatorAndDefaults) {
  auto cfg = FaultPlanConfig::parse("seed=9,enospc-after-bytes=10");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->seed, 9u);
  EXPECT_EQ(cfg->enospc_after_bytes, 10u);
  auto empty = FaultPlanConfig::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->any_fault());
}

TEST(FaultPlanConfigTest, MalformedSpecsAreRejectedWithDiagnosis) {
  const char* bad[] = {
      "frobnicate=1",            // unknown key
      "seed",                    // no '='
      "seed=abc",                // not a number
      "short-write-chance=1.5",  // chance out of [0,1]
      "eintr-chance=-0.1",
      "enospc-after-bytes=",     // empty value
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(FaultPlanConfig::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// --- schedule determinism and scoping ---------------------------------------

TEST(FaultPlanTest, SameSeedSameWorkloadSameFaultLog) {
  FaultPlanConfig cfg;
  cfg.seed = 1234;
  cfg.short_write_chance = 0.4;
  cfg.eintr_chance = 0.3;
  cfg.enospc_after_bytes = 700;
  FaultPlan a(cfg);
  FaultPlan b(cfg);

  const struct {
    IoOp op;
    std::size_t bytes;
  } workload[] = {
      {IoOp::kOpen, 0},   {IoOp::kWrite, 100}, {IoOp::kWrite, 250},
      {IoOp::kFsync, 0},  {IoOp::kWrite, 300}, {IoOp::kWrite, 300},
      {IoOp::kRename, 0}, {IoOp::kClose, 0},   {IoOp::kWrite, 64},
  };
  for (const auto& step : workload) {
    const FaultDecision da = a.next(step.op, "x.journal", step.bytes);
    const FaultDecision db = b.next(step.op, "x.journal", step.bytes);
    EXPECT_EQ(da.kind, db.kind);
    EXPECT_EQ(da.err, db.err);
    EXPECT_EQ(da.write_len, db.write_len);
  }
  const std::vector<InjectedFault> la = a.log();
  const std::vector<InjectedFault> lb = b.log();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].op_index, lb[i].op_index);
    EXPECT_EQ(la[i].op, lb[i].op);
    EXPECT_EQ(la[i].kind, lb[i].kind);
    EXPECT_EQ(la[i].path, lb[i].path);
  }
  std::ostringstream ta, tb;
  a.write_log(ta);
  b.write_log(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(FaultPlanTest, UnmatchedPathsDoNotAdvanceTheSchedule) {
  FaultPlanConfig cfg;
  cfg.match = ".journal";
  cfg.eio_at_op = 1;
  FaultPlan plan(cfg);

  // Unrelated artifacts come and go without consuming op #1.
  EXPECT_FALSE(plan.next(IoOp::kWrite, "status.tmst", 10).fault());
  EXPECT_FALSE(plan.next(IoOp::kWrite, "report.json", 10).fault());
  EXPECT_EQ(plan.ops_seen(), 0u);

  const FaultDecision d = plan.next(IoOp::kWrite, "sweep.journal", 10);
  EXPECT_EQ(d.kind, FaultKind::kEio);
  EXPECT_EQ(d.err, EIO);
  EXPECT_EQ(plan.ops_seen(), 1u);
}

TEST(FaultPlanTest, CrashPointKillsEveryLaterOperation) {
  FaultPlanConfig cfg;
  cfg.crash_at_op = 2;
  FaultPlan plan(cfg);

  EXPECT_FALSE(plan.next(IoOp::kOpen, "a", 0).fault());
  const FaultDecision crash = plan.next(IoOp::kWrite, "a", 100);
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_LT(crash.write_len, 100u);  // strict prefix of a torn write
  EXPECT_TRUE(plan.crashed());

  // The plan is dead: every subsequent matched op fails with no effects.
  for (IoOp op : {IoOp::kWrite, IoOp::kFsync, IoOp::kRename, IoOp::kClose}) {
    const FaultDecision d = plan.next(op, "a", 10);
    EXPECT_EQ(d.kind, FaultKind::kCrashed);
    EXPECT_EQ(d.err, ECANCELED);
  }
}

TEST(FaultPlanTest, FsyncAndRenameCountersOnlyCountTheirOps) {
  FaultPlanConfig cfg;
  cfg.fsync_fail_at = 2;
  cfg.rename_fail_at = 1;
  FaultPlan plan(cfg);

  EXPECT_FALSE(plan.next(IoOp::kFsync, "a", 0).fault());   // fsync #1
  EXPECT_FALSE(plan.next(IoOp::kWrite, "a", 8).fault());   // not an fsync
  EXPECT_EQ(plan.next(IoOp::kRename, "a", 0).kind, FaultKind::kRenameFail);
  EXPECT_EQ(plan.next(IoOp::kFsync, "a", 0).kind, FaultKind::kFsyncFail);
}

// --- FileSink fault handling ------------------------------------------------

TEST(FileSinkTest, EnospcFiresAfterTheByteBudget) {
  FaultPlanConfig cfg;
  cfg.enospc_after_bytes = 10;
  FaultPlan plan(cfg);

  const std::string path = tmp("sink_enospc");
  FileSink sink;
  ASSERT_TRUE(sink.open(path, FileSink::Mode::kTruncate, &plan).ok);
  EXPECT_TRUE(sink.write("12345678", 8).ok);

  const IoResult r = sink.write("12345678", 8);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.err, ENOSPC);
  EXPECT_EQ(r.error.op, IoOp::kWrite);
  EXPECT_NE(r.error.detail.find("0 of 8 bytes landed"), std::string::npos)
      << r.error.detail;
  // The budgeted bytes are on disk; the refused write left nothing.
  EXPECT_EQ(slurp(path), "12345678");
  EXPECT_EQ(sink.offset(), 8u);
  (void)sink.close();
}

TEST(FileSinkTest, ShortWriteLandsASeededStrictPrefix) {
  FaultPlanConfig cfg;
  cfg.seed = 5;
  cfg.short_write_chance = 1.0;
  FaultPlan plan(cfg);

  const std::string path = tmp("sink_short");
  const std::string payload(100, 'x');
  FileSink sink;
  ASSERT_TRUE(sink.open(path, FileSink::Mode::kTruncate, &plan).ok);
  const IoResult r = sink.write(payload.data(), payload.size());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.detail.find("short write"), std::string::npos);

  const std::string landed = slurp(path);
  EXPECT_GE(landed.size(), 1u);
  EXPECT_LT(landed.size(), payload.size());
  EXPECT_EQ(landed, payload.substr(0, landed.size()));
  EXPECT_EQ(sink.offset(), landed.size());
  (void)sink.close();
}

TEST(FileSinkTest, InjectedEintrIsInvisibleToCallers) {
  // A correct caller retries EINTR, so an EINTR-only schedule must change
  // nothing observable.  Seeds are scanned so the assertion "at least one
  // EINTR was actually dealt" cannot rot silently.
  bool injected_at_least_once = false;
  for (std::uint64_t seed = 1; seed <= 50 && !injected_at_least_once;
       ++seed) {
    FaultPlanConfig cfg;
    cfg.seed = seed;
    cfg.eintr_chance = 0.5;
    FaultPlan plan(cfg);

    const std::string path = tmp("sink_eintr");
    FileSink sink;
    ASSERT_TRUE(sink.open(path, FileSink::Mode::kTruncate, &plan).ok);
    ASSERT_TRUE(sink.write("hello eintr world", 17).ok);
    ASSERT_TRUE(sink.datasync().ok);
    ASSERT_TRUE(sink.close().ok);
    EXPECT_EQ(slurp(path), "hello eintr world");
    for (const InjectedFault& f : plan.log()) {
      if (f.kind == FaultKind::kEintr) injected_at_least_once = true;
    }
  }
  EXPECT_TRUE(injected_at_least_once);
}

// --- atomic replace ---------------------------------------------------------

TEST(AtomicFileWriterTest, PublishesAndReplaces) {
  const std::string path = tmp("atomic_basic");
  ASSERT_TRUE(write_file_atomic(path, "version one").ok);
  EXPECT_EQ(slurp(path), "version one");
  ASSERT_TRUE(write_file_atomic(path, "version two, longer").ok);
  EXPECT_EQ(slurp(path), "version two, longer");
}

TEST(AtomicFileWriterTest, DestructorAbortsAnUncommittedWrite) {
  const std::string path = tmp("atomic_dtor");
  ASSERT_TRUE(write_file_atomic(path, "previous").ok);
  std::string tmp_name;
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.open().ok);
    ASSERT_TRUE(writer.write("half-finish").ok);
    tmp_name = writer.tmp_path();
    EXPECT_TRUE(fs::exists(tmp_name));
  }
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_FALSE(fs::exists(tmp_name));
}

TEST(AtomicFileWriterTest, FailedFsyncRefusesThePublish) {
  // Renaming un-synced bytes would publish data power loss can un-write,
  // so a failed fsync must leave the previous artifact and no tmp.
  const std::string path = tmp("atomic_fsync_fail");
  ASSERT_TRUE(write_file_atomic(path, "previous").ok);

  FaultPlanConfig cfg;
  cfg.fsync_fail_at = 1;
  FaultPlan plan(cfg);
  AtomicFileWriter writer(path, &plan);
  ASSERT_TRUE(writer.open().ok);
  ASSERT_TRUE(writer.write("next").ok);
  const IoResult r = writer.commit();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.op, IoOp::kFsync);
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_FALSE(fs::exists(writer.tmp_path()));
}

TEST(AtomicFileWriterTest, FailedRenameLeavesPreviousAndNoTmp) {
  const std::string path = tmp("atomic_rename_fail");
  ASSERT_TRUE(write_file_atomic(path, "previous").ok);

  FaultPlanConfig cfg;
  cfg.rename_fail_at = 1;
  FaultPlan plan(cfg);
  AtomicFileWriter writer(path, &plan);
  ASSERT_TRUE(writer.open().ok);
  ASSERT_TRUE(writer.write("next").ok);
  const IoResult r = writer.commit();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.op, IoOp::kRename);
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_FALSE(fs::exists(writer.tmp_path()));
}

TEST(AtomicFileWriterTest, CrashAtEverySyscallLeavesOldOrNewNeverAMix) {
  // The whole point of the contract: for every crash point in the publish
  // sequence (open, write, fsync, close, rename, dir fsync), the target
  // reads back as exactly the previous artifact or exactly the new one.
  const std::string v1 = "previous artifact, fully intact";
  const std::string v2 = "NEW artifact -- different bytes and length";
  for (std::uint64_t crash_at = 1; crash_at <= 8; ++crash_at) {
    const std::string path =
        tmp("atomic_crash_" + std::to_string(crash_at));
    ASSERT_TRUE(write_file_atomic(path, v1).ok);

    FaultPlanConfig cfg;
    cfg.seed = crash_at;
    cfg.crash_at_op = crash_at;
    FaultPlan plan(cfg);
    const IoResult r = write_file_atomic(path, v2, &plan);

    const std::string now = slurp(path);
    EXPECT_TRUE(now == v1 || now == v2)
        << "crash at op " << crash_at << " left a torn artifact: \"" << now
        << "\"";
    // Op 7+ is past the end of the publish sequence: no crash fires and
    // the commit must have succeeded.
    if (crash_at >= 7) {
      EXPECT_TRUE(r.ok) << crash_at;
      EXPECT_EQ(now, v2);
    } else {
      EXPECT_FALSE(r.ok) << crash_at;
    }
    remove_with_tmps(path);
  }
}

TEST(AtomicFileWriterTest, ConcurrentWritersGetDistinctTmpNames) {
  const std::string path = tmp("atomic_unique");
  AtomicFileWriter a(path);
  AtomicFileWriter b(path);
  ASSERT_TRUE(a.open().ok);
  ASSERT_TRUE(b.open().ok);
  EXPECT_NE(a.tmp_path(), b.tmp_path());
  ASSERT_TRUE(a.write("from a").ok);
  ASSERT_TRUE(b.write("from b").ok);
  ASSERT_TRUE(a.commit().ok);
  ASSERT_TRUE(b.commit().ok);
  // Last committer wins; neither tmp survives.
  EXPECT_EQ(slurp(path), "from b");
  EXPECT_FALSE(fs::exists(a.tmp_path()));
  EXPECT_FALSE(fs::exists(b.tmp_path()));
}

#if !defined(_WIN32)
TEST(AtomicFileWriterTest, SweepReclaimsDeadPidAndLegacyTmpsOnly) {
  // A really-dead pid: fork a child that exits immediately and reap it.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  ASSERT_EQ(waitpid(child, nullptr, 0), child);

  const std::string path = tmp("atomic_sweep");
  spill(path, "live artifact");
  const std::string legacy = path + ".tmp";
  const std::string dead =
      path + ".tmp." + std::to_string(child) + ".7";
  const std::string own =
      path + ".tmp." + std::to_string(getpid()) + ".999999";
  const std::string unparsable = path + ".tmp.notapid.1";
  spill(legacy, "legacy fixed-name tmp");
  spill(dead, "wreckage of a killed writer");
  spill(own, "in-flight write of THIS process");
  spill(unparsable, "not ours to reclaim");

  EXPECT_EQ(AtomicFileWriter::sweep_stale_tmp(path), 2u);
  EXPECT_FALSE(fs::exists(legacy));
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(own));
  EXPECT_TRUE(fs::exists(unparsable));
  EXPECT_EQ(slurp(path), "live artifact");

  // Idempotent: a second sweep finds nothing reclaimable.
  EXPECT_EQ(AtomicFileWriter::sweep_stale_tmp(path), 0u);
  fs::remove(own);
  fs::remove(unparsable);
}

TEST(AtomicFileWriterTest, OpenSweepsCrashWreckageOfDeadWriters) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  ASSERT_EQ(waitpid(child, nullptr, 0), child);

  const std::string path = tmp("atomic_open_sweep");
  const std::string dead = path + ".tmp." + std::to_string(child) + ".0";
  spill(dead, "wreckage");

  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.open().ok);
  EXPECT_FALSE(fs::exists(dead)) << "open() must sweep dead-pid tmps";
  ASSERT_TRUE(writer.write("fresh").ok);
  ASSERT_TRUE(writer.commit().ok);
  EXPECT_EQ(slurp(path), "fresh");
}
#endif  // !_WIN32

TEST(AtomicFileWriterTest, WriteArtifactOrComplainReportsFailure) {
  const std::string path = tmp("artifact_complain");
  fs::remove(path);  // leftovers from a previous run of this binary
  FaultPlanConfig cfg;
  cfg.rename_fail_at = 1;
  FaultPlan plan(cfg);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(write_artifact_or_complain(path, "doomed", &plan));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(path));

  EXPECT_TRUE(write_artifact_or_complain(path, "fine"));
  EXPECT_EQ(slurp(path), "fine");
}

// --- append journal ---------------------------------------------------------

TEST(AppendJournalWriterTest, AppendsFramesAfterASyncedHeader) {
  const std::string path = tmp("journal_basic");
  AppendJournalWriter w;
  ASSERT_TRUE(w.open_fresh(path, "HDR!").ok);
  EXPECT_EQ(w.committed_bytes(), 4u);
  ASSERT_TRUE(w.append("frame-1").ok);
  ASSERT_TRUE(w.append("frame-2").ok);
  EXPECT_EQ(w.committed_bytes(), 4u + 14u);
  ASSERT_TRUE(w.close().ok);
  EXPECT_EQ(slurp(path), "HDR!frame-1frame-2");
}

TEST(AppendJournalWriterTest, OpenExistingResumesAtTheEnd) {
  const std::string path = tmp("journal_resume");
  {
    AppendJournalWriter w;
    ASSERT_TRUE(w.open_fresh(path, "HDR!").ok);
    ASSERT_TRUE(w.append("one").ok);
    ASSERT_TRUE(w.close().ok);
  }
  AppendJournalWriter w;
  ASSERT_TRUE(w.open_existing(path).ok);
  EXPECT_EQ(w.committed_bytes(), 7u);
  ASSERT_TRUE(w.append("two").ok);
  ASSERT_TRUE(w.close().ok);
  EXPECT_EQ(slurp(path), "HDR!onetwo");
}

TEST(AppendJournalWriterTest, EnospcDegradesWithoutLosingCommittedFrames) {
  FaultPlanConfig cfg;
  cfg.enospc_after_bytes = 20;  // header(8) + frame1(8) fit; frame2 does not
  FaultPlan plan(cfg);
  AppendJournalWriter::Options options;
  options.sync_every_frames = 1;
  options.plan = &plan;

  const std::string path = tmp("journal_enospc");
  AppendJournalWriter w;
  ASSERT_TRUE(w.open_fresh(path, "TMHJHDR:", options).ok);
  ASSERT_TRUE(w.append("frame-01").ok);
  EXPECT_EQ(w.committed_bytes(), 16u);

  const IoResult r = w.append("frame-02");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.err, ENOSPC);
  EXPECT_TRUE(w.degraded());
  EXPECT_FALSE(w.is_open());
  EXPECT_EQ(w.last_error().err, ENOSPC);

  // The failed append is not visible as committed bytes on disk.
  EXPECT_EQ(w.committed_bytes(), 16u);
  EXPECT_EQ(fs::file_size(path), 16u);
  EXPECT_EQ(slurp(path), "TMHJHDR:frame-01");

  // Degraded writers fail cheaply; the producing run keeps computing.
  const IoResult later = w.append("frame-03");
  EXPECT_FALSE(later.ok);
  EXPECT_NE(later.error.detail.find("degraded"), std::string::npos);
  EXPECT_EQ(fs::file_size(path), 16u);
}

TEST(AppendJournalWriterTest, TornAppendIsTruncatedBackToTheFrameBoundary) {
  // A short write lands a strict prefix of a frame; degrade() must
  // truncate that torn tail so the file ends at the last committed frame.
  // Seeds are scanned for the schedule "header ok, frame1 ok, frame2
  // torn" so the test stays deterministic without pinning RNG internals.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 500 && !exercised; ++seed) {
    FaultPlanConfig cfg;
    cfg.seed = seed;
    cfg.short_write_chance = 0.5;
    FaultPlan plan(cfg);
    AppendJournalWriter::Options options;
    options.sync_every_frames = 0;  // writes only; syncs not under test
    options.plan = &plan;

    const std::string path = tmp("journal_torn");
    AppendJournalWriter w;
    if (!w.open_fresh(path, "TMHJHDR:", options).ok) continue;
    if (!w.append("frame-01").ok) continue;
    if (w.append("frame-02").ok) continue;

    exercised = true;
    EXPECT_TRUE(w.degraded());
    EXPECT_EQ(w.committed_bytes(), 16u);
    EXPECT_EQ(fs::file_size(path), 16u)
        << "torn tail survived (seed " << seed << ")";
    EXPECT_EQ(slurp(path), "TMHJHDR:frame-01");
  }
  ASSERT_TRUE(exercised) << "no seed in [1,500] dealt the torn-frame "
                            "schedule; the fault model changed";
}

TEST(AppendJournalWriterTest, FailedOpenDegradesImmediately) {
  FaultPlanConfig cfg;
  cfg.eio_at_op = 1;  // the open itself
  FaultPlan plan(cfg);
  AppendJournalWriter::Options options;
  options.plan = &plan;

  AppendJournalWriter w;
  const IoResult r = w.open_fresh(tmp("journal_bad_open"), "HDR!", options);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(w.degraded());
  EXPECT_FALSE(w.is_open());
}

// --- counters and metrics ---------------------------------------------------

TEST(IoCountersTest, FailuresAndDegradationsAreCountedAndExported) {
  // Counters are process-global; other tests in this binary also bump
  // them, so assert deltas, not absolutes.
  const std::uint64_t write_errors_before =
      io_counters().write_errors.load();
  const std::uint64_t degraded_before = io_counters().degraded_planes.load();

  FaultPlanConfig cfg;
  cfg.enospc_after_bytes = 1;
  FaultPlan plan(cfg);
  FileSink sink;
  ASSERT_TRUE(sink.open(tmp("counters"), FileSink::Mode::kTruncate, &plan).ok);
  const IoResult r = sink.write("too many bytes", 14);
  ASSERT_FALSE(r.ok);
  (void)sink.close();
  EXPECT_GT(io_counters().write_errors.load(), write_errors_before);

  note_degraded_plane("unit-test-plane", r.error);
  EXPECT_GT(io_counters().degraded_planes.load(), degraded_before);
  bool noted = false;
  for (const std::string& note : degraded_plane_notes()) {
    if (note.find("unit-test-plane") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  MetricsRegistry metrics;
  export_io_metrics(metrics);
  EXPECT_EQ(metrics.value(metric::kIoWriteErrors),
            io_counters().write_errors.load());
  EXPECT_EQ(metrics.value(metric::kIoFsyncFailures),
            io_counters().fsync_failures.load());
  EXPECT_EQ(metrics.value(metric::kIoDegradedPlanes),
            io_counters().degraded_planes.load());
  EXPECT_EQ(metrics.value(metric::kStatusPublishFailed),
            io_counters().status_publish_failures.load());
}

}  // namespace
}  // namespace tracemod::sim::io
