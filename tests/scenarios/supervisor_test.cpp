// The supervision contract (scenarios/supervisor.hpp, DESIGN.md section
// 10): a poisoned trial degrades exactly one cell entry while every other
// world stays bit-identical; serial and parallel supervised runs agree on
// results AND error records; deterministic retry recovers flaky trials
// without changing a single bit of the clean outcomes; watchdogs bound
// runaway worlds; and a journal survives kills, truncation, and bit flips
// without ever resuming from damaged records.
#include "scenarios/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenarios/experiment.hpp"
#include "sim/crc32c.hpp"
#include "sim/io/fault_plan.hpp"
#include "sim/io/file_sink.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "sim/task_pool.hpp"
#include "trace/fault_injector.hpp"

namespace tracemod::scenarios {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_supervisor_" + name;
}

void expect_identical(const BenchmarkOutcome& a, const BenchmarkOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.wall_stuck, b.wall_stuck);
  EXPECT_EQ(std::memcmp(&a.elapsed_s, &b.elapsed_s, sizeof(double)), 0);
  EXPECT_EQ(a.andrew.total_s, b.andrew.total_s);
  EXPECT_EQ(a.andrew.rpc_calls, b.andrew.rpc_calls);
}

void expect_identical_sweeps(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].live.size(), b.cells[i].live.size());
    ASSERT_EQ(a.cells[i].modulated.size(), b.cells[i].modulated.size());
    for (std::size_t t = 0; t < a.cells[i].live.size(); ++t) {
      expect_identical(a.cells[i].live[t], b.cells[i].live[t]);
      expect_identical(a.cells[i].modulated[t], b.cells[i].modulated[t]);
    }
    EXPECT_EQ(a.cells[i].errors, b.cells[i].errors);
    EXPECT_EQ(a.cells[i].trials_retried, b.cells[i].trials_retried);
  }
  ASSERT_EQ(a.ethernet.size(), b.ethernet.size());
  for (std::size_t k = 0; k < a.ethernet.size(); ++k) {
    ASSERT_EQ(a.ethernet[k].size(), b.ethernet[k].size());
    for (std::size_t t = 0; t < a.ethernet[k].size(); ++t) {
      expect_identical(a.ethernet[k][t], b.ethernet[k][t]);
    }
  }
  EXPECT_EQ(a.supervision.errors, b.supervision.errors);
  EXPECT_EQ(a.supervision.trials_failed, b.supervision.trials_failed);
  EXPECT_EQ(a.supervision.trials_retried, b.supervision.trials_retried);
  EXPECT_EQ(a.supervision.trials_timed_out, b.supervision.trials_timed_out);
}

ExperimentConfig supervised_config(int trials = 2) {
  ExperimentConfig cfg;
  cfg.trials = trials;
  cfg.compensation_vb = measure_compensation_vb();
  cfg.supervision.enabled = true;
  return cfg;
}

InjectedTrialFault poison_live_trial0() {
  InjectedTrialFault f;
  f.scenario = "wean";
  f.benchmark = "web";
  f.phase = "live";
  f.trial = 0;
  return f;
}

TEST(SupervisorGuard, PoisonedTrialIsIsolatedFromItsSiblings) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};

  const auto clean =
      run_sweep(nullptr, sc, kinds, supervised_config());

  auto cfg = supervised_config();
  cfg.supervision.inject.push_back(poison_live_trial0());
  const auto poisoned = run_sweep(nullptr, sc, kinds, cfg);

  // Exactly one structured error, with full identity: taxonomy, derived
  // seed of the failing attempt, and matrix position.
  ASSERT_EQ(poisoned.supervision.errors.size(), 1u);
  const TrialError& e = poisoned.supervision.errors.front();
  EXPECT_EQ(e.kind, TrialErrorKind::kException);
  EXPECT_EQ(e.message, "injected trial fault");
  EXPECT_EQ(e.seed, cfg.base_seed);  // live phase, trial 0
  EXPECT_EQ(e.scenario, "Wean");
  EXPECT_EQ(e.benchmark, "web");
  EXPECT_EQ(e.phase, "live");
  EXPECT_EQ(e.trial, 0);
  EXPECT_EQ(e.attempts, 1);
  EXPECT_EQ(poisoned.supervision.trials_failed, 1u);
  EXPECT_TRUE(poisoned.supervision.degraded());

  // The poisoned slot is a marked partial result, never a fake clean one.
  EXPECT_FALSE(poisoned.cells[0].live[0].completed);
  // Every sibling world is bit-identical to the clean run: N-1 live
  // trials, all modulated trials, and the Ethernet baseline.
  expect_identical(poisoned.cells[0].live[1], clean.cells[0].live[1]);
  for (std::size_t t = 0; t < 2; ++t) {
    expect_identical(poisoned.cells[0].modulated[t],
                     clean.cells[0].modulated[t]);
    expect_identical(poisoned.ethernet[0][t], clean.ethernet[0][t]);
  }
}

TEST(SupervisorGuard, SerialAndParallelAgreeOnResultsAndErrors) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  auto cfg = supervised_config();
  cfg.supervision.inject.push_back(poison_live_trial0());

  const auto serial = run_sweep(nullptr, sc, kinds, cfg);
  sim::TaskPool pool(4);
  const auto parallel = run_sweep(&pool, sc, kinds, cfg);

  ASSERT_EQ(parallel.supervision.errors.size(), 1u);
  expect_identical_sweeps(serial, parallel);
}

TEST(SupervisorGuard, SupervisionWithoutFaultsMatchesUnsupervisedRun) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};

  auto unsupervised = supervised_config();
  unsupervised.supervision.enabled = false;
  sim::TaskPool pool(1);
  const auto seed_behaviour = run_sweep(&pool, sc, kinds, unsupervised);

  const auto supervised =
      run_sweep(nullptr, sc, kinds, supervised_config());

  EXPECT_TRUE(supervised.supervision.errors.empty());
  expect_identical_sweeps(seed_behaviour, supervised);
}

TEST(SupervisorGuard, RetryWithIdenticalSeedRecoversFlakyTrial) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};

  const auto clean =
      run_sweep(nullptr, sc, kinds, supervised_config());

  auto cfg = supervised_config();
  cfg.supervision.max_retries = 1;
  auto fault = poison_live_trial0();
  fault.fail_attempts = 1;  // flaky: fails once, then succeeds
  cfg.supervision.inject.push_back(fault);
  const auto recovered = run_sweep(nullptr, sc, kinds, cfg);

  // The retry consumed one attempt and recovered; the rerun used the
  // identical derived seed, so outcomes are bit-identical to a run that
  // never failed.
  EXPECT_TRUE(recovered.supervision.errors.empty());
  EXPECT_EQ(recovered.supervision.trials_failed, 0u);
  EXPECT_EQ(recovered.supervision.trials_retried, 1u);
  for (std::size_t t = 0; t < 2; ++t) {
    expect_identical(recovered.cells[0].live[t], clean.cells[0].live[t]);
    expect_identical(recovered.cells[0].modulated[t],
                     clean.cells[0].modulated[t]);
  }
}

TEST(SupervisorGuard, RetryExhaustionRecordsEveryAttempt) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  auto cfg = supervised_config();
  cfg.supervision.max_retries = 1;
  cfg.supervision.inject.push_back(poison_live_trial0());  // always fails

  const auto result = run_sweep(nullptr, sc, kinds, cfg);
  ASSERT_EQ(result.supervision.errors.size(), 1u);
  EXPECT_EQ(result.supervision.errors.front().attempts, 2);
  EXPECT_EQ(result.supervision.trials_failed, 1u);
  EXPECT_EQ(result.supervision.trials_retried, 1u);
}

TEST(SupervisorGuard, ExportedMetricsMatchTheReport) {
  SupervisionReport report;
  report.trials_failed = 3;
  report.trials_retried = 5;
  report.trials_timed_out = 2;
  sim::MetricsRegistry metrics;
  export_supervision_metrics(report, metrics);
  EXPECT_EQ(metrics.value(sim::metric::kSweepTrialsFailed), 3u);
  EXPECT_EQ(metrics.value(sim::metric::kSweepTrialsRetried), 5u);
  EXPECT_EQ(metrics.value(sim::metric::kSweepTrialsTimedOut), 2u);
}

// --- watchdogs --------------------------------------------------------------

TEST(Watchdog, CompletedAndDrainedStatusesAreDistinguished) {
  sim::EventLoop loop;
  bool done = false;
  EXPECT_EQ(run_event_loop_until(loop, done, sim::seconds(10), {}),
            RunStatus::kDrained);
  loop.schedule(sim::milliseconds(1), [&] { done = true; });
  EXPECT_EQ(run_event_loop_until(loop, done, sim::seconds(10), {}),
            RunStatus::kCompleted);
}

TEST(Watchdog, VirtualBudgetBoundsANeverTerminatingWorld) {
  sim::EventLoop loop;
  bool done = false;
  // A world that keeps ticking forever but never finishes its benchmark.
  std::function<void()> tick = [&] {
    loop.schedule(sim::milliseconds(1), tick);
  };
  loop.schedule(sim::milliseconds(1), tick);
  EXPECT_EQ(run_event_loop_until(loop, done, sim::seconds(1), {}),
            RunStatus::kVirtualDeadline);
  EXPECT_GE(sim::to_seconds(loop.now()), 1.0);
}

TEST(Watchdog, WallClockDetectorAbandonsAZeroDelayLivelock) {
  sim::EventLoop loop;
  bool done = false;
  // Virtual time never advances, so no virtual budget can save this world;
  // only the event-loop-progress heartbeat notices the stall.
  std::function<void()> spin = [&] { loop.schedule(sim::Duration{0}, spin); };
  loop.schedule(sim::Duration{0}, spin);
  WatchdogConfig wd;
  wd.wall_budget_s = 0.05;
  wd.wall_check_interval = 64;
  EXPECT_EQ(run_event_loop_until(loop, done, sim::seconds(3600), wd),
            RunStatus::kWallStuck);
}

TEST(SupervisorGuard, VirtualBudgetExpiryIsRecordedAndCounted) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb};
  auto cfg = supervised_config(/*trials=*/1);
  cfg.supervision.virtual_budget = sim::seconds(1);  // web needs ~180 s

  const auto result = run_sweep(nullptr, sc, kinds, cfg);

  // Live, modulated, and Ethernet worlds all blow the 1 s budget: each is
  // flagged on the outcome, recorded as a kTimedOut error, and counted.
  EXPECT_TRUE(result.cells[0].live[0].timed_out);
  EXPECT_FALSE(result.cells[0].live[0].completed);
  EXPECT_TRUE(result.cells[0].modulated[0].timed_out);
  EXPECT_TRUE(result.ethernet[0][0].timed_out);
  EXPECT_EQ(result.supervision.trials_timed_out, 3u);
  ASSERT_EQ(result.supervision.errors.size(), 3u);
  for (const TrialError& e : result.supervision.errors) {
    EXPECT_EQ(e.kind, TrialErrorKind::kTimedOut);
  }
}

// --- sweep journal ----------------------------------------------------------

std::vector<JournalCellRecord> sample_records() {
  std::vector<JournalCellRecord> records(3);
  records[0].collect = true;
  records[0].scenario = "Wean";
  records[0].trials_retried = 1;

  records[1].scenario = "Wean";
  records[1].kind = BenchmarkKind::kWeb;
  records[1].live.resize(2);
  records[1].live[0].ok = true;
  records[1].live[0].completed = true;
  records[1].live[0].elapsed_s = 183.53;
  records[1].live[1].timed_out = true;
  records[1].modulated.resize(2);
  records[1].modulated[0].ok = true;
  records[1].modulated[0].completed = true;
  records[1].modulated[0].elapsed_s = 187.49;
  records[1].modulated[0].andrew.rpc_calls = 42;
  TrialError err;
  err.kind = TrialErrorKind::kTimedOut;
  err.message = "virtual-time budget (1.000000 s) expired";
  err.seed = 10'001;
  err.scenario = "Wean";
  err.benchmark = "web";
  err.phase = "live";
  err.trial = 1;
  err.attempts = 2;
  records[1].errors.push_back(err);
  records[1].trials_retried = 2;

  records[2].ethernet = true;
  records[2].kind = BenchmarkKind::kWeb;
  records[2].live.resize(1);
  records[2].live[0].ok = true;
  records[2].live[0].completed = true;
  records[2].live[0].elapsed_s = 139.57;
  return records;
}

std::string write_journal(const std::string& path, std::uint32_t fp,
                          const std::vector<JournalCellRecord>& records) {
  SweepJournalWriter writer;
  EXPECT_TRUE(writer.open(path, fp, /*fresh=*/true));
  for (const auto& r : records) writer.append(r);
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void expect_record_prefix(const std::vector<JournalCellRecord>& got,
                          const std::vector<JournalCellRecord>& want) {
  ASSERT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Byte-level equality via the canonical encoding covers every field.
    EXPECT_EQ(encode_journal_record(got[i]), encode_journal_record(want[i]))
        << "record " << i;
    EXPECT_EQ(got[i].collect, want[i].collect);
    EXPECT_EQ(got[i].ethernet, want[i].ethernet);
  }
}

TEST(SweepJournal, RoundTripPreservesEveryField) {
  const auto records = sample_records();
  const std::string path = tmp("roundtrip.journal");
  const std::string bytes = write_journal(path, 0xdeadbeef, records);
  // Pinned bytes: the TMSJ layout and the fingerprint encoding are on-disk
  // contracts a resumed sweep depends on.
  EXPECT_EQ(bytes.size(), 569u);
  EXPECT_EQ(sim::crc32c(bytes.data(), bytes.size()), 0x87eb4c35u);
  EXPECT_EQ(sweep_fingerprint(ExperimentConfig{}), 0xf889dd44u);

  const auto read = read_sweep_journal(path, 0xdeadbeef);
  EXPECT_EQ(read.status, JournalStatus::kClean);
  ASSERT_EQ(read.records.size(), records.size());
  expect_record_prefix(read.records, records);
  // Spot-check a decoded error survives with full fidelity.
  ASSERT_EQ(read.records[1].errors.size(), 1u);
  EXPECT_EQ(read.records[1].errors.front(), records[1].errors.front());
}

TEST(SweepJournal, MissingFileAndForeignConfigAreRejected) {
  EXPECT_EQ(read_sweep_journal(tmp("nonexistent.journal"), 1).status,
            JournalStatus::kMissing);

  const std::string path = tmp("mismatch.journal");
  write_journal(path, 1111, sample_records());
  const auto read = read_sweep_journal(path, 2222);
  EXPECT_EQ(read.status, JournalStatus::kMismatch);
  EXPECT_TRUE(read.records.empty());
}

TEST(SweepJournal, TruncationDropsOnlyTheTail) {
  const auto records = sample_records();
  const std::string path = tmp("truncated.journal");
  const std::string bytes = write_journal(path, 7, records);

  // A kill mid-append chops the file anywhere; the reader must keep every
  // intact frame and drop only the partial tail, never error out.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    trace::FaultInjector injector{sim::Rng(seed)};
    std::string damaged = bytes;
    injector.truncate_bytes(damaged, /*min_keep=*/10);
    std::ofstream(path, std::ios::binary).write(damaged.data(),
                                                static_cast<std::streamsize>(
                                                    damaged.size()));
    const auto read = read_sweep_journal(path, 7);
    EXPECT_TRUE(read.status == JournalStatus::kDroppedTail ||
                read.status == JournalStatus::kClean)
        << to_string(read.status) << " seed " << seed;
    EXPECT_LT(read.records.size(), records.size());
    expect_record_prefix(read.records, records);
  }
}

TEST(SweepJournal, BitFlipsNeverYieldDamagedRecords) {
  const auto records = sample_records();
  const std::string path = tmp("flipped.journal");
  const std::string bytes = write_journal(path, 7, records);

  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    trace::FaultInjector injector{sim::Rng(seed)};
    std::string damaged = bytes;
    injector.flip_bytes(damaged, 1, /*protect_prefix=*/10);
    std::ofstream(path, std::ios::binary).write(damaged.data(),
                                                static_cast<std::streamsize>(
                                                    damaged.size()));
    const auto read = read_sweep_journal(path, 7);
    // A flipped frame is either caught by its CRC (corrupt) or, when the
    // flip lands in a length prefix, read as a partial tail.  Every record
    // that IS returned must be one of the originals, undamaged.
    EXPECT_NE(read.status, JournalStatus::kClean) << "seed " << seed;
    expect_record_prefix(read.records, records);
  }
}

TEST(SweepJournal, FailedAppendIsNeverVisibleAsACommittedCell) {
  namespace fs = std::filesystem;
  const auto records = sample_records();
  // Measure the on-disk size after one and after two records so the
  // ENOSPC budget can be aimed exactly at the second append.
  const std::string probe = tmp("enospc_probe.journal");
  write_journal(probe, 7, {records[0]});
  const std::uint64_t size_one = fs::file_size(probe);
  write_journal(probe, 7, {records[0], records[1]});
  const std::uint64_t size_two = fs::file_size(probe);

  sim::io::FaultPlanConfig cfg;
  cfg.enospc_after_bytes = size_two - 1;  // record 1's append must fail
  sim::io::FaultPlan plan(cfg);

  const std::string path = tmp("enospc.journal");
  SweepJournalWriter writer;
  ASSERT_TRUE(writer.open(path, 7, /*fresh=*/true, &plan));
  writer.append(records[0]);
  EXPECT_FALSE(writer.degraded());
  writer.append(records[1]);  // hits the budget mid-run
  EXPECT_TRUE(writer.degraded());
  EXPECT_FALSE(writer.is_open());
  EXPECT_NE(writer.degraded_reason().find("No space"), std::string::npos)
      << writer.degraded_reason();
  writer.append(records[2]);  // degraded writer: cheap no-op
  writer.close();

  // The failed append was truncated back: a resume sees exactly the
  // acknowledged record, never a phantom cell.
  EXPECT_EQ(fs::file_size(path), size_one);
  const auto read = read_sweep_journal(path, 7);
  EXPECT_EQ(read.status, JournalStatus::kClean);
  ASSERT_EQ(read.records.size(), 1u);
  expect_record_prefix(read.records, records);

  // The degradation is observable in the shared io plane.
  bool noted = false;
  for (const std::string& note : sim::io::degraded_plane_notes()) {
    if (note.find("sweep-journal") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(SweepJournal, CrashAtEverySyscallYieldsACleanPrefixNeverWrongRecords) {
  // Kill the journal writer at every syscall of its life (open, header
  // write+sync, per-record write+sync, final sync+close).  Whatever lands
  // on disk, the reader must classify it as missing, clean, a dropped
  // tail, or corrupt-with-zero-records -- and every record it does return
  // must be an undamaged prefix of what was appended.  11 ops cover the
  // full no-fault syscall sequence for three records; 12..13 prove the
  // uncrashed run is clean end to end.
  const auto records = sample_records();
  for (std::uint64_t crash_at = 1; crash_at <= 13; ++crash_at) {
    const std::string path =
        tmp("crash_" + std::to_string(crash_at) + ".journal");
    sim::io::FaultPlanConfig cfg;
    cfg.seed = crash_at;
    cfg.crash_at_op = crash_at;
    sim::io::FaultPlan plan(cfg);

    SweepJournalWriter writer;
    if (writer.open(path, 7, /*fresh=*/true, &plan)) {
      for (const auto& r : records) writer.append(r);
      writer.close();
    }

    const auto read = read_sweep_journal(path, 7);
    EXPECT_NE(read.status, JournalStatus::kMismatch) << "op " << crash_at;
    if (read.status == JournalStatus::kCorrupt) {
      // Only a torn header can be corrupt, and it yields no records.
      EXPECT_TRUE(read.records.empty()) << "op " << crash_at;
    } else {
      expect_record_prefix(read.records, records);
    }
    if (crash_at >= 12) {
      EXPECT_EQ(read.status, JournalStatus::kClean) << "op " << crash_at;
      EXPECT_EQ(read.records.size(), records.size());
      EXPECT_FALSE(writer.degraded());
    }
  }
}

TEST(SweepJournal, FingerprintTracksPolicyButNotMatrix) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  EXPECT_EQ(sweep_fingerprint(a), sweep_fingerprint(b));
  b.base_seed += 1;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.supervision.max_retries = 2;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.supervision.inject.push_back({});
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
}

// --- sweep JSON -------------------------------------------------------------

/// Pulls `"key": "value"` out of a JSON object substring.
std::string json_str_field(const std::string& obj, const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  const std::size_t at = obj.find(marker);
  if (at == std::string::npos) return {};
  const std::size_t start = at + marker.size();
  return obj.substr(start, obj.find('"', start) - start);
}

/// Pulls a numeric `"key": 123` out of a JSON object substring.
long long json_int_field(const std::string& obj, const std::string& key) {
  const std::string marker = "\"" + key + "\": ";
  const std::size_t at = obj.find(marker);
  if (at == std::string::npos) return -1;
  return std::stoll(obj.substr(at + marker.size()));
}

TEST(SweepJson, TrialErrorSurvivesTheJsonRoundTrip) {
  // An error record written into tracemod-sweep-v1 must come back with its
  // full identity -- taxonomy kind, matrix position, derived seed, and
  // attempt count -- so postmortem tooling can reproduce the failure.
  TrialError err;
  err.kind = TrialErrorKind::kTimedOut;
  err.message = "virtual-time budget (1.000000 s) expired";
  err.seed = 10'001;
  err.scenario = "Wean";
  err.benchmark = "web";
  err.phase = "live";
  err.trial = 1;
  err.attempts = 2;

  SweepResult result;
  CellResult cell;
  cell.scenario = "Wean";
  cell.kind = BenchmarkKind::kWeb;
  cell.live.resize(2);
  cell.modulated.resize(2);
  cell.errors.push_back(err);
  result.cells.push_back(cell);
  result.ethernet.resize(1);
  result.ethernet[0].resize(2);
  result.supervision.errors.push_back(err);
  result.supervision.trials_failed = 1;

  ExperimentConfig cfg;
  cfg.supervision.enabled = true;
  std::ostringstream out;
  write_sweep_json(out, result, cfg, {BenchmarkKind::kWeb});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"tracemod-sweep-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool_version\""), std::string::npos);

  // Parse the first emitted error record back into a TrialError and
  // demand equality with what went in.
  const std::size_t errs = json.find("\"errors\": [");
  ASSERT_NE(errs, std::string::npos);
  const std::size_t open = json.find('{', errs);
  ASSERT_NE(open, std::string::npos);
  const std::string obj = json.substr(open, json.find('}', open) - open + 1);

  TrialError parsed;
  const std::string kind = json_str_field(obj, "kind");
  bool kind_known = false;
  for (TrialErrorKind k : {TrialErrorKind::kException,
                           TrialErrorKind::kTimedOut,
                           TrialErrorKind::kStuck}) {
    if (kind == to_string(k)) {
      parsed.kind = k;
      kind_known = true;
    }
  }
  EXPECT_TRUE(kind_known) << "unparseable kind '" << kind << "'";
  parsed.message = json_str_field(obj, "message");
  parsed.seed = static_cast<std::uint64_t>(json_int_field(obj, "seed"));
  parsed.scenario = json_str_field(obj, "scenario");
  parsed.benchmark = json_str_field(obj, "benchmark");
  parsed.phase = json_str_field(obj, "phase");
  parsed.trial = static_cast<int>(json_int_field(obj, "trial"));
  parsed.attempts = static_cast<int>(json_int_field(obj, "attempts"));
  EXPECT_EQ(parsed, err);
}

TEST(SweepJournal, ResumedSweepReproducesTheUninterruptedRun) {
  const std::vector<Scenario> sc = {wean()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb,
                                            BenchmarkKind::kFtpRecv};
  const auto cfg = supervised_config(/*trials=*/1);

  const auto uninterrupted = run_sweep(nullptr, sc, kinds, cfg);

  // First run journals everything, as if it were then killed.
  const std::string path = tmp("resume.journal");
  SweepJournalWriter writer;
  ASSERT_TRUE(writer.open(path, sweep_fingerprint(cfg), /*fresh=*/true));
  SweepOptions journal_opts;
  journal_opts.journal = &writer;
  run_sweep(nullptr, sc, kinds, cfg, journal_opts);

  // Resume from a prefix of the journal: the collect row and the first
  // cell survive the "kill"; the second cell and the Ethernet rows rerun.
  auto read = read_sweep_journal(path, sweep_fingerprint(cfg));
  ASSERT_EQ(read.status, JournalStatus::kClean);
  ASSERT_GE(read.records.size(), 2u);
  read.records.resize(2);
  SweepOptions resume_opts;
  resume_opts.resume = &read.records;
  const auto resumed = run_sweep(nullptr, sc, kinds, cfg, resume_opts);

  EXPECT_TRUE(resumed.cells[0].resumed);
  EXPECT_FALSE(resumed.cells[1].resumed);
  expect_identical_sweeps(uninterrupted, resumed);
}

// --- batch plan -------------------------------------------------------------

std::string audit_json(const SweepResult& result) {
  std::ostringstream out;
  for (const auto& row : result.audits) {
    for (const audit::FidelityReport& r : row) audit::write_fidelity_json(out, r);
  }
  return out.str();
}

TEST(SweepBatches, SerialParallelAndJournaledRunsAgree) {
  // The pool picks the interleaving and an attached journal picks one-row
  // batches; neither may change a result, an error's place in the report,
  // a retry count, an audit, or the journal's record order.
  const std::vector<Scenario> sc = {wean(), porter()};
  const std::vector<BenchmarkKind> kinds = {BenchmarkKind::kWeb,
                                            BenchmarkKind::kFtpRecv};
  auto cfg = supervised_config();
  cfg.audit.enabled = true;
  cfg.supervision.inject.push_back(poison_live_trial0());  // row 1
  InjectedTrialFault collect;
  collect.scenario = "porter";  // row 2
  collect.phase = "collect";
  collect.trial = 1;
  cfg.supervision.inject.push_back(collect);

  const std::uint32_t fp = sweep_fingerprint(cfg);
  auto run = [&](sim::TaskPool* pool, const std::string& journal) {
    SweepJournalWriter writer;
    SweepOptions opts;
    if (!journal.empty()) {
      EXPECT_TRUE(writer.open(tmp(journal), fp, /*fresh=*/true));
      opts.journal = &writer;
    }
    SweepResult result = run_sweep(pool, sc, kinds, cfg, opts);
    writer.close();
    return result;
  };
  sim::TaskPool pool(4);
  const SweepResult serial = run(nullptr, "");
  const SweepResult parallel = run(&pool, "");
  const SweepResult serial_journaled = run(nullptr, "batches_serial.journal");
  const SweepResult parallel_journaled =
      run(&pool, "batches_parallel.journal");

  // Matrix order: row 1's live error, then row 2's collect error.
  ASSERT_EQ(serial.supervision.errors.size(), 2u);
  EXPECT_EQ(serial.supervision.errors[0].scenario, "Wean");
  EXPECT_EQ(serial.supervision.errors[0].phase, "live");
  EXPECT_EQ(serial.supervision.errors[1].scenario, "Porter");
  EXPECT_EQ(serial.supervision.errors[1].phase, "collect");
  ASSERT_EQ(serial.audits.size(), 2u);
  for (const SweepResult* other :
       {&parallel, &serial_journaled, &parallel_journaled}) {
    expect_identical_sweeps(serial, *other);
    EXPECT_EQ(audit_json(serial), audit_json(*other));
  }

  // Each row is journaled whole (collection, then its cells) before the
  // next; the Ethernet rows come last.
  std::vector<std::vector<JournalCellRecord>> journals;
  for (const char* name :
       {"batches_serial.journal", "batches_parallel.journal"}) {
    const JournalReadResult read = read_sweep_journal(tmp(name), fp);
    ASSERT_EQ(read.status, JournalStatus::kClean) << read.message;
    journals.push_back(read.records);
  }
  const std::vector<JournalCellRecord>& recs = journals[0];
  ASSERT_EQ(recs.size(), 8u);
  for (std::size_t i : {0u, 3u}) {
    EXPECT_TRUE(recs[i].collect);
    EXPECT_EQ(recs[i].scenario, i == 0 ? "Wean" : "Porter");
  }
  for (std::size_t i : {1u, 2u, 4u, 5u}) {
    EXPECT_FALSE(recs[i].collect || recs[i].ethernet);
  }
  EXPECT_TRUE(recs[6].ethernet && recs[7].ethernet);
  expect_record_prefix(journals[1], recs);
  EXPECT_EQ(journals[1].size(), recs.size());
}

}  // namespace
}  // namespace tracemod::scenarios
