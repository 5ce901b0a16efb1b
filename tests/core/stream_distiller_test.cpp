// The streaming-distillation contract (core/stream_distiller.hpp,
// DESIGN.md section 12): the windowed one-read pipeline is bit-identical
// to the in-memory distiller -- clean or damaged, at any thread count;
// damage spanning a window boundary marks both windows and never aborts;
// a whole checkpoint journal replaces the read, and a damaged or torn one
// costs a rescan while the output stays byte-identical; budget shedding
// degrades delay but never perturbs loss; and every window maps onto an
// audit verdict that is pass or unauditable, never a breach.
#include "core/stream_distiller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "core/distiller.hpp"
#include "sim/crc32c.hpp"
#include "sim/io/fault_plan.hpp"
#include "sim/perf/alloc_telemetry.hpp"
#include "sim/random.hpp"
#include "trace/fault_injector.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::core {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_stream_distiller_" + name;
}

/// Writes a ~2-window synthetic ping corpus and returns its path.
std::string make_corpus(const std::string& name, double reply_loss = 0.02,
                        sim::Duration duration = sim::seconds(150)) {
  const std::string path = tmp(name);
  trace::CorpusSpec spec;
  spec.duration = duration;
  spec.reply_loss = reply_loss;
  spec.seed = 42;
  trace::generate_ping_corpus(path, spec);
  return path;
}

std::string serialize(const ReplayTrace& replay) {
  std::ostringstream out;
  replay.serialize(out);
  return out.str();
}

/// The reference result: slurp the whole file (salvage mode) and run the
/// in-memory distiller -- the arithmetic the stream must reproduce.
std::string in_memory_reference(const std::string& path) {
  trace::TraceReadOptions ropts;
  ropts.mode = trace::ReadMode::kSalvage;
  const trace::TraceReadResult loaded = trace::load_trace_ex(path, ropts);
  Distiller distiller;
  return serialize(distiller.distill(loaded.trace));
}

StreamDistillResult stream_distill(const std::string& path,
                                   StreamDistillConfig cfg = {}) {
  StreamDistiller distiller(cfg);
  return distiller.distill_file(path);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Appends `groups` probe groups (small, large, large echo, each with its
/// reply), one per second from `start_s`; with `lose_every` = k > 0, every
/// k-th group loses its last reply.
void add_probe_groups(trace::CollectedTrace* t, double start_s, int groups,
                      std::uint16_t* seq, int lose_every = 0) {
  const std::uint32_t sizes[3] = {60, 1052, 1052};
  const double rtts[3] = {0.0034, 0.0130, 0.0172};
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < 3; ++i) {
      trace::PacketRecord echo;
      echo.at = sim::kEpoch + sim::from_seconds(start_s + g + 0.001 * i);
      echo.dir = trace::PacketDirection::kOutgoing;
      echo.protocol = net::Protocol::kIcmp;
      echo.icmp_kind = trace::IcmpKind::kEcho;
      echo.icmp_seq = (*seq)++;
      echo.ip_bytes = sizes[i];
      t->records.emplace_back(echo);
      if (lose_every > 0 && g % lose_every == 0 && i == 2) continue;
      trace::PacketRecord reply = echo;
      reply.dir = trace::PacketDirection::kIncoming;
      reply.icmp_kind = trace::IcmpKind::kEchoReply;
      reply.echo_origin = echo.at;
      reply.at = echo.at + sim::from_seconds(rtts[i]);
      t->records.emplace_back(reply);
    }
  }
}

/// The MemoryBudget shed rule as one pass over the finished window sizes:
/// the reference the scan's online shedding must reproduce.
std::vector<bool> up_front_shed_plan(const MemoryBudget& budget,
                                     const std::vector<WindowSummary>& ws) {
  std::vector<bool> shed;
  std::uint64_t retained = 0;
  const unsigned inflight = std::max(1u, budget.max_inflight);
  const std::uint64_t window_cap =
      budget.bytes == 0 ? 0 : budget.bytes / inflight;
  for (const WindowSummary& w : ws) {
    const std::uint64_t need =
        w.sent_echoes * sizeof(EchoSent) + w.replies * sizeof(EchoReply);
    shed.push_back(budget.bytes != 0 &&
                   (need > window_cap || retained + need > budget.bytes));
    if (!shed.back()) retained += need;
  }
  return shed;
}

TEST(StreamDistiller, BitIdenticalToInMemoryOnCleanTrace) {
  const std::string path = make_corpus("clean.tmtr");
  const std::string reference = in_memory_reference(path);

  StreamDistillConfig cfg;
  cfg.threads = 1;
  const auto serial = stream_distill(path, cfg);
  EXPECT_EQ(serial.status, DistillStatus::kOk);
  EXPECT_EQ(serialize(serial.replay), reference);

  cfg.threads = 4;
  const auto parallel = stream_distill(path, cfg);
  EXPECT_EQ(serialize(parallel.replay), reference);

  // Window accounting covers the whole corpus exactly once.
  EXPECT_GE(serial.stats.windows_total, 2u);
  EXPECT_EQ(serial.stats.windows_damaged, 0u);
  EXPECT_EQ(serial.stats.windows_shed, 0u);
  std::uint64_t records = 0;
  for (const WindowSummary& w : serial.windows) {
    EXPECT_LT(w.begin_offset, w.end_offset);
    records += w.records;
  }
  EXPECT_EQ(records, serial.stats.records_streamed);
  std::filesystem::remove(path);
}

TEST(StreamDistiller, BitIdenticalToInMemoryWhenAReplyPrecedesTheFirstRecord) {
  // 31 probe groups from t0 = 100 s, every other group losing its third
  // reply, and a stray reply logged right after the first record but timed
  // at 50 s: before every step window, so it bounds the sequence gap of
  // every one of them.
  trace::CollectedTrace t;
  std::uint16_t seq = 0;
  const auto add = [&](double at_s, std::uint32_t bytes, double rtt_s,
                       bool replied) {
    trace::PacketRecord echo;
    echo.at = sim::kEpoch + sim::from_seconds(at_s);
    echo.dir = trace::PacketDirection::kOutgoing;
    echo.protocol = net::Protocol::kIcmp;
    echo.icmp_kind = trace::IcmpKind::kEcho;
    echo.icmp_seq = seq++;
    echo.ip_bytes = bytes;
    t.records.emplace_back(echo);
    if (t.records.size() == 1) {
      trace::PacketRecord early = echo;
      early.dir = trace::PacketDirection::kIncoming;
      early.icmp_kind = trace::IcmpKind::kEchoReply;
      early.at = sim::kEpoch + sim::seconds(50);
      early.echo_origin = early.at - sim::milliseconds(2);
      t.records.emplace_back(early);
    }
    if (!replied) return;
    trace::PacketRecord reply = echo;
    reply.dir = trace::PacketDirection::kIncoming;
    reply.icmp_kind = trace::IcmpKind::kEchoReply;
    reply.echo_origin = echo.at;
    reply.at = echo.at + sim::from_seconds(rtt_s);
    t.records.emplace_back(reply);
  };
  for (int g = 0; g < 31; ++g) {
    add(100.0 + g, 60, 0.0034, true);
    add(100.001 + g, 1052, 0.0130, true);
    add(100.002 + g, 1052, 0.0172, g % 2 != 0);
  }
  const std::string path = tmp("early_reply.tmtr");
  trace::save_trace(path, t);

  const std::string reference = in_memory_reference(path);
  for (const unsigned threads : {1u, 4u}) {
    StreamDistillConfig cfg;
    cfg.threads = threads;
    const auto streamed = stream_distill(path, cfg);
    EXPECT_EQ(streamed.status, DistillStatus::kOk);
    EXPECT_EQ(serialize(streamed.replay), reference) << threads << " threads";
  }
  std::filesystem::remove(path);
}

TEST(StreamDistiller, BitIdenticalToInMemorySalvageOnDamagedTrace) {
  const std::string path = make_corpus("damaged.tmtr");
  trace::FaultInjector inject{sim::Rng(9)};
  const std::uint64_t size = std::filesystem::file_size(path);
  // Keep the header intact: salvage cannot survive header damage, and the
  // in-memory reference would refuse the file entirely.
  inject.flip_file_range(path, 10, 512, size);

  const std::string reference = in_memory_reference(path);
  const auto streamed = stream_distill(path);
  EXPECT_EQ(streamed.status, DistillStatus::kSalvaged);
  EXPECT_FALSE(streamed.read_report.clean());
  EXPECT_GT(streamed.stats.windows_damaged, 0u);
  EXPECT_EQ(serialize(streamed.replay), reference);
  std::filesystem::remove(path);
}

TEST(StreamDistiller, AbandonedWriterFileIsSalvagedNotOk) {
  // A writer destroyed without finalize() leaves count 0 over every block
  // it wrote.  Salvage reads the body intact, but a file strict reading
  // refuses must not come back kOk.
  const std::string source = make_corpus("abandoned_src.tmtr", 0.02,
                                         sim::seconds(600));
  const std::string path = tmp("abandoned.tmtr");
  {
    std::ifstream in(source, std::ios::binary);
    trace::TraceStreamReader reader(in);
    trace::TraceStreamWriter writer(path);
    trace::TraceRecord rec;
    while (reader.next(&rec)) writer.append(rec);
    ASSERT_GT(writer.bytes_written(), 64u * 1024);
  }  // destroyed without finalize()
  ASSERT_THROW(trace::load_trace(path), trace::TraceFormatError);

  const std::string reference = in_memory_reference(path);
  const auto streamed = stream_distill(path);
  EXPECT_EQ(streamed.read_report.records_expected, 0u);
  EXPECT_GT(streamed.read_report.records_read, 0u);
  EXPECT_FALSE(streamed.read_report.clean());
  EXPECT_EQ(streamed.status, DistillStatus::kSalvaged);
  EXPECT_FALSE(streamed.replay.tuples().empty());
  EXPECT_EQ(serialize(streamed.replay), reference);
  std::filesystem::remove(source);
  std::filesystem::remove(path);
}

TEST(StreamDistiller, DamageSpanningTwoWindowsMarksBothAndNeverAborts) {
  const std::string path = make_corpus("boundary.tmtr");

  // First pass on the clean file to learn the window boundary offsets.
  const auto clean = stream_distill(path);
  ASSERT_GE(clean.windows.size(), 2u);
  const std::uint64_t boundary = clean.windows[1].begin_offset;
  ASSERT_EQ(clean.windows[0].end_offset, boundary);

  // Straddle the boundary: flips on both sides of it corrupt frames in
  // window 0 and window 1.
  trace::FaultInjector inject{sim::Rng(5)};
  inject.flip_file_range(path, 16, boundary - 600, boundary + 600);

  const auto damaged = stream_distill(path);
  EXPECT_EQ(damaged.status, DistillStatus::kSalvaged);
  ASSERT_GE(damaged.windows.size(), 2u);
  EXPECT_TRUE(damaged.windows[0].damaged);
  EXPECT_TRUE(damaged.windows[1].damaged);
  // Salvage still matches the in-memory distiller on the damaged bytes.
  EXPECT_EQ(serialize(damaged.replay), in_memory_reference(path));
  std::filesystem::remove(path);
}

TEST(StreamDistiller, ResumeFromJournalIsByteIdentical) {
  const std::string path = make_corpus("resume.tmtr");
  const std::string journal = tmp("resume.tmdj");

  StreamDistillConfig cfg;
  cfg.checkpoint_path = journal;
  const auto first = stream_distill(path, cfg);
  ASSERT_GE(first.stats.windows_total, 2u);
  EXPECT_EQ(first.stats.windows_resumed, 0u);

  cfg.resume = true;
  const auto resumed = stream_distill(path, cfg);
  EXPECT_EQ(resumed.stats.windows_resumed, resumed.stats.windows_total);
  EXPECT_EQ(serialize(resumed.replay), serialize(first.replay));
  for (const WindowSummary& w : resumed.windows) EXPECT_TRUE(w.resumed);

  // Pinned bytes: a resume rewrites the plan and then every adopted window
  // in index order, so this TMDJ file is independent of thread scheduling.
  std::ifstream in(journal, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 14615u);
  EXPECT_EQ(sim::crc32c(bytes.data(), bytes.size()), 0x5e0a2f4bu);

  std::filesystem::remove(path);
  std::filesystem::remove(journal);
}

TEST(StreamDistiller, DamagedJournalFrameRecomputesOnlyThatWindow) {
  const std::string path = make_corpus("journal_damage.tmtr");
  const std::string journal = tmp("journal_damage.tmdj");

  StreamDistillConfig cfg;
  cfg.checkpoint_path = journal;
  const auto first = stream_distill(path, cfg);
  ASSERT_GE(first.stats.windows_total, 2u);

  // Corrupt the tail of the journal: the last window frame fails its
  // checksum and is skipped; the plan and earlier windows stay intact.
  const std::uint64_t jsize = std::filesystem::file_size(journal);
  trace::FaultInjector inject{sim::Rng(3)};
  inject.flip_file_range(journal, 4, jsize - 32, jsize);

  cfg.resume = true;
  const auto resumed = stream_distill(path, cfg);
  EXPECT_GT(resumed.stats.windows_resumed, 0u);
  EXPECT_LT(resumed.stats.windows_resumed, resumed.stats.windows_total);
  EXPECT_EQ(serialize(resumed.replay), serialize(first.replay));

  std::filesystem::remove(path);
  std::filesystem::remove(journal);
}

TEST(StreamDistiller, TruncatedJournalResumesByteIdentical) {
  // The kill drill: a SIGKILL mid-append leaves a torn trailing frame.
  // Resume must drop the tail, reuse what checksums, and reproduce the
  // uninterrupted output bit for bit.
  const std::string path = make_corpus("kill.tmtr");
  const std::string journal = tmp("kill.tmdj");

  StreamDistillConfig cfg;
  cfg.checkpoint_path = journal;
  const auto first = stream_distill(path, cfg);
  ASSERT_GE(first.stats.windows_total, 2u);

  const std::uint64_t jsize = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, jsize - 15);

  cfg.resume = true;
  const auto resumed = stream_distill(path, cfg);
  EXPECT_LT(resumed.stats.windows_resumed, resumed.stats.windows_total);
  EXPECT_EQ(serialize(resumed.replay), serialize(first.replay));

  // And a journal for a *different* input must be rejected outright: the
  // fingerprint covers file size and leading bytes, so nothing resumes.
  const std::string other = make_corpus("kill_other.tmtr", 0.10);
  StreamDistillConfig ocfg;
  ocfg.checkpoint_path = journal;
  ocfg.resume = true;
  const auto fresh = stream_distill(other, ocfg);
  EXPECT_EQ(fresh.stats.windows_resumed, 0u);

  std::filesystem::remove(path);
  std::filesystem::remove(other);
  std::filesystem::remove(journal);
}

TEST(StreamDistiller, WholeJournalStandsInForTheRead) {
  // A journal holding the plan and every kept window replaces the scan: a
  // resume then reads nothing of the corpus past the fingerprinted leading
  // bytes.  Damage beyond them makes that visible -- until the journal
  // lacks a window, which sends the run back to the corpus.
  const std::string path = make_corpus("whole.tmtr");
  const std::string journal = tmp("whole.tmdj");

  StreamDistillConfig cfg;
  cfg.checkpoint_path = journal;
  const auto first = stream_distill(path, cfg);
  ASSERT_EQ(first.status, DistillStatus::kOk);
  ASSERT_GE(first.stats.windows_total, 2u);

  const std::uint64_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, 8192u);
  trace::FaultInjector inject{sim::Rng(5)};
  inject.flip_file_range(path, 8, size / 2, size);

  cfg.resume = true;
  const auto adopted = stream_distill(path, cfg);
  EXPECT_EQ(adopted.status, DistillStatus::kOk);
  EXPECT_EQ(adopted.stats.windows_resumed, adopted.stats.windows_total);
  EXPECT_EQ(serialize(adopted.replay), serialize(first.replay));

  std::filesystem::resize_file(journal,
                               std::filesystem::file_size(journal) - 15);
  const auto rescanned = stream_distill(path, cfg);
  EXPECT_EQ(rescanned.status, DistillStatus::kSalvaged);
  EXPECT_GT(rescanned.stats.windows_damaged, 0u);
  EXPECT_EQ(serialize(rescanned.replay), in_memory_reference(path));

  std::filesystem::remove(path);
  std::filesystem::remove(journal);
}

TEST(StreamDistiller, CheckpointEnospcDegradesResumabilityNeverTheOutput) {
  // The disk fills while the checkpoint journal is being written.  The
  // degradation contract: the run keeps computing and its output is
  // byte-identical to a checkpoint-less run; only resumability is lost,
  // surfaced via stats.checkpoint_degraded (drivers exit 5).
  const std::string path = make_corpus("enospc.tmtr");
  const std::string reference = serialize(stream_distill(path).replay);

  const std::string journal = tmp("enospc.tmdj");
  sim::io::FaultPlanConfig fcfg;
  fcfg.enospc_after_bytes = 64;  // the 10-byte header fits; no frame does
  sim::io::FaultPlan plan(fcfg);
  StreamDistillConfig cfg;
  cfg.checkpoint_path = journal;
  cfg.checkpoint_fault_plan = &plan;
  const auto starved = stream_distill(path, cfg);

  EXPECT_TRUE(starved.stats.checkpoint_degraded);
  EXPECT_EQ(starved.status, DistillStatus::kOk);  // output fidelity intact
  EXPECT_EQ(serialize(starved.replay), reference);

  // What remains on disk is an intact prefix the tolerant reader accepts
  // without reusing anything it cannot vouch for.
  std::ifstream in(journal, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 10u);  // header only; the failed frame truncated
  EXPECT_EQ(probe_checkpoint_journal(bytes.data(), bytes.size()), 0u);

  // A resume against the degraded journal recomputes and still agrees.
  StreamDistillConfig rcfg;
  rcfg.checkpoint_path = journal;
  rcfg.resume = true;
  const auto resumed = stream_distill(path, rcfg);
  EXPECT_EQ(resumed.stats.windows_resumed, 0u);
  EXPECT_EQ(serialize(resumed.replay), reference);

  std::filesystem::remove(path);
  std::filesystem::remove(journal);
}

TEST(StreamDistiller, CheckpointCrashAtEverySyscallNeverChangesTheOutput) {
  // Kill the checkpoint plane at every syscall of its life.  For each
  // crash point: the distilled output matches the reference bit for bit,
  // the journal wreckage probes without crashing, and a resume against
  // the wreckage reproduces the reference.
  const std::string path = make_corpus("ckpt_crash.tmtr");
  const std::string reference = serialize(stream_distill(path).replay);

  for (std::uint64_t crash_at = 1; crash_at <= 10; ++crash_at) {
    const std::string journal =
        tmp("ckpt_crash_" + std::to_string(crash_at) + ".tmdj");
    sim::io::FaultPlanConfig fcfg;
    fcfg.seed = crash_at;
    fcfg.crash_at_op = crash_at;
    sim::io::FaultPlan plan(fcfg);

    StreamDistillConfig cfg;
    cfg.checkpoint_path = journal;
    cfg.checkpoint_fault_plan = &plan;
    const auto crashed = stream_distill(path, cfg);
    EXPECT_EQ(serialize(crashed.replay), reference) << "op " << crash_at;
    EXPECT_EQ(crashed.stats.checkpoint_degraded, plan.crashed())
        << "op " << crash_at;

    std::ifstream in(journal, std::ios::binary);
    if (in.good()) {
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      // Must classify without crashing, throwing, or misreading frames.
      (void)probe_checkpoint_journal(bytes.data(), bytes.size());
    }

    StreamDistillConfig rcfg;
    rcfg.checkpoint_path = journal;
    rcfg.resume = true;
    const auto resumed = stream_distill(path, rcfg);
    EXPECT_EQ(serialize(resumed.replay), reference) << "op " << crash_at;

    std::filesystem::remove(journal);
  }
  std::filesystem::remove(path);
}

TEST(StreamDistiller, BudgetSheddingDegradesButNeverPerturbsLoss) {
  const std::string path = make_corpus("budget.tmtr", 0.05);
  const auto full = stream_distill(path);
  ASSERT_EQ(full.status, DistillStatus::kOk);
  ASSERT_GT(full.stats.retained_bytes, 0u);

  // Budget for roughly half the echo projections, one window in flight:
  // the deterministic shed plan keeps the early windows and sheds the
  // rest once the cumulative retained bytes cross the budget.
  StreamDistillConfig cfg;
  cfg.budget.bytes = full.stats.retained_bytes / 2;
  cfg.budget.max_inflight = 1;
  const auto shed = stream_distill(path, cfg);
  EXPECT_EQ(shed.status, DistillStatus::kDegraded);
  EXPECT_GT(shed.stats.windows_shed, 0u);
  EXPECT_LT(shed.stats.windows_shed, shed.stats.windows_total);
  EXPECT_LE(shed.stats.retained_bytes, cfg.budget.bytes);

  // The loss lattice is final after the scan: shedding drops delay samples,
  // never loss.  Same step count, same loss column.
  ASSERT_EQ(shed.replay.tuples().size(), full.replay.tuples().size());
  for (std::size_t i = 0; i < full.replay.tuples().size(); ++i) {
    EXPECT_EQ(shed.replay.tuples()[i].loss, full.replay.tuples()[i].loss)
        << "step " << i;
  }
  std::filesystem::remove(path);
}

TEST(StreamDistiller, JournalBytesDoNotDependOnThreads) {
  // A run journals the plan and every kept window in index order after
  // its single read, so the TMDJ bytes are the same at any thread count.
  const std::string path =
      make_corpus("threads_journal.tmtr", 0.10, sim::seconds(330));
  std::string journals[2];
  const unsigned thread_counts[2] = {1u, 8u};
  for (int i = 0; i < 2; ++i) {
    const std::string journal =
        tmp("threads_" + std::to_string(thread_counts[i]) + ".tmdj");
    StreamDistillConfig cfg;
    cfg.span = sim::seconds(5);
    cfg.threads = thread_counts[i];
    cfg.checkpoint_path = journal;
    const auto result = stream_distill(path, cfg);
    ASSERT_GE(result.stats.windows_total, 60u);
    journals[i] = file_bytes(journal);
    std::filesystem::remove(journal);
  }
  EXPECT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
  std::filesystem::remove(path);
}

TEST(StreamDistiller, OnlineSheddingMatchesTheUpFrontPlan) {
  // The scan decides each window's shed flag as the window closes; the
  // rule looks only at earlier windows, so the flags must equal the plan
  // the finished window sizes give.
  const std::string path =
      make_corpus("online_shed.tmtr", 0.30, sim::seconds(600));
  const auto full = stream_distill(path);
  ASSERT_EQ(full.stats.windows_shed, 0u);
  ASSERT_GE(full.windows.size(), 8u);
  const std::uint64_t total = full.stats.retained_bytes;
  std::uint64_t smallest = total, largest = 0;
  for (const WindowSummary& w : full.windows) {
    const std::uint64_t need =
        w.sent_echoes * sizeof(EchoSent) + w.replies * sizeof(EchoReply);
    smallest = std::min(smallest, need);
    largest = std::max(largest, need);
  }
  ASSERT_LT(smallest, largest);

  enum class Sheds { kNone, kSome, kAll };
  struct Case {
    const char* name;
    MemoryBudget budget;
    Sheds sheds;
  };
  const Case cases[] = {
      {"unlimited", {0, 8}, Sheds::kNone},
      {"ample", {total, 1}, Sheds::kNone},
      {"half", {total / 2, 1}, Sheds::kSome},
      // The per-window cap sits between the smallest and largest window.
      {"window cap",
       {total, static_cast<unsigned>(total / ((smallest + largest) / 2))},
       Sheds::kSome},
      {"everything", {1, 1}, Sheds::kAll},
  };
  for (const Case& c : cases) {
    StreamDistillConfig cfg;
    cfg.budget = c.budget;
    const auto result = stream_distill(path, cfg);
    const std::vector<bool> expected =
        up_front_shed_plan(c.budget, full.windows);
    ASSERT_EQ(result.windows.size(), expected.size()) << c.name;
    std::uint64_t shed = 0;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(result.windows[k].shed, expected[k])
          << c.name << ", window " << k;
      shed += expected[k] ? 1 : 0;
    }
    EXPECT_EQ(result.stats.windows_shed, shed) << c.name;
    if (c.budget.bytes != 0) {
      EXPECT_LE(result.stats.retained_bytes, c.budget.bytes) << c.name;
    }
    switch (c.sheds) {
      case Sheds::kNone: EXPECT_EQ(shed, 0u) << c.name; break;
      case Sheds::kSome:
        EXPECT_GT(shed, 0u) << c.name;
        EXPECT_LT(shed, expected.size()) << c.name;
        break;
      case Sheds::kAll: EXPECT_EQ(shed, expected.size()) << c.name; break;
    }
  }
  std::filesystem::remove(path);
}

TEST(StreamDistiller, FarFutureReplyCannotSizeTheLattice) {
  // 60 probe groups a second apart, with one reply stamped 30,000,000 s
  // and written mid-file (tests/trace/corpus/far_reply_v2.tmtr is this
  // trace).  The step count ends at the last record, so the in-memory
  // lattice is capped at ~60 steps; the streaming one must not size
  // itself by the far timestamp either (that would take ~720 MB).
  trace::CollectedTrace t;
  std::uint16_t seq = 0;
  add_probe_groups(&t, 0.0, 60, &seq);
  auto& far = std::get<trace::PacketRecord>(t.records[181]);
  ASSERT_EQ(far.icmp_kind, trace::IcmpKind::kEchoReply);
  far.at = sim::kEpoch + sim::seconds(30'000'000);
  const std::string path = tmp("far_reply.tmtr");
  trace::save_trace(path, t);
  const std::string reference = in_memory_reference(path);

  sim::perf::ensure_alloc_interposer();
  ASSERT_TRUE(sim::perf::alloc_interposer_active());
  const sim::perf::AllocTotals before = sim::perf::alloc_totals();
  StreamDistillConfig cfg;
  cfg.threads = 1;
  const auto streamed = stream_distill(path, cfg);
  const sim::perf::AllocTotals used = sim::perf::alloc_totals() - before;
  EXPECT_LT(used.bytes_allocated, 16u << 20);
  EXPECT_EQ(streamed.status, DistillStatus::kOk);
  EXPECT_EQ(serialize(streamed.replay), reference);
  std::filesystem::remove(path);
}

TEST(StreamDistiller, SessionsDaysApartStreamIdentically) {
  // A legitimate gap: two sessions two days apart.  The second session's
  // replies lie far past the lattice the first session paid for, so they
  // wait in the held set until finalize -- which must place them exactly
  // where a capped build would.  Its losses make its loss column depend
  // on every one of them.
  trace::CollectedTrace t;
  std::uint16_t seq = 0;
  add_probe_groups(&t, 0.0, 90, &seq);
  add_probe_groups(&t, 2 * 86400.0, 90, &seq, 4);
  const std::string path = tmp("two_sessions.tmtr");
  trace::save_trace(path, t);
  const std::string reference = in_memory_reference(path);
  for (const unsigned threads : {1u, 4u}) {
    StreamDistillConfig cfg;
    cfg.threads = threads;
    const auto streamed = stream_distill(path, cfg);
    EXPECT_EQ(streamed.status, DistillStatus::kOk);
    // 172,890 steps: compare without gtest's line diff of the two texts.
    EXPECT_TRUE(serialize(streamed.replay) == reference) << threads;
  }
  std::filesystem::remove(path);
}

TEST(StreamDistiller, EmptyTraceDistillsToEmptyReplay) {
  const std::string path = tmp("empty.tmtr");
  {
    trace::TraceStreamWriter writer(path);
    writer.finalize();
  }
  const auto result = stream_distill(path);
  EXPECT_EQ(result.status, DistillStatus::kOk);
  EXPECT_EQ(result.stats.records_streamed, 0u);
  EXPECT_TRUE(result.replay.tuples().empty());
  std::filesystem::remove(path);
}

TEST(StreamDistiller, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(stream_distill(tmp("nonexistent.tmtr")), std::runtime_error);
}

TEST(WindowVerdict, DamagedOrShedIsUnauditableNeverBreach) {
  WindowSummary clean;
  EXPECT_EQ(audit::window_verdict(clean), audit::Verdict::kPass);

  WindowSummary damaged;
  damaged.damaged = true;
  EXPECT_EQ(audit::window_verdict(damaged), audit::Verdict::kUnauditable);

  WindowSummary shed;
  shed.shed = true;
  EXPECT_EQ(audit::window_verdict(shed), audit::Verdict::kUnauditable);

  WindowSummary both;
  both.damaged = both.shed = true;
  EXPECT_EQ(audit::window_verdict(both), audit::Verdict::kUnauditable);

  // Exhaustive: no WindowSummary state can produce kBreach.
  for (int d = 0; d < 2; ++d) {
    for (int s = 0; s < 2; ++s) {
      WindowSummary w;
      w.damaged = d != 0;
      w.shed = s != 0;
      EXPECT_NE(audit::window_verdict(w), audit::Verdict::kBreach);
    }
  }
}

TEST(JournalProbe, ToleratesArbitraryBytes) {
  // The fuzz surface, pinned deterministically: torn, lying, and hostile
  // inputs parse to zero-or-more intact frames without crash or throw.
  EXPECT_EQ(probe_checkpoint_journal(nullptr, 0), 0u);
  const std::string junk = "TMDJ\x01\x00\xff\xff\xff\xff not a journal";
  EXPECT_EQ(probe_checkpoint_journal(junk.data(), junk.size()), 0u);
  // A length prefix claiming 4 GB on a 32-byte input must not allocate.
  std::string lying = "TMDJ";
  lying.append("\x01\x00\xde\xad\xbe\xef", 6);
  lying.push_back('\x02');                      // window frame
  lying.append("\xff\xff\xff\xff", 4);          // len: 4 GB
  lying.append("\x00\x00\x00\x00", 4);          // crc
  lying.append(16, '\x00');
  EXPECT_EQ(probe_checkpoint_journal(lying.data(), lying.size()), 0u);
}

}  // namespace
}  // namespace tracemod::core
