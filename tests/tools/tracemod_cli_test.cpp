// The tracemod exit-code and flag contract (tools/tracemod_cli.hpp):
// usage errors, I/O errors, salvage, and fidelity breaches each map to a
// distinct code, and every malformed invocation is rejected before any
// side effect.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/distiller.hpp"
#include "core/model.hpp"
#include "scenarios/campus.hpp"
#include "sim/status/status.hpp"
#include "trace/records.hpp"
#include "trace/stream_reader.hpp"
#include "trace/trace_io.hpp"
#include "tracemod_cli.hpp"

namespace tracemod::cli {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_cli_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(TracemodCli, ExitCodesArePinnedAndDistinct) {
  // The exit-code contract is external API (CI and scripts match on the
  // numbers; README.md carries the full 0-6 table): never renumber.  5 is
  // the supervised sweep's completed-with-degraded-cells code
  // (`tracemod sweep`); 6 is reserved by the benchmark build guard and
  // never returned by tracemod itself.
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitUsage, 1);
  EXPECT_EQ(kExitIo, 2);
  EXPECT_EQ(kExitSalvage, 3);
  EXPECT_EQ(kExitAudit, 4);
  EXPECT_EQ(kExitDegraded, 5);
  EXPECT_EQ(kExitNonReleaseBuild, 6);
}

TEST(TracemodCli, NoCommandIsAUsageError) {
  EXPECT_EQ(run({}), kExitUsage);
}

TEST(TracemodCli, UnknownCommandIsAUsageError) {
  EXPECT_EQ(run({"bogus"}), kExitUsage);
  EXPECT_EQ(run({"--help"}), kExitUsage);
}

TEST(TracemodCli, UnknownFlagIsAUsageError) {
  EXPECT_EQ(run({"synth", "wavelan", tmp("x.replay"), "--bogus"}),
            kExitUsage);
  EXPECT_EQ(run({"audit", tmp("x.replay"), "--frobnicate", "2"}),
            kExitUsage);
}

TEST(TracemodCli, MissingFlagValueIsAUsageError) {
  EXPECT_EQ(run({"synth", "wavelan", tmp("x.replay"), "--seconds"}),
            kExitUsage);
  EXPECT_EQ(run({"synth", "wavelan", tmp("x.replay"), "--seconds="}),
            kExitUsage);
  // A flag without a value cannot be given one.
  EXPECT_EQ(run({"distill", tmp("in.trace"), tmp("out.replay"),
                 "--salvage=1"}),
            kExitUsage);
}

TEST(TracemodCli, NonNumericFlagValueIsAUsageError) {
  EXPECT_EQ(run({"synth", "wavelan", tmp("x.replay"), "--seconds", "soon"}),
            kExitUsage);
  EXPECT_EQ(run({"audit", tmp("x.replay"), "--tick", "10ms"}), kExitUsage);
  // Seeds are exact unsigned integers: no sign, no fraction.
  EXPECT_EQ(run({"collect", "porter", tmp("x.trace"), "--seed", "-1"}),
            kExitUsage);
  EXPECT_EQ(run({"collect", "porter", tmp("x.trace"), "--seed", "1.5"}),
            kExitUsage);
}

TEST(TracemodCli, WrongPositionalCountIsAUsageError) {
  EXPECT_EQ(run({"synth", "wavelan"}), kExitUsage);
  EXPECT_EQ(run({"info"}), kExitUsage);
  EXPECT_EQ(run({"info", "a", "b"}), kExitUsage);
  EXPECT_EQ(run({"audit"}), kExitUsage);
}

TEST(TracemodCli, UnknownScenarioOrKindIsAUsageError) {
  EXPECT_EQ(run({"collect", "atlantis", tmp("x.trace")}), kExitUsage);
  EXPECT_EQ(run({"synth", "martian", tmp("x.replay")}), kExitUsage);
}

TEST(TracemodCli, MissingInputIsAnIoError) {
  EXPECT_EQ(run({"info", tmp("nonexistent")}), kExitIo);
  EXPECT_EQ(run({"audit", tmp("nonexistent.replay")}), kExitIo);
  EXPECT_EQ(run({"verify", tmp("nonexistent.trace")}), kExitIo);
}

TEST(TracemodCli, SynthInfoRoundTripSucceeds) {
  const std::string path = tmp("ok.replay");
  EXPECT_EQ(run({"synth", "wavelan", path, "--seconds", "30"}), kExitOk);
  EXPECT_EQ(run({"info", path}), kExitOk);
}

trace::CollectedTrace sample_trace() {
  trace::CollectedTrace t;
  for (int i = 0; i < 40; ++i) {
    trace::PacketRecord p;
    p.at = sim::kEpoch + sim::milliseconds(100 * i);
    p.protocol = net::Protocol::kIcmp;
    p.ip_bytes = 600;
    p.icmp_kind = trace::IcmpKind::kEchoReply;
    p.icmp_seq = static_cast<std::uint16_t>(i);
    p.echo_origin = sim::kEpoch + sim::milliseconds(100 * i - 20);
    t.records.emplace_back(p);
  }
  return t;
}

TEST(TracemodCli, VerifyDistinguishesCleanFromSalvageable) {
  const std::string clean = tmp("clean.trace");
  trace::save_trace(clean, sample_trace());
  EXPECT_EQ(run({"verify", clean}), kExitOk);

  const std::string damaged = tmp("damaged.trace");
  EXPECT_EQ(run({"corrupt", clean, damaged, "--seed", "3", "--flips", "8"}),
            kExitOk);
  EXPECT_EQ(run({"verify", damaged}), kExitSalvage);
}

TEST(TracemodCli, AuditPassesFaithfulAndFlagsPerturbedModulation) {
  const std::string path = tmp("audit.replay");
  ASSERT_EQ(run({"synth", "wavelan", path, "--seconds", "60"}), kExitOk);

  const std::string json = tmp("verdict.json");
  EXPECT_EQ(run({"audit", path, "--baseline-seconds", "10", "--json", json}),
            kExitOk);
  std::ifstream verdict(json);
  ASSERT_TRUE(verdict.good());
  std::string contents((std::istreambuf_iterator<char>(verdict)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"verdict\": \"pass\""), std::string::npos);

  // The acceptance drill: a deliberately perturbed modulation config (a
  // doubled tick quantum) must exit with the distinct audit code.
  EXPECT_EQ(run({"audit", path, "--tick", "20", "--baseline-seconds", "10"}),
            kExitAudit);
}

TEST(TracemodCli, PerfRejectsMalformedInvocations) {
  EXPECT_EQ(run({"perf"}), kExitUsage);  // missing output prefix
  EXPECT_EQ(run({"perf", tmp("p"), "--campus", "--pipeline", "porter"}),
            kExitUsage);  // exclusive modes
  for (const std::string flag : {"--stride", "--top"}) {
    for (const std::string value : {"0", "2.5", "nan"}) {
      EXPECT_EQ(run({"perf", tmp("p"), flag, value}), kExitUsage)
          << flag << " " << value;
    }
  }
  EXPECT_EQ(run({"perf", tmp("p"), "--benchmark", "bogus"}), kExitUsage);
  EXPECT_EQ(run({"perf", tmp("p"), "--pipeline", "atlantis"}), kExitUsage);
  // Flags the chosen mode never reads: each used to profile a different
  // run than the one asked for (the distilled Porter trace instead of
  // --replay, a campus that never opened its --replay) and exit 0.
  const std::vector<std::vector<std::string>> out_of_mode = {
      {"--pipeline", "porter", "--replay", tmp("any.replay")},
      {"--pipeline", "porter", "--seconds", "30"},
      {"--pipeline", "porter", "--hosts", "10"},
      {"--pipeline", "porter", "--cell", "100"},
      {"--pipeline", "porter", "--threads", "2"},
      {"--campus", "--replay", tmp("nonexist.replay")},
      {"--campus", "--benchmark", "web"},
      {"--hosts", "10"},
      {"--cell", "100"},
      {"--threads", "2"},
      {"--replay", tmp("nonexist.replay"), "--seconds", "30"},
  };
  for (const std::vector<std::string>& flags : out_of_mode) {
    std::vector<std::string> args = {"perf", tmp("p")};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EQ(run(args), kExitUsage) << testing::PrintToString(flags);
  }
}

TEST(TracemodCli, PerfWritesTheV1ReportAndSidecars) {
  const std::string prefix = tmp("perfrun");
  ASSERT_EQ(run({"perf", prefix, "--seconds", "30"}), kExitOk);

  std::ifstream json(prefix + ".perf.json");
  ASSERT_TRUE(json.good());
  std::string contents((std::istreambuf_iterator<char>(json)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"schema\": \"tracemod-perf-v1\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"workload\": \"benchmark-ftp-recv\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"hotspots\""), std::string::npos);

  std::ifstream folded(prefix + ".folded.txt");
  ASSERT_TRUE(folded.good());
  std::string stacks((std::istreambuf_iterator<char>(folded)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(stacks.find("event_loop;"), std::string::npos);

  std::ifstream counters(prefix + ".perf-counters.json");
  ASSERT_TRUE(counters.good());
  std::string tracks((std::istreambuf_iterator<char>(counters)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(tracks.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(tracks.find("perf.heap_live_bytes"), std::string::npos);
}

TEST(TracemodCli, PerfCampusMatchesUnprofiledCampusDigest) {
  // Virtual-time identity at the CLI surface: profiling a campus run must
  // leave its digest exactly where `tracemod campus` puts it.
  const std::string prefix = tmp("perfcampus");
  ASSERT_EQ(run({"perf", prefix, "--campus", "--hosts", "50", "--seconds",
                 "2"}),
            kExitOk);
  std::ifstream json(prefix + ".perf.json");
  ASSERT_TRUE(json.good());
  std::string contents((std::istreambuf_iterator<char>(json)),
                       std::istreambuf_iterator<char>());
  const std::size_t at = contents.find("\"digest\": \"");
  ASSERT_NE(at, std::string::npos);
  const std::string profiled_digest = contents.substr(at + 11, 16);

  scenarios::CampusConfig cfg;
  cfg.hosts = 50;
  cfg.horizon = sim::from_seconds(2);
  cfg.seed = 42;  // cmd_campus and cmd_perf default
  const scenarios::CampusResult plain = scenarios::run_campus(cfg);
  char expect[32];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(plain.digest));
  EXPECT_EQ(profiled_digest, expect);
}

TEST(TracemodCli, VersionCommandSucceedsInBothSpellings) {
  EXPECT_EQ(run({"version"}), kExitOk);
  EXPECT_EQ(run({"--version"}), kExitOk);
  EXPECT_EQ(run({"version", "extra"}), kExitUsage);
}

TEST(TracemodCli, StatusCommandDistinguishesMissingFromDamaged) {
  EXPECT_EQ(run({"status"}), kExitUsage);
  EXPECT_EQ(run({"status", tmp("nonexistent.status")}), kExitIo);

  // A file that is not a TMST snapshot is damage, not absence.
  const std::string garbage = tmp("garbage.status");
  std::ofstream(garbage) << "this is not a status file";
  EXPECT_EQ(run({"status", garbage}), kExitIo);
  EXPECT_EQ(run({"status", garbage, "--json"}), kExitIo);
}

TEST(TracemodCli, CampusStatusLeavesAReadableFinishedSnapshot) {
  // Both spellings of the value flag arm the same board.
  ASSERT_EQ(run({"campus", "--hosts", "50", "--seconds", "2",
                 "--status=" + tmp("campusstatus_eq")}),
            kExitOk);
  EXPECT_EQ(run({"status", tmp("campusstatus_eq") + ".status"}), kExitOk);
  // An unwritable prefix is an I/O error before any work runs.
  EXPECT_EQ(run({"campus", "--hosts", "50", "--seconds", "2", "--status",
                 tmp("no_such_dir/x/campus")}),
            kExitIo);

  const std::string prefix = tmp("campusstatus");
  ASSERT_EQ(run({"campus", "--hosts", "50", "--seconds", "2", "--status",
                 prefix}),
            kExitOk);
  // Both renderings read the snapshot back cleanly.
  EXPECT_EQ(run({"status", prefix + ".status"}), kExitOk);
  EXPECT_EQ(run({"status", prefix + ".status", "--json"}), kExitOk);

  // A truncated snapshot (the torn-write drill) flips to the I/O code.
  std::ifstream in(prefix + ".status", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);
  const std::string torn = tmp("torn.status");
  std::ofstream(torn, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  EXPECT_EQ(run({"status", torn}), kExitIo);
}

TEST(TracemodCli, SweepMatchesTheSeedGolden) {
  testing::internal::CaptureStdout();
  const int rc = run({"sweep", "--serial", "--trials", "1", "--scenarios",
                      "wean", "--benchmarks", "web"});
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, kExitOk);
  // The thread-count and wall-clock lines are the only ones that may vary.
  std::istringstream lines(out);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("wall clock") != std::string::npos ||
        line.find("thread(s)") != std::string::npos) {
      continue;
    }
    kept += line + "\n";
  }
  std::ifstream golden(TRACEMOD_TEST_DIR "/golden/sweep_wean_web.txt");
  ASSERT_TRUE(golden.good());
  const std::string expected((std::istreambuf_iterator<char>(golden)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, expected);
}

TEST(TracemodCli, SweepRejectsMalformedFlags) {
  const std::vector<std::string> small = {"sweep", "--serial", "--scenarios",
                                          "wean", "--benchmarks", "web"};
  auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = small;
    args.insert(args.end(), extra);
    return run(args);
  };
  EXPECT_EQ(with({"--trials", "abc"}), kExitUsage);
  EXPECT_EQ(with({"--threads", "-1"}), kExitUsage);
  EXPECT_EQ(with({"--seed", "-5"}), kExitUsage);
  EXPECT_EQ(with({"--telemetry"}), kExitUsage);
  // An unwritable status prefix fails before any trial runs.
  EXPECT_EQ(with({"--trials", "1", "--status", tmp("no_such_dir/x/s")}),
            kExitIo);
}

TEST(TracemodCli, DistillRejectsANonPositiveOrNonFiniteWindowOrStep) {
  // Rejected before the input is opened (a missing input would exit 2).
  // 1e-10 s truncates to 0 ns on the simulator's clock.
  const std::string in = tmp("nonexistent.trace");
  const std::string out = tmp("never.replay");
  for (const std::string flag : {"--step", "--window"}) {
    for (const std::string value : {"0", "-5", "nan", "inf", "1e-10"}) {
      EXPECT_EQ(run({"distill", in, out, flag, value}), kExitUsage)
          << flag << " " << value;
    }
  }
}

TEST(TracemodCli, SynthReportAndGenCorpusRejectNonPositiveOrNonFiniteValues) {
  // Rejected before anything runs or is written.  Each used to exit 0
  // after doing something else: a 0-tuple replay, an unmodulated report
  // (the Ethernet figure), a corpus with no records or no loss, or a run
  // that never ended (--interval nan, --target-mb nan).  1e-10 s
  // truncates to 0 ns on the simulator's clock.
  const std::string corpus = tmp("never.trace");
  std::remove(corpus.c_str());
  std::remove(tmp("never.replay").c_str());
  for (const std::string value : {"0", "-5", "nan", "inf", "1e-10"}) {
    EXPECT_EQ(run({"synth", "wavelan", tmp("never.replay"), "--seconds",
                   value}),
              kExitUsage)
        << "synth --seconds " << value;
    EXPECT_EQ(run({"report", tmp("never"), "--seconds", value}), kExitUsage)
        << "report --seconds " << value;
    for (const std::string flag : {"--seconds", "--interval"}) {
      EXPECT_EQ(run({"gen-corpus", corpus, flag, value}), kExitUsage)
          << "gen-corpus " << flag << " " << value;
    }
  }
  for (const std::string value : {"nan", "inf", "-1"}) {
    EXPECT_EQ(run({"gen-corpus", corpus, "--seconds", "60", "--target-mb",
                   value}),
              kExitUsage)
        << "--target-mb " << value;
  }
  for (const std::string value : {"nan", "inf", "-0.1", "1.5"}) {
    EXPECT_EQ(run({"gen-corpus", corpus, "--seconds", "60", "--loss", value}),
              kExitUsage)
        << "--loss " << value;
  }
  EXPECT_FALSE(std::ifstream(tmp("never.replay")).good());
  EXPECT_FALSE(std::ifstream(corpus).good());
}

TEST(TracemodCli, CampusRejectsFractionalOrNonFiniteValues) {
  // Rejected before any world is built.  Each used to run something other
  // than what was asked (2 hosts for 2.5, the flat medium for a NaN cell,
  // no events for an infinite horizon) or abort (1e30 hosts).
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--hosts", "2.5"},   {"--hosts", "1e30"},    {"--hosts", "0"},
      {"--hosts", "-3"},    {"--seconds", "nan"},   {"--seconds", "inf"},
      {"--cell", "nan"},    {"--cell", "-inf"},     {"--wall-budget", "nan"},
      {"--wall-budget", "inf"}};
  for (const auto& [flag, value] : bad) {
    EXPECT_EQ(run({"campus", flag, value}), kExitUsage) << flag << " " << value;
    if (flag == "--wall-budget") continue;  // campus only
    EXPECT_EQ(run({"perf", tmp("never"), "--campus", flag, value}), kExitUsage)
        << "perf " << flag << " " << value;
  }
}

TEST(TracemodCli, DistillAcceptsAZeroCorpusWindow) {
  // --corpus-window 0 gives every record its own window; the replay is the
  // same as with the default 60 s windows.
  const std::string in = tmp("corpus_window.trace");
  const std::string plain = tmp("corpus_window_default.replay");
  const std::string zero = tmp("corpus_window_zero.replay");
  ASSERT_EQ(run({"gen-corpus", in, "--seconds", "90", "--loss", "0.1"}),
            kExitOk);
  ASSERT_EQ(run({"distill", in, plain}), kExitOk);
  ASSERT_EQ(run({"distill", in, zero, "--corpus-window", "0"}), kExitOk);
  ASSERT_FALSE(file_bytes(plain).empty());
  EXPECT_EQ(file_bytes(plain), file_bytes(zero));
}

/// `run(args)`'s exit code with its stdout and stderr.
struct Ran {
  int rc;
  std::string out;
  std::string err;
};

Ran run_captured(const std::vector<std::string>& args) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run(args);
  std::string out = testing::internal::GetCapturedStdout();
  return {rc, std::move(out), testing::internal::GetCapturedStderr()};
}

trace::PacketRecord echo(double at_s, trace::PacketDirection dir,
                         trace::IcmpKind kind, std::uint16_t seq) {
  trace::PacketRecord p;
  p.at = sim::kEpoch + sim::from_seconds(at_s);
  p.dir = dir;
  p.protocol = net::Protocol::kIcmp;
  p.ip_bytes = 60;
  p.icmp_kind = kind;
  p.icmp_seq = seq;
  return p;
}

TEST(TracemodCli, InfoSummarizesEveryRecordKind) {
  using trace::IcmpKind;
  using trace::PacketDirection;
  trace::CollectedTrace t;
  t.records.emplace_back(
      echo(0.25, PacketDirection::kOutgoing, IcmpKind::kEcho, 0));
  t.records.emplace_back(
      echo(0.5, PacketDirection::kIncoming, IcmpKind::kEchoReply, 0));
  t.records.emplace_back(
      echo(1.0, PacketDirection::kOutgoing, IcmpKind::kEcho, 1));
  t.records.emplace_back(
      trace::DeviceRecord{sim::kEpoch + sim::seconds(2), 18.5, 11.25, 2.0});
  t.records.emplace_back(trace::LostRecords{sim::kEpoch + sim::seconds(3), 3,
                                            1});
  // An outgoing reply is a packet but neither an echo sent nor a reply
  // received; so is a TCP segment.
  t.records.emplace_back(
      echo(4.0, PacketDirection::kOutgoing, IcmpKind::kEchoReply, 1));
  trace::PacketRecord tcp;
  tcp.at = sim::kEpoch + sim::seconds(5);
  tcp.protocol = net::Protocol::kTcp;
  tcp.ip_bytes = 1500;
  t.records.emplace_back(tcp);
  t.records.emplace_back(
      echo(6.0, PacketDirection::kOutgoing, IcmpKind::kEcho, 2));
  t.records.emplace_back(
      echo(6.5, PacketDirection::kIncoming, IcmpKind::kEchoReply, 2));
  t.records.emplace_back(
      trace::DeviceRecord{sim::kEpoch + sim::from_seconds(12.75), 17.0, 10.0,
                          1.5});
  const std::string path = tmp("info_kinds.trace");
  trace::save_trace(path, t);

  const Ran info = run_captured({"info", path});
  EXPECT_EQ(info.rc, kExitOk);
  EXPECT_EQ(info.out,
            "raw trace: 10 records over 12.5 s\n"
            "  packet records: 7 (3 echoes sent, 2 replies received)\n"
            "  device records: 2\n"
            "  loss markers:   1 (4 records lost to overruns)\n");
}

TEST(TracemodCli, InfoSummarizesAGeneratedCorpus) {
  const std::string path = tmp("info_corpus.trace");
  ASSERT_EQ(run_captured({"gen-corpus", path, "--seconds", "60",
                          "--target-mb", "0.2", "--loss", "0.1", "--seed",
                          "5"})
                .rc,
            kExitOk);
  const Ran info = run_captured({"info", path});
  EXPECT_EQ(info.rc, kExitOk);
  EXPECT_EQ(info.out,
            "raw trace: 5040 records over 60.0 s\n"
            "  packet records: 347 (180 echoes sent, 167 replies received)\n"
            "  device records: 4693\n"
            "  loss markers:   0 (0 records lost to overruns)\n");
}

/// A 600 s corpus with 10% reply loss, and a copy with 40 bit flips.
struct Corpora {
  std::string clean;
  std::string damaged;
};

Corpora clean_and_damaged(const std::string& name) {
  Corpora c{tmp(name + ".trace"), tmp(name + "_damaged.trace")};
  EXPECT_EQ(run_captured({"gen-corpus", c.clean, "--seconds", "600",
                          "--loss", "0.1", "--seed", "5"})
                .rc,
            kExitOk);
  EXPECT_EQ(run_captured({"corrupt", c.clean, c.damaged, "--seed", "3",
                          "--flips", "40"})
                .rc,
            kExitOk);
  return c;
}

std::string replay_bytes(const core::ReplayTrace& replay) {
  std::ostringstream out;
  replay.serialize(out);
  return out.str();
}

TEST(TracemodCli, DistillWritesTheInMemoryDistillersBytes) {
  const Corpora c = clean_and_damaged("distill_bytes");
  const std::string out = tmp("distill_bytes.replay");
  ASSERT_EQ(run_captured({"distill", c.clean, out}).rc, kExitOk);
  core::Distiller distiller;
  const std::string expected =
      replay_bytes(distiller.distill(trace::load_trace(c.clean)));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(file_bytes(out), expected);
}

TEST(TracemodCli, DistillRefusesADamagedTraceWithTheStrictError) {
  const Corpora c = clean_and_damaged("distill_refused");
  std::string strict_error;
  try {
    trace::load_trace(c.damaged);
  } catch (const trace::TraceFormatError& e) {
    strict_error = e.what();
  }
  ASSERT_FALSE(strict_error.empty());
  const std::string out = tmp("distill_refused.replay");
  std::remove(out.c_str());
  const Ran ran = run_captured({"distill", c.damaged, out});
  EXPECT_EQ(ran.rc, kExitIo);
  EXPECT_EQ(ran.err, "error: " + strict_error + "\n");
  EXPECT_FALSE(std::ifstream(out).good());
}

TEST(TracemodCli, DistillRefusesTheStreamAndThreadsFlags) {
  // Every distill streams on one thread; the flags that chose otherwise
  // are gone, so a valid input still exits 1 before it is read.
  const std::string in = tmp("removed_flags.trace");
  ASSERT_EQ(run_captured({"gen-corpus", in, "--seconds", "60"}).rc, kExitOk);
  const std::string out = tmp("removed_flags.replay");
  EXPECT_EQ(run_captured({"distill", in, out, "--stream"}).rc, kExitUsage);
  EXPECT_EQ(run_captured({"distill", in, out, "--threads", "2"}).rc,
            kExitUsage);
}

/// The replay the in-memory distiller makes from a salvage read.
std::string salvage_reference(const std::string& path) {
  const trace::TraceReadResult loaded =
      trace::load_trace_ex(path, {trace::ReadMode::kSalvage, nullptr});
  core::Distiller distiller;
  return replay_bytes(distiller.distill(loaded.trace));
}

TEST(TracemodCli, DistillSalvageReadsAroundDamageAndExitsThree) {
  const Corpora c = clean_and_damaged("distill_salvage");
  const std::string out = tmp("distill_salvage.replay");
  const std::string json = tmp("distill_salvage.json");
  const Ran ran =
      run_captured({"distill", c.damaged, out, "--salvage", "--json", json});
  EXPECT_EQ(ran.rc, kExitSalvage);
  EXPECT_NE(ran.out.find("[salvaged]"), std::string::npos) << ran.out;
  EXPECT_EQ(file_bytes(out), salvage_reference(c.damaged));
  EXPECT_NE(file_bytes(json).find("\"status\": \"salvaged\""),
            std::string::npos);
}

TEST(TracemodCli, DistillRefusesAnAbandonedCorpusUnlessSalvaging) {
  // A writer destroyed without finalize() leaves count 0 over every block
  // that reached the disk: no frame is damaged, but strict reading refuses
  // the body past the count, and so does distill.
  const std::string source = tmp("abandoned_src.trace");
  ASSERT_EQ(run_captured({"gen-corpus", source, "--seconds", "600", "--loss",
                          "0.1", "--seed", "5"})
                .rc,
            kExitOk);
  const std::string in = tmp("abandoned.trace");
  {
    std::ifstream src(source, std::ios::binary);
    trace::TraceStreamReader reader(src);
    trace::TraceStreamWriter writer(in);
    trace::TraceRecord rec;
    while (reader.next(&rec)) writer.append(rec);
    ASSERT_GT(writer.bytes_written(), 64u * 1024);
  }  // destroyed without finalize()

  const std::string out = tmp("abandoned.replay");
  const std::string json = tmp("abandoned.json");
  std::remove(out.c_str());
  std::remove(json.c_str());
  const Ran refused = run_captured({"distill", in, out, "--json", json});
  EXPECT_EQ(refused.rc, kExitIo);
  EXPECT_NE(refused.err.find("data past the declared record count of 0"),
            std::string::npos)
      << refused.err;
  EXPECT_EQ(refused.out, "");
  EXPECT_FALSE(std::ifstream(out).good());
  EXPECT_FALSE(std::ifstream(json).good());

  const Ran salvaged =
      run_captured({"distill", in, out, "--salvage", "--json", json});
  EXPECT_EQ(salvaged.rc, kExitSalvage);
  EXPECT_EQ(file_bytes(out), salvage_reference(in));
  EXPECT_NE(file_bytes(json).find("\"status\": \"salvaged\""),
            std::string::npos);
}

TEST(TracemodCli, DistillRefusesAResumedReportThatIsNotClean) {
  // A refused run still leaves its checkpoint journal.  Put the clean
  // bytes back (same size, same header, so the journal still matches) and
  // resume: the journal's report stands in for the scan, so the run is
  // refused though a strict read of the file now finds no damage.
  const std::string clean = tmp("resumed_report_clean.trace");
  const std::string in = tmp("resumed_report.trace");
  const std::string journal = tmp("resumed_report.tmdj");
  std::remove(journal.c_str());
  ASSERT_EQ(run_captured({"gen-corpus", clean, "--seconds", "600", "--loss",
                          "0.1", "--seed", "5"})
                .rc,
            kExitOk);
  ASSERT_EQ(run_captured({"corrupt", clean, in, "--seed", "3", "--flips",
                          "8", "--range-begin", "8192"})
                .rc,
            kExitOk);
  const std::string out = tmp("resumed_report.replay");
  std::remove(out.c_str());
  ASSERT_EQ(run_captured({"distill", in, out, "--checkpoint", journal}).rc,
            kExitIo);
  ASSERT_TRUE(std::ifstream(journal).good());

  std::filesystem::copy_file(clean, in,
                             std::filesystem::copy_options::overwrite_existing);
  const Ran resumed = run_captured(
      {"distill", in, out, "--checkpoint", journal, "--resume"});
  EXPECT_EQ(resumed.rc, kExitIo);
  EXPECT_NE(resumed.err.find("error: refusing " + in + ": its scan read "),
            std::string::npos)
      << resumed.err;
  EXPECT_FALSE(std::ifstream(out).good());
}

TEST(TracemodCli, DistillWritesItsJson) {
  const std::string in = tmp("distill_json.trace");
  ASSERT_EQ(run_captured({"gen-corpus", in, "--seconds", "90"}).rc, kExitOk);
  const std::string json = tmp("distill_json.json");
  std::remove(json.c_str());
  const Ran ran = run_captured(
      {"distill", in, tmp("distill_json.replay"), "--json", json});
  EXPECT_EQ(ran.rc, kExitOk);
  const std::string doc = file_bytes(json);
  EXPECT_NE(doc.find("\"schema\": \"tracemod-distill-v1\""),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"status\": \"ok\""), std::string::npos) << doc;
}

TEST(TracemodCli, DistillBudgetShedsToExitFive) {
  const std::string in = tmp("distill_budget.trace");
  ASSERT_EQ(run_captured({"gen-corpus", in, "--seconds", "600"}).rc, kExitOk);
  const Ran ran = run_captured({"distill", in, tmp("distill_budget.replay"),
                                "--budget-mb", "0.01"});
  EXPECT_EQ(ran.rc, kExitDegraded);
  EXPECT_NE(ran.out.find("[degraded]"), std::string::npos) << ran.out;
}

TEST(TracemodCli, DistillStatusPublishesAFinishedSnapshot) {
  const std::string in = tmp("distill_status.trace");
  ASSERT_EQ(run_captured({"gen-corpus", in, "--seconds", "90"}).rc, kExitOk);
  const std::string prefix = tmp("distill_status");
  ASSERT_EQ(run_captured({"distill", in, tmp("distill_status.replay"),
                          "--status", prefix})
                .rc,
            kExitOk);
  const sim::status::StatusReadResult r =
      sim::status::read_status_file(prefix + ".status");
  ASSERT_EQ(r.status, sim::status::StatusReadStatus::kOk) << r.message;
  EXPECT_EQ(r.snapshot.driver, "distill");
  EXPECT_TRUE(r.snapshot.finished);
  EXPECT_EQ(r.snapshot.exit_code, kExitOk);
}

TEST(TracemodCli, CampusStatusOffDigestMatchesStatusOn) {
  // The zero-perturbation contract at the CLI surface: --status must not
  // move the campus digest.
  const std::string plain_json = tmp("campus_plain.json");
  const std::string status_json = tmp("campus_status.json");
  ASSERT_EQ(run({"campus", "--hosts", "50", "--seconds", "2", "--json",
                 plain_json}),
            kExitOk);
  ASSERT_EQ(run({"campus", "--hosts", "50", "--seconds", "2", "--json",
                 status_json, "--status", tmp("campus_digest")}),
            kExitOk);
  auto digest_of = [](const std::string& path) {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const std::size_t at = contents.find("\"digest\": \"");
    if (at == std::string::npos) return std::string();
    const std::size_t start = at + 11;
    return contents.substr(start, contents.find('"', start) - start);
  };
  const std::string plain = digest_of(plain_json);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, digest_of(status_json));
}

TEST(TracemodCli, CampusJsonKeepsTheDigestsLeadingZero) {
  // This world's digest starts with a zero; --json must spell it with all
  // 16 digits, as stdout and `tracemod perf --campus` do.
  const std::string json = tmp("campus_seed11.json");
  ASSERT_EQ(run({"campus", "--hosts", "20", "--seconds", "1", "--seed", "11",
                 "--json", json}),
            kExitOk);
  const std::string contents = file_bytes(json);
  EXPECT_NE(contents.find("\"digest\": \"066a301ae2fd1e28\"\n"),
            std::string::npos)
      << contents;
}

TEST(TracemodCli, AuditThresholdFlagsAreHonored) {
  const std::string path = tmp("strict.replay");
  ASSERT_EQ(run({"synth", "wavelan", path, "--seconds", "60"}), kExitOk);
  // An impossible ceiling turns the faithful run into a breach.
  EXPECT_EQ(run({"audit", path, "--baseline-seconds", "10", "--max-latency",
                 "0.0001"}),
            kExitAudit);
}

}  // namespace
}  // namespace tracemod::cli
