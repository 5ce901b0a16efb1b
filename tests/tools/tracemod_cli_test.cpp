// The tracemod exit-code and flag contract (tools/tracemod_cli.hpp):
// usage errors, I/O errors, salvage, and fidelity breaches each map to a
// distinct code, and every malformed invocation is rejected before any
// side effect.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "scenarios/campus.hpp"
#include "trace/records.hpp"
#include "trace/trace_io.hpp"
#include "tracemod_cli.hpp"

namespace tracemod::cli {
namespace {

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_cli_" + name;
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
  EXPECT_EQ(run({"perf", tmp("p"), "--stride", "0"}), kExitUsage);
  EXPECT_EQ(run({"perf", tmp("p"), "--benchmark", "bogus"}), kExitUsage);
  EXPECT_EQ(run({"perf", tmp("p"), "--pipeline", "atlantis"}), kExitUsage);
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

TEST(TracemodCli, DistillStatusRequiresTheStreamingPath) {
  EXPECT_EQ(run({"distill", tmp("in.trace"), tmp("out.replay"), "--status",
                 tmp("s")}),
            kExitUsage);
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
      EXPECT_EQ(run({"distill", in, out, flag, value, "--stream"}),
                kExitUsage)
          << flag << " " << value << " --stream";
    }
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
  ASSERT_EQ(run({"distill", in, plain, "--stream"}), kExitOk);
  ASSERT_EQ(run({"distill", in, zero, "--stream", "--corpus-window", "0"}),
            kExitOk);
  auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  };
  ASSERT_FALSE(slurp(plain).empty());
  EXPECT_EQ(slurp(plain), slurp(zero));
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
