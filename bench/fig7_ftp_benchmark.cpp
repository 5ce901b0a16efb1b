// Figure 7: Elapsed Times for the FTP Benchmark.
//
// 10 MB disk-to-disk transfers, send and receive reported separately.  The
// benchmark is network-limited and exposes the symmetry assumption forced
// by unsynchronized clocks: real WaveLAN performance is asymmetric (send
// slower than receive on marginal uplinks), while modulated send and
// receive land near the mean of the two real directions.
#include "observers.hpp"
#include "report.hpp"
#include "scenarios/parallel_runner.hpp"

#include "build_guard.hpp"

using namespace tracemod;
using namespace tracemod::scenarios;

namespace {
struct PaperRow {
  const char* scenario;
  double send_mean, send_sd, recv_mean, recv_sd;      // real
  double msend_mean, msend_sd, mrecv_mean, mrecv_sd;  // modulated
};
constexpr PaperRow kPaper[] = {
    {"Wean", 79.88, 10.88, 64.93, 0.93, 72.65, 3.33, 67.83, 2.34},
    {"Porter", 86.38, 4.94, 82.23, 1.92, 76.65, 4.29, 72.95, 4.01},
    {"Flagstaff", 88.15, 1.60, 61.85, 1.12, 74.88, 2.97, 70.80, 3.36},
    {"Chatterbox", 116.83, 30.49, 96.83, 42.15, 92.13, 20.13, 87.28, 17.18},
};
}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  const cli::Parsed cmdline = cli::parse(
      "fig7_ftp_benchmark", std::vector<std::string>(argv + 1, argv + argc),
      cli::Observers::declare({{"--allow-debug", false}}), 0, 0);
  if (cmdline.failed) return cli::kExitUsage;
  ExperimentConfig cfg;
  cli::Observers obs;
  const int armed = obs.arm(cmdline, "fig7-ftp", &cfg);
  if (armed != cli::kExitOk) return armed;
  bench::heading("Figure 7: Elapsed Times for FTP Benchmark",
                 "10 MB disk-to-disk; mean (stddev) seconds over 4 trials");
  sim::status::StatusBoard& status = obs.status();
  status.set_units("scenarios", static_cast<double>(all_scenarios().size() + 1));
  cfg.compensation_vb = measure_compensation_vb();
  ParallelRunner runner;
  bench::rowf("%-11s %-5s | %16s %16s | %16s %16s | %s", "scenario", "dir",
              "real(s)", "modulated(s)", "paper real", "paper mod", "check");

  for (const Scenario& s : all_scenarios()) {
    status.set_phase(s.name);
    const auto traces = runner.replay_traces(s, cfg);
    // Traces are shared by both FTP directions; audit each trace once.
    if (cfg.audit.enabled) {
      obs.add_audits(runner.trace_audits(traces, cfg), s.name);
    }
    const PaperRow* p = nullptr;
    for (const auto& row : kPaper) {
      if (s.name == row.scenario) p = &row;
    }
    for (const bool send : {true, false}) {
      const BenchmarkKind kind =
          send ? BenchmarkKind::kFtpSend : BenchmarkKind::kFtpRecv;
      const std::string dir = send ? "send" : "recv";
      const auto live = runner.live_trials(s, kind, cfg);
      const auto modulated = runner.modulated_trials(traces, kind, cfg);
      obs.add_telemetry(live, s.name + "/" + dir + "/live");
      obs.add_telemetry(modulated, s.name + "/" + dir + "/mod");
      const Summary r = summarize_elapsed(live);
      const Summary m = summarize_elapsed(modulated);
      bench::rowf("%-11s %-5s | %16s %16s | %7.2f (%6.2f) %7.2f (%6.2f) | %s",
                  s.name.c_str(), send ? "send" : "recv", cell(r).c_str(),
                  cell(m).c_str(), send ? p->send_mean : p->recv_mean,
                  send ? p->send_sd : p->recv_sd,
                  send ? p->msend_mean : p->mrecv_mean,
                  send ? p->msend_sd : p->mrecv_sd,
                  check_label(r, m).c_str());
    }
    status.add_units_done();
  }
  status.set_phase("ethernet");
  for (const bool send : {true, false}) {
    const BenchmarkKind kind =
        send ? BenchmarkKind::kFtpSend : BenchmarkKind::kFtpRecv;
    const auto eth_trials = runner.ethernet_trials(kind, cfg);
    obs.add_telemetry(eth_trials,
                      std::string("ethernet/") + (send ? "send" : "recv"));
    const Summary eth = summarize_elapsed(eth_trials);
    bench::rowf("%-11s %-5s | %16s %16s | %7.2f (%6.2f) %16s |", "Ethernet",
                send ? "send" : "recv", cell(eth).c_str(), "-",
                send ? 20.50 : 18.83, send ? 0.08 : 0.17, "-");
  }
  status.add_units_done();
  bench::rowf(
      "\nExpected shape: real send > real recv (asymmetric WaveLAN);\n"
      "modulated send ~ modulated recv, both near the mean of the real\n"
      "directions (the symmetry assumption, Section 5.3); Ethernet ~ 20 s.");
  const int rc = obs.write_exports();
  status.finish(rc);
  return rc;
}
