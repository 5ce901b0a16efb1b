// Figure 7: Elapsed Times for the FTP Benchmark.
//
// 10 MB disk-to-disk transfers, send and receive reported separately.  The
// benchmark is network-limited and exposes the symmetry assumption forced
// by unsynchronized clocks: real WaveLAN performance is asymmetric (send
// slower than receive on marginal uplinks), while modulated send and
// receive land near the mean of the two real directions.
#include "observers.hpp"
#include "report.hpp"
#include "scenarios/experiment.hpp"
#include "sim/task_pool.hpp"

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
  cfg.compensation_vb = measure_compensation_vb();
  bench::rowf("%-11s %-5s | %16s %16s | %16s %16s | %s", "scenario", "dir",
              "real(s)", "modulated(s)", "paper real", "paper mod", "check");

  // Cells come scenario-major, send before recv; both directions share
  // their scenario's traces, so each trace is audited once.
  sim::TaskPool pool;
  const SweepResult sweep =
      run_sweep(&pool, all_scenarios(),
                {BenchmarkKind::kFtpSend, BenchmarkKind::kFtpRecv}, cfg);
  for (const CellResult& c : sweep.cells) {
    const bool send = c.kind == BenchmarkKind::kFtpSend;
    const std::string dir = send ? "send" : "recv";
    const PaperRow* p = nullptr;
    for (const auto& row : kPaper) {
      if (c.scenario == row.scenario) p = &row;
    }
    obs.add_telemetry(c.live, c.scenario + "/" + dir + "/live");
    obs.add_telemetry(c.modulated, c.scenario + "/" + dir + "/mod");
    const Summary r = summarize_elapsed(c.live);
    const Summary m = summarize_elapsed(c.modulated);
    bench::rowf("%-11s %-5s | %16s %16s | %7.2f (%6.2f) %7.2f (%6.2f) | %s",
                c.scenario.c_str(), dir.c_str(), cell(r).c_str(),
                cell(m).c_str(), send ? p->send_mean : p->recv_mean,
                send ? p->send_sd : p->recv_sd,
                send ? p->msend_mean : p->mrecv_mean,
                send ? p->msend_sd : p->mrecv_sd,
                check_label(r, m).c_str());
  }
  for (const auto& reports : sweep.audits) obs.add_audits(reports, "");
  for (const bool send : {true, false}) {
    const std::vector<BenchmarkOutcome>& eth_trials =
        sweep.ethernet[send ? 0 : 1];
    obs.add_telemetry(eth_trials,
                      std::string("ethernet/") + (send ? "send" : "recv"));
    const Summary eth = summarize_elapsed(eth_trials);
    bench::rowf("%-11s %-5s | %16s %16s | %7.2f (%6.2f) %16s |", "Ethernet",
                send ? "send" : "recv", cell(eth).c_str(), "-",
                send ? 20.50 : 18.83, send ? 0.08 : 0.17, "-");
  }
  bench::rowf(
      "\nExpected shape: real send > real recv (asymmetric WaveLAN);\n"
      "modulated send ~ modulated recv, both near the mean of the real\n"
      "directions (the symmetry assumption, Section 5.3); Ethernet ~ 20 s.");
  const int rc = obs.write_exports();
  obs.status().finish(rc);
  return rc;
}
