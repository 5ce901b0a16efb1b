// Figure 6: Elapsed Times for the World Wide Web Benchmark.
//
// Web reference traces are replayed as fast as possible against a private
// server: four live trials per scenario, four collected traces distilled
// and replayed for four modulated trials, plus the bare-Ethernet row.
// The paper's accuracy criterion: the difference between real and
// modulated means is within the sum of their standard deviations.
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
  double real_mean, real_sd, mod_mean, mod_sd;
};
constexpr PaperRow kPaper[] = {
    {"Wean", 161.47, 7.82, 160.04, 2.60},
    {"Porter", 159.83, 5.07, 150.65, 5.83},
    {"Flagstaff", 157.82, 6.58, 148.64, 9.61},
    {"Chatterbox", 169.07, 17.63, 157.62, 10.18},
};
constexpr double kPaperEthernet = 140.30;
constexpr double kPaperEthernetSd = 3.07;
}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  const cli::Parsed cmdline = cli::parse(
      "fig6_web_benchmark", std::vector<std::string>(argv + 1, argv + argc),
      cli::Observers::declare({{"--allow-debug", false}}), 0, 0);
  if (cmdline.failed) return cli::kExitUsage;
  ExperimentConfig cfg;
  cli::Observers obs;
  const int armed = obs.arm(cmdline, "fig6-web", &cfg);
  if (armed != cli::kExitOk) return armed;
  bench::heading("Figure 6: Elapsed Times for World Wide Web Benchmark",
                 "mean (stddev) seconds over 4 trials");
  cfg.compensation_vb = measure_compensation_vb();
  bench::rowf("%-11s | %18s %18s | %18s %18s | %s", "scenario", "real(s)",
              "modulated(s)", "paper real", "paper mod", "check");

  sim::TaskPool pool;
  const SweepResult sweep =
      run_sweep(&pool, all_scenarios(), {BenchmarkKind::kWeb}, cfg);
  for (const CellResult& c : sweep.cells) {
    obs.add_telemetry(c.live, c.scenario + "/live");
    obs.add_telemetry(c.modulated, c.scenario + "/mod");
    const Summary r = summarize_elapsed(c.live);
    const Summary m = summarize_elapsed(c.modulated);
    const PaperRow* p = nullptr;
    for (const auto& row : kPaper) {
      if (c.scenario == row.scenario) p = &row;
    }
    bench::rowf("%-11s | %18s %18s | %9.2f (%5.2f) %9.2f (%5.2f) | %s",
                c.scenario.c_str(), cell(r).c_str(), cell(m).c_str(),
                p->real_mean, p->real_sd, p->mod_mean, p->mod_sd,
                check_label(r, m).c_str());
  }
  for (const auto& reports : sweep.audits) obs.add_audits(reports, "");
  const std::vector<BenchmarkOutcome>& eth_trials = sweep.ethernet[0];
  obs.add_telemetry(eth_trials, "ethernet");
  const Summary eth = summarize_elapsed(eth_trials);
  bench::rowf("%-11s | %18s %18s | %9.2f (%5.2f) %18s |", "Ethernet",
              cell(eth).c_str(), "-", kPaperEthernet, kPaperEthernetSd, "-");
  bench::rowf(
      "\nExpected shape: all four scenarios within error; every wireless\n"
      "scenario slower than Ethernet; Chatterbox the most variable.");
  const int rc = obs.write_exports();
  obs.status().finish(rc);
  return rc;
}
