// Figure 8: Elapsed Times for Andrew Benchmark Phases.
//
// The Andrew benchmark over NFS/UDP: MakeDir, Copy, ScanDir, ReadAll,
// Make, plus the total.  The paper's headline artifact appears here: the
// status-check-dominated phases (ScanDir, ReadAll) are *under-delayed* in
// modulation because many short NFS messages compute delays below half the
// 10 ms scheduling tick and are sent immediately (Section 5.4).
#include <vector>

#include "observers.hpp"
#include "report.hpp"
#include "scenarios/experiment.hpp"
#include "sim/task_pool.hpp"

#include "build_guard.hpp"

using namespace tracemod;
using namespace tracemod::scenarios;

namespace {

struct PhaseSummary {
  Summary makedir, copy, scandir, readall, make, total;
};

PhaseSummary summarize_phases(const std::vector<BenchmarkOutcome>& outcomes) {
  std::vector<double> md, cp, sd, ra, mk, tt;
  for (const auto& o : outcomes) {
    md.push_back(o.andrew.makedir_s);
    cp.push_back(o.andrew.copy_s);
    sd.push_back(o.andrew.scandir_s);
    ra.push_back(o.andrew.readall_s);
    mk.push_back(o.andrew.make_s);
    tt.push_back(o.andrew.total_s);
  }
  return PhaseSummary{summarize(md), summarize(cp), summarize(sd),
                      summarize(ra), summarize(mk), summarize(tt)};
}

void print_row(const char* scenario, const char* kind,
               const PhaseSummary& p) {
  bench::rowf("%-11s %-5s %13s %15s %15s %15s %16s %16s", scenario, kind,
              cell(p.makedir).c_str(), cell(p.copy).c_str(),
              cell(p.scandir).c_str(), cell(p.readall).c_str(),
              cell(p.make).c_str(), cell(p.total).c_str());
}

struct PaperTotals {
  const char* scenario;
  double real_mean, real_sd, mod_mean, mod_sd;
};
constexpr PaperTotals kPaper[] = {
    {"Wean", 163.00, 4.40, 162.75, 4.86},
    {"Porter", 169.50, 5.45, 151.00, 14.09},
    {"Flagstaff", 177.00, 4.69, 145.75, 5.91},
    {"Chatterbox", 180.75, 27.61, 202.75, 50.79},
};

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  const cli::Parsed cmdline = cli::parse(
      "fig8_andrew_benchmark", std::vector<std::string>(argv + 1, argv + argc),
      cli::Observers::declare({{"--allow-debug", false}}), 0, 0);
  if (cmdline.failed) return cli::kExitUsage;
  ExperimentConfig cfg;
  cli::Observers obs;
  const int armed = obs.arm(cmdline, "fig8-andrew", &cfg);
  if (armed != cli::kExitOk) return armed;
  bench::heading("Figure 8: Elapsed Times for Andrew Benchmark Phases",
                 "mean (stddev) seconds over 4 trials; NFS over UDP");
  cfg.compensation_vb = measure_compensation_vb();
  bench::rowf("%-11s %-5s %13s %15s %15s %15s %16s %16s", "scenario", "",
              "MakeDir(s)", "Copy(s)", "ScanDir(s)", "ReadAll(s)", "Make(s)",
              "Total(s)");

  sim::TaskPool pool;
  const SweepResult sweep =
      run_sweep(&pool, all_scenarios(), {BenchmarkKind::kAndrew}, cfg);
  for (const CellResult& c : sweep.cells) {
    obs.add_telemetry(c.live, c.scenario + "/live");
    obs.add_telemetry(c.modulated, c.scenario + "/mod");
    const PhaseSummary rp = summarize_phases(c.live);
    const PhaseSummary mp = summarize_phases(c.modulated);
    print_row(c.scenario.c_str(), "Real", rp);
    print_row("", "Mod.", mp);
    const PaperTotals* p = nullptr;
    for (const auto& row : kPaper) {
      if (c.scenario == row.scenario) p = &row;
    }
    bench::rowf("%-11s paper totals: real %.2f (%.2f), mod %.2f (%.2f); "
                "ours: %s  [scan/read under-delay: %s]",
                "", p->real_mean, p->real_sd, p->mod_mean, p->mod_sd,
                bench::verdict(within_error(rp.total, mp.total)),
                (mp.scandir.mean < rp.scandir.mean &&
                 mp.readall.mean < rp.readall.mean)
                    ? "yes"
                    : "no");
  }
  for (const auto& reports : sweep.audits) obs.add_audits(reports, "");
  const std::vector<BenchmarkOutcome>& eth_trials = sweep.ethernet[0];
  obs.add_telemetry(eth_trials, "ethernet");
  const PhaseSummary eth = summarize_phases(eth_trials);
  print_row("Ethernet", "Real", eth);
  bench::rowf("%-11s paper Ethernet: 2.25 (0.50)  12.50 (0.58)  7.75 (0.50)"
              "  17.50 (0.58)  84.00 (1.41)  124.00 (1.63)",
              "");
  bench::rowf(
      "\nExpected shape: Wean/Porter/Chatterbox totals within error;\n"
      "Flagstaff diverges (modulated < real) because short NFS messages\n"
      "fall below the 10 ms scheduling threshold (Section 5.4).");
  const int rc = obs.write_exports();
  obs.status().finish(rc);
  return rc;
}
