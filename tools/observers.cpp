#include "observers.hpp"

#include <cstdio>
#include <sstream>

#include "sim/io/durable.hpp"
#include "version.hpp"

namespace tracemod::cli {

int arm_status(const Parsed& p, const char* driver,
               sim::status::StatusBoard* board) {
  std::string prefix;
  if (!p.str("--status", &prefix)) return kExitOk;
  sim::status::StatusBoard::Config cfg;
  cfg.path = prefix + ".status";
  cfg.driver = driver;
  if (!board->configure(std::move(cfg))) {
    std::fprintf(stderr, "%s: cannot write status file %s.status\n",
                 p.prog.c_str(), prefix.c_str());
    return kExitIo;
  }
  return kExitOk;
}

std::vector<FlagSpec> Observers::declare(std::vector<FlagSpec> own) {
  own.insert(own.end(), {{"--telemetry", true},
                         {"--audit", true, /*optional_value=*/true},
                         {"--status", true}});
  return own;
}

int Observers::arm(const Parsed& p, const char* driver,
                   scenarios::ExperimentConfig* cfg) {
  if (p.str("--telemetry", &telemetry_prefix_)) cfg->telemetry.enabled = true;
  if (p.str("--audit", &audit_path_)) {
    if (audit_path_.empty()) audit_path_ = "BENCH_fidelity.json";
    cfg->audit.enabled = true;
  }
  if (const int rc = arm_status(p, driver, &board_); rc != kExitOk) return rc;
  if (board_.enabled()) {
    cfg->status = &board_;
    std::printf("status: -> %s (poll with `tracemod status %s`)\n",
                board_.path().c_str(), board_.path().c_str());
  }
  return kExitOk;
}

void Observers::add_telemetry(
    const std::vector<scenarios::BenchmarkOutcome>& outcomes,
    const std::string& label) {
  for (auto& s : scenarios::labeled_telemetry(outcomes, label)) {
    snaps_.push_back(std::move(s));
  }
}

void Observers::add_audits(const std::vector<audit::FidelityReport>& reports,
                           const std::string& prefix) {
  for (audit::FidelityReport r : reports) {
    if (!prefix.empty()) r.label = prefix + "/" + r.label;
    reports_.push_back(std::move(r));
  }
}

int Observers::write_exports() const {
  bool io_failed = false;
  bool breached = false;
  if (!audit_path_.empty()) {
    std::printf("\n%-25s %-12s | %8s %8s %8s %8s %6s\n", "audit", "verdict",
                "lat.err", "bw.err", "loss.d", "ks.rtt", "within");
    std::size_t pass = 0, breach = 0, unauditable = 0;
    std::ostringstream out;
    out << "{\n\"schema\": \"tracemod-fidelity-trajectory-v1\",\n"
        << "\"tool_version\": \"" << kToolVersion << "\",\n"
        << "\"reports\": [";
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      const audit::FidelityReport& r = reports_[i];
      const auto& s = r.scores;
      std::printf("%-25s %-12s | %8.3f %8.3f %8.4f %8.3f %5.0f%%\n",
                  r.label.c_str(), audit::to_string(r.verdict),
                  s.latency_rel_err, s.bandwidth_rel_err, s.loss_delta,
                  s.ks_rtt, 100.0 * s.within_tolerance_fraction);
      for (const std::string& b : r.breaches) {
        std::printf("%-25s   breach: %s\n", "", b.c_str());
      }
      switch (r.verdict) {
        case audit::Verdict::kPass: ++pass; break;
        case audit::Verdict::kBreach: ++breach; break;
        case audit::Verdict::kUnauditable: ++unauditable; break;
      }
      out << (i == 0 ? "\n" : ",\n");
      audit::write_fidelity_json(out, r);
    }
    out << "\n]\n}\n";
    std::printf("audit: %zu pass, %zu breach, %zu unauditable\n", pass,
                breach, unauditable);
    breached = breach > 0;
    if (sim::io::write_artifact_or_complain(audit_path_, out.str())) {
      std::printf("fidelity trajectory: %zu report(s) -> %s\n",
                  reports_.size(), audit_path_.c_str());
    } else {
      io_failed = true;
    }
  }

  if (!telemetry_prefix_.empty()) {
    const std::string json_path = telemetry_prefix_ + ".perfetto.json";
    const std::string metrics_path = telemetry_prefix_ + ".metrics.txt";
    std::ostringstream json;
    std::ostringstream metrics;
    sim::write_chrome_trace(json, snaps_);
    sim::write_metrics_text(metrics, snaps_);
    if (sim::io::write_artifact_or_complain(json_path, json.str()) &&
        sim::io::write_artifact_or_complain(metrics_path, metrics.str())) {
      std::printf("\ntelemetry: %zu snapshot(s) -> %s (load in "
                  "ui.perfetto.dev) and %s\n",
                  snaps_.size(), json_path.c_str(), metrics_path.c_str());
    } else {
      io_failed = true;
    }
  }
  if (io_failed) return kExitIo;
  return breached ? kExitAudit : kExitOk;
}

}  // namespace tracemod::cli
