// Production-volume corpus distillation: wall time and peak RSS for the
// bounded-memory streaming distiller on a multi-GB synthetic trace.
// Emits BENCH_corpus.json (schema tracemod-corpus-bench-v1) so CI can
// assert the robustness tentpole's acceptance bar: a >= 1 GB corpus
// distills faster than real time (wall seconds << the corpus's collection
// duration) while RSS stays flat -- the corpus never fits in the cap, so
// any whole-file slurp would blow it.
//
// Usage: corpus_distill [--mb N] [--seconds S] [--threads T]
//                       [--rss-cap-mb N] [--out BENCH_corpus.json] [--keep]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/stream_distiller.hpp"
#include "flags.hpp"
#include "report.hpp"
#include "sim/io/durable.hpp"
#include "trace/synthetic_corpus.hpp"
#include "tracemod_cli.hpp"
#include "version.hpp"

#include "build_guard.hpp"

using namespace tracemod;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in MB (ru_maxrss is KB on Linux).
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

const char* status_name(core::DistillStatus s) {
  switch (s) {
    case core::DistillStatus::kOk: return "ok";
    case core::DistillStatus::kSalvaged: return "salvaged";
    case core::DistillStatus::kDegraded: return "degraded";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  cli::Parsed cmdline = cli::parse(
      "corpus_distill", std::vector<std::string>(argv + 1, argv + argc),
      {{"--mb", true},
       {"--seconds", true},
       {"--threads", true},
       {"--rss-cap-mb", true},
       {"--out", true},
       {"--keep", false},
       {"--allow-debug", false}},
      0, 0);
  double mb = 1024.0;
  double seconds = 7200.0;
  unsigned threads = 0;
  double rss_cap_mb = 512.0;
  std::string out_path = "BENCH_corpus.json";
  cli::checked_number(cmdline, "--mb", &mb);
  cli::checked_number(cmdline, "--seconds", &seconds);
  cli::checked_uint(cmdline, "--threads", &threads);
  cli::checked_number(cmdline, "--rss-cap-mb", &rss_cap_mb);
  cmdline.str("--out", &out_path);
  const bool keep = cmdline.has("--keep");
  if (cmdline.failed) return cli::kExitUsage;

  bench::heading("Corpus distillation: wall time and RSS at production volume",
                 "streaming two-pass distiller, " + std::to_string(mb) +
                     " MB synthetic corpus");

  const std::string corpus_path =
      (std::filesystem::temp_directory_path() / "tracemod_bench_corpus.trace")
          .string();

  trace::CorpusSpec spec;
  spec.duration = sim::from_seconds(seconds);
  spec.target_bytes = static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
  spec.seed = 1997;
  const double t_gen0 = now_s();
  const trace::CorpusInfo info = trace::generate_ping_corpus(corpus_path, spec);
  const double gen_s = now_s() - t_gen0;
  bench::rowf("generated %.1f MB / %llu records / %.0f virtual s in %.1f s",
              static_cast<double>(info.bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(info.records), seconds, gen_s);

  core::StreamDistillConfig cfg;
  cfg.threads = threads;
  const double t_dis0 = now_s();
  core::StreamDistiller distiller(cfg);
  const core::StreamDistillResult res = distiller.distill_file(corpus_path);
  const double distill_s = now_s() - t_dis0;
  const double rss_mb = peak_rss_mb();

  // "Faster than real time": collecting this corpus took `seconds` of
  // wall clock on the reference testbed; distilling it must take less.
  const double speedup = seconds / std::max(distill_s, 1e-9);
  const bool faster = distill_s < seconds;
  const bool flat_rss = rss_mb < rss_cap_mb;
  const double corpus_mb = static_cast<double>(info.bytes) / (1024.0 * 1024.0);

  bench::rowf("distilled in %.2f s (%.0fx real time, %s) -> %zu tuples [%s]",
              distill_s, speedup, faster ? "faster" : "SLOWER",
              res.replay.size(), status_name(res.status));
  bench::rowf("windows: %llu total, %llu damaged, %llu shed; "
              "records streamed: %llu",
              static_cast<unsigned long long>(res.stats.windows_total),
              static_cast<unsigned long long>(res.stats.windows_damaged),
              static_cast<unsigned long long>(res.stats.windows_shed),
              static_cast<unsigned long long>(res.stats.records_streamed));
  bench::rowf("peak RSS %.1f MB vs %.0f MB cap (corpus %.1f MB): %s", rss_mb,
              rss_cap_mb, corpus_mb, flat_rss ? "flat" : "BLOWN");

  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"tracemod-corpus-bench-v1\",\n"
      << "  \"tool_version\": \"" << kToolVersion << "\",\n"
      << "  \"corpus_bytes\": " << info.bytes << ",\n"
      << "  \"corpus_records\": " << info.records << ",\n"
      << "  \"corpus_virtual_seconds\": " << seconds << ",\n"
      << "  \"generate_wall_s\": " << gen_s << ",\n"
      << "  \"distill_wall_s\": " << distill_s << ",\n"
      << "  \"speedup_vs_real_time\": " << speedup << ",\n"
      << "  \"faster_than_real_time\": " << (faster ? "true" : "false")
      << ",\n"
      << "  \"peak_rss_mb\": " << rss_mb << ",\n"
      << "  \"rss_cap_mb\": " << rss_cap_mb << ",\n"
      << "  \"rss_flat\": " << (flat_rss ? "true" : "false") << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"windows_total\": " << res.stats.windows_total << ",\n"
      << "  \"windows_damaged\": " << res.stats.windows_damaged << ",\n"
      << "  \"windows_shed\": " << res.stats.windows_shed << ",\n"
      << "  \"records_streamed\": " << res.stats.records_streamed << ",\n"
      << "  \"tuples\": " << res.replay.size() << ",\n"
      << "  \"status\": \"" << status_name(res.status) << "\"\n"
      << "}\n";
  if (!sim::io::write_artifact_or_complain(out_path, out.str())) {
    if (!keep) std::filesystem::remove(corpus_path);
    return cli::kExitIo;
  }
  bench::rowf("wrote %s", out_path.c_str());

  if (!keep) std::filesystem::remove(corpus_path);
  return (faster && flat_rss && res.status == core::DistillStatus::kOk) ? 0
                                                                        : 1;
}
