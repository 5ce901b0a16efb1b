#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "core/distiller.hpp"
#include "core/stream_distiller.hpp"
#include "scenarios/campus.hpp"
#include "scenarios/experiment.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

using namespace tracemod;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `slices` yardstick slices, before the next timed call opens its
/// spans.
void gauge(Yardstick& yard, int slices, PassResult* r) {
  for (int i = 0; i < slices; ++i) r->yard_s.push_back(yard.slice());
}

/// Times `call` as one unit; returns what the call returns.
template <typename F>
auto timed_call(PassResult* r, F&& call) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
    call();
    r->unit_wall_s.push_back(since(t0));
  } else {
    auto out = call();
    r->unit_wall_s.push_back(since(t0));
    return out;
  }
}

/// FNV-1a, folded one byte range at a time.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add_double(double v) { add(&v, sizeof v); }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
};

std::string serialized(const core::ReplayTrace& r) {
  std::ostringstream out;
  r.serialize(out);
  return out.str();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- paper_sweep -------------------------------------------------------------

struct Kind {
  scenarios::BenchmarkKind kind;
  const char* span;
};

const Kind kKinds[] = {
    {scenarios::BenchmarkKind::kWeb, "scenarios.modulated_trial.web"},
    {scenarios::BenchmarkKind::kFtpRecv, "scenarios.modulated_trial.ftp_recv"},
    {scenarios::BenchmarkKind::kAndrew, "scenarios.modulated_trial.andrew"},
};

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const WorkloadOptions& opts) {
    // Seed 0 is the sweep tool's default matrix (base seed 10,000); each
    // further seed moves past every offset a trial derives (+500 ... +1700).
    cfg_.base_seed = 10'000 + 2'000 * opts.seed;
  }

  void setup(SpanRecorder* spans) override {
    SpanScope span(spans, "scenarios.measure_compensation");
    cfg_.compensation_vb = scenarios::measure_compensation_vb();
  }

  PassResult run(SpanRecorder* spans, Yardstick& yard) override;

  Metrics summarize(const std::vector<double>& unit_wall_s) const override {
    // Slope of wall time against trials per cell: trial index 0 alone
    // against all cfg_.trials of them.
    double first_trial = 0.0;
    for (std::size_t u = 0; u < unit_wall_s.size(); ++u) {
      if (unit_trial_[u] == 0) first_trial += unit_wall_s[u];
    }
    const double wall = sum(unit_wall_s);
    return {{"wall_s", wall},
            {"sim_s_per_wall_s", sim_s_ / wall},
            {"work_per_sec", static_cast<double>(unit_wall_s.size()) / wall},
            {"wall_exponent",
             std::log(wall / first_trial) / std::log(cfg_.trials)}};
  }

  std::uint64_t recorded_digest() const override {
    return 0x64c0ed09dab037a8ull;
  }

 private:
  // One slice per trial or traversal (~20 ms each): about a tenth of the
  // pass, spread evenly through it.
  static constexpr int kSlicesPerTrial = 1;

  scenarios::ExperimentConfig cfg_;
  double sim_s_ = 0.0;  ///< virtual seconds of the last pass's units
  std::vector<std::size_t> unit_trial_;  ///< trial index of each unit
};

PassResult PaperSweep::run(SpanRecorder* spans, Yardstick& yard) {
  using scenarios::BenchmarkOutcome;
  PassResult r;
  const std::vector<scenarios::Scenario> scens = scenarios::all_scenarios();
  const std::size_t ns = scens.size();
  const std::size_t nk = std::size(kKinds);
  const auto n = static_cast<std::size_t>(cfg_.trials);
  sim_s_ = 0.0;
  unit_trial_.clear();
  std::size_t groups = 0;
  std::size_t corrected = 0;
  Fnv fnv;

  // Span unit ids: (scenario, trial) for a collection traversal,
  // (scenario, kind, trial) for the live and modulated runs that share it,
  // (kind, trial) for an Ethernet baseline.
  auto trial_unit = [&](std::size_t s, std::size_t k, std::size_t t) {
    return static_cast<std::int64_t>((s * (nk + 1) + k) * n + t);
  };
  auto ethernet_unit = [&](std::size_t k, std::size_t t) {
    return static_cast<std::int64_t>((ns * (nk + 1) + k) * n + t);
  };
  auto timed = [&](std::size_t t, double sim_s) {
    unit_trial_.push_back(t);
    sim_s_ += sim_s;
    ++r.attempted;
  };
  auto trial = [&](const char* span_name, std::int64_t unit, std::size_t t,
                   const std::string& what, auto&& call) {
    gauge(yard, kSlicesPerTrial, &r);
    SpanScope span(spans, span_name, unit);
    const BenchmarkOutcome o = timed_call(&r, call);
    span.set_sim_s(o.elapsed_s);
    timed(t, o.elapsed_s);
    fnv.add_double(o.elapsed_s);
    if (!o.ok || !o.completed) r.failures.push_back(what + " did not complete");
  };

  std::vector<std::vector<core::ReplayTrace>> traces(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::int64_t unit = trial_unit(s, nk, t);
      trace::CollectedTrace raw;
      gauge(yard, kSlicesPerTrial, &r);
      timed_call(&r, [&] {
        {
          SpanScope span(spans, "scenarios.collect", unit);
          raw = scenarios::collect_raw_trace(scens[s],
                                             cfg_.base_seed + 500 + t);
          span.set_sim_s(sim::to_seconds(raw.duration()));
          span.set_items(raw.records.size());
        }
        SpanScope span(spans, "core.distill", unit);
        span.set_items(raw.records.size());
        core::Distiller distiller;
        traces[s].push_back(distiller.distill(raw));
        groups += distiller.stats().groups_total;
        corrected += distiller.stats().groups_corrected;
      });
      timed(t, sim::to_seconds(raw.duration()));
      if (traces[s].back().empty()) {
        r.failures.push_back(scens[s].name + " traversal " +
                             std::to_string(t) + " distilled to nothing");
      }
    }
    for (std::size_t k = 0; k < nk; ++k) {
      for (std::size_t t = 0; t < n; ++t) {
        trial("scenarios.live_trial", trial_unit(s, k, t), t,
              scens[s].name + " live " + to_string(kKinds[k].kind), [&] {
                return scenarios::run_live_trial(scens[s], kKinds[k].kind,
                                                 cfg_, static_cast<int>(t));
              });
      }
    }
  }
  for (std::size_t k = 0; k < nk; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      trial("scenarios.ethernet_trial", ethernet_unit(k, t), t,
            std::string("ethernet ") + to_string(kKinds[k].kind), [&] {
              return scenarios::run_ethernet_trial(kKinds[k].kind, cfg_,
                                                   static_cast<int>(t));
            });
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t k = 0; k < nk; ++k) {
      for (std::size_t t = 0; t < n; ++t) {
        trial(kKinds[k].span, trial_unit(s, k, t), t,
              scens[s].name + " modulated " + to_string(kKinds[k].kind), [&] {
                return scenarios::run_modulated_trial(
                    traces[s][t], kKinds[k].kind, cfg_, static_cast<int>(t));
              });
      }
    }
  }
  r.digest = fnv.h;
  r.layer["core.groups_corrected_share"] =
      ratio(static_cast<double>(corrected), static_cast<double>(groups));
  return r;
}

// --- campus ------------------------------------------------------------------

class Campus final : public Workload {
 public:
  explicit Campus(const WorkloadOptions& opts) : seed_(42 + opts.seed) {}

  void setup(SpanRecorder* spans) override {
    {
      SpanScope span(spans, "scenarios.campus_build", kBigUnit);
      big_ = std::make_unique<scenarios::CampusWorld>(config(kBigHosts));
    }
    SpanScope span(spans, "scenarios.campus_build_1k", kSmallUnit);
    small_ = std::make_unique<scenarios::CampusWorld>(config(kSmallHosts));
  }

  PassResult run(SpanRecorder* spans, Yardstick& yard) override {
    PassResult r;
    const scenarios::CampusResult big = drive(
        *big_, spans, "scenarios.campus_run", kBigUnit, yard, kBigSlices, &r);
    const scenarios::CampusResult small =
        drive(*small_, spans, "scenarios.campus_run_1k", kSmallUnit, yard,
              kSmallSlices, &r);
    big_.reset();
    small_.reset();

    r.attempted = 2;
    if (!big.ok) r.failures.push_back("10k-host campus missed its horizon");
    if (!small.ok) r.failures.push_back("1k-host campus missed its horizon");
    Fnv fnv;
    fnv.add_u64(big.digest);
    fnv.add_u64(small.digest);
    r.digest = fnv.h;
    virtual_s_ = big.virtual_s;
    events_ = big.events;
    r.layer["wireless.frames_delivered_share"] =
        ratio(static_cast<double>(big.frames_delivered),
              static_cast<double>(big.frames_delivered + big.frames_dropped));
    r.layer["wireless.handoffs"] = static_cast<double>(big.handoffs);
    return r;
  }

  Metrics summarize(const std::vector<double>& unit_wall_s) const override {
    const double big = unit_wall_s[0];
    const double small = unit_wall_s[1];
    return {{"wall_s", big},
            {"sim_s_per_wall_s", virtual_s_ / big},
            {"work_per_sec", static_cast<double>(events_) / big},
            {"wall_exponent",
             std::log(big / small) /
                 std::log(static_cast<double>(kBigHosts) / kSmallHosts)}};
  }

  std::uint64_t recorded_digest() const override {
    return 0xbe2b9bffa88d8c6full;
  }

 private:
  static constexpr std::size_t kBigHosts = 10'000;
  static constexpr std::size_t kSmallHosts = 1'000;
  // Span unit ids: one per world, shared by its build and its run.
  static constexpr std::int64_t kBigUnit = 0;
  static constexpr std::int64_t kSmallUnit = 1;
  // Yardstick slices before each run, so the 10k run has slices on both
  // sides; together about 5% of the pass.
  static constexpr int kBigSlices = 30;
  static constexpr int kSmallSlices = 30;

  scenarios::CampusConfig config(std::size_t hosts) const {
    scenarios::CampusConfig cfg;  // defaults: 30 s horizon
    cfg.hosts = hosts;
    cfg.seed = seed_;
    cfg.threads = 0;  // serial association scan
    return cfg;
  }

  static scenarios::CampusResult drive(scenarios::CampusWorld& world,
                                       SpanRecorder* spans, const char* name,
                                       std::int64_t unit, Yardstick& yard,
                                       int slices, PassResult* r) {
    gauge(yard, slices, r);
    SpanScope span(spans, name, unit);
    const scenarios::CampusResult res =
        timed_call(r, [&] { return world.run(); });
    span.set_sim_s(res.virtual_s);
    span.set_items(res.events);
    return res;
  }

  std::uint64_t seed_;
  std::unique_ptr<scenarios::CampusWorld> big_;
  std::unique_ptr<scenarios::CampusWorld> small_;
  double virtual_s_ = 0.0;  ///< of the 10k world, last pass
  std::uint64_t events_ = 0;
};

// --- distill -----------------------------------------------------------------

/// Per-reply loss of the generated corpora.  The distiller's loss is one
/// way, L = 1 - sqrt(b/a), so its mean should sit near 1 - sqrt(1 - p); it
/// reads about 15% above that (averaging over short windows), so the check
/// allows 0.5x to 1.5x.  A sequence-wrap failure reads ~10x low.
constexpr double kReplyLoss = 0.02;

class Distill final : public Workload {
 public:
  explicit Distill(const WorkloadOptions& opts)
      : seed_(opts.seed),
        probe_path_(opts.work_dir + "/probe.trace"),
        padded_path_(opts.work_dir + "/padded.trace"),
        stream_threads_(opts.stream_threads) {}

  void setup(SpanRecorder* spans) override {
    // 4 h at one group per second: 14,400 groups, 43,200 echoes -- under
    // the 65,536 a 16-bit ICMP sequence number can tell apart.
    trace::CorpusSpec probe;
    probe.duration = sim::seconds(4 * 3600);
    probe.reply_loss = kReplyLoss;
    probe.seed = 1 + seed_;
    write(spans, probe_path_, probe, kProbeUnit);

    trace::CorpusSpec padded;
    padded.duration = sim::seconds(2 * 3600);
    padded.target_bytes = 128ull << 20;
    padded.reply_loss = kReplyLoss;
    padded.seed = 1'000'001 + seed_;
    write(spans, padded_path_, padded, kPaddedUnit);

    SpanScope span(spans, "trace.read", kProbeUnit);
    probe_ = trace::load_trace(probe_path_);
    span.set_items(probe_.records.size());
    // The first hour of the same trace, for the in-memory scaling slope.
    const sim::TimePoint cut =
        trace::record_time(probe_.records.front()) + sim::seconds(3600);
    probe_1h_.records.clear();
    for (const trace::TraceRecord& rec : probe_.records) {
      if (trace::record_time(rec) >= cut) break;
      probe_1h_.records.push_back(rec);
    }
  }

  // Writing the 128 MB corpus takes longer than a pass; reusing the files
  // leaves most of the run to the timed phase.
  bool setup_every_pass() const override { return false; }

  PassResult run(SpanRecorder* spans, Yardstick& yard) override;

  // Units: in-memory 4 h, in-memory 1 h, stream probe, stream padded.
  Metrics summarize(const std::vector<double>& unit_wall_s) const override {
    const double wall = unit_wall_s[0] + unit_wall_s[2] + unit_wall_s[3];
    return {{"wall_s", wall},
            {"sim_s_per_wall_s", covered_s_ / wall},
            {"work_per_sec", records_ / wall},
            {"wall_exponent",
             std::log(unit_wall_s[0] / unit_wall_s[1]) /
                 std::log(static_cast<double>(probe_.records.size()) /
                          static_cast<double>(probe_1h_.records.size()))}};
  }

  std::uint64_t recorded_digest() const override {
    return 0xa3f4accfa8a04f1dull;
  }

 private:
  // Span unit ids: one per input file.  The 1 h slice counts as the probe.
  static constexpr std::int64_t kProbeUnit = 0;
  static constexpr std::int64_t kPaddedUnit = 1;
  // Yardstick slices before each timed call, about 5% of the pass.
  static constexpr int kSlicesPerCall = 12;

  static void write(SpanRecorder* spans, const std::string& path,
                    const trace::CorpusSpec& spec, std::int64_t unit) {
    SpanScope span(spans, "trace.write", unit);
    span.set_items(trace::generate_ping_corpus(path, spec).records);
  }

  struct InMemory {
    core::ReplayTrace replay;
    core::Distiller::Stats stats;
  };
  static InMemory distill_in_memory(SpanRecorder* spans, const char* name,
                                    const trace::CollectedTrace& input,
                                    Yardstick& yard, PassResult* r) {
    gauge(yard, kSlicesPerCall, r);
    SpanScope span(spans, name, kProbeUnit);
    span.set_items(input.records.size());
    span.set_sim_s(sim::to_seconds(input.duration()));
    InMemory out;
    core::Distiller distiller;
    out.replay = timed_call(r, [&] { return distiller.distill(input); });
    out.stats = distiller.stats();
    return out;
  }

  core::StreamDistillResult stream(SpanRecorder* spans,
                                   const std::string& path, std::int64_t unit,
                                   Yardstick& yard, PassResult* r) const {
    gauge(yard, kSlicesPerCall, r);
    SpanScope span(spans, "core.stream_distill", unit);
    core::StreamDistillConfig cfg;
    cfg.threads = stream_threads_;
    core::StreamDistillResult res = timed_call(
        r, [&] { return core::StreamDistiller(cfg).distill_file(path); });
    span.set_items(res.stats.records_streamed);
    span.set_sim_s(sim::to_seconds(res.replay.total_duration()));
    return res;
  }

  /// The in-memory pipeline stage by stage, on the projections
  /// Distiller::distill builds; returns its serialized replay.
  std::string staged(SpanRecorder* spans) const;

  /// Bare reader throughput over the padded corpus: records decoded.
  std::uint64_t scan(SpanRecorder* spans) const;

  std::uint64_t seed_;
  std::string probe_path_;
  std::string padded_path_;
  unsigned stream_threads_;
  trace::CollectedTrace probe_;
  trace::CollectedTrace probe_1h_;
  double covered_s_ = 0.0;  ///< trace seconds the timed units distill
  double records_ = 0.0;    ///< records the timed units distill
};

std::string Distill::staged(SpanRecorder* spans) const {
  const std::int64_t unit = kProbeUnit;
  std::vector<core::EchoSent> sent;
  std::vector<core::EchoReply> replies;
  for (const auto& e : probe_.echoes_sent()) {
    sent.push_back(core::EchoSent{e.icmp_seq, e.ip_bytes});
  }
  for (const auto& p : probe_.echo_replies()) {
    replies.push_back(core::EchoReply{p.at, p.rtt(), p.icmp_seq});
  }
  const core::DistillConfig cfg;
  core::Distiller::Stats stats;
  std::vector<core::EchoGroup> groups;
  {
    SpanScope span(spans, "core.reconstruct", unit);
    groups = core::reconstruct_echo_groups(sent, replies);
    span.set_items(groups.size());
  }
  std::vector<core::Distiller::Estimate> estimates;
  {
    SpanScope span(spans, "core.estimate", unit);
    estimates = core::estimate_delay_parameters(groups, &stats);
    span.set_items(estimates.size());
  }
  SpanScope span(spans, "core.assemble", unit);
  const core::ReplayTrace replay = core::assemble_replay(
      cfg, estimates, trace::record_time(probe_.records.front()),
      trace::record_time(probe_.records.back()),
      [&](sim::TimePoint w_begin, sim::TimePoint w_end, double prev) {
        return core::window_loss_over_replies(replies, sent.size(), w_begin,
                                              w_end, prev, cfg.max_loss);
      },
      &stats);
  span.set_items(replay.size());
  return serialized(replay);
}

std::uint64_t Distill::scan(SpanRecorder* spans) const {
  SpanScope span(spans, "trace.scan", kPaddedUnit);
  std::ifstream in(padded_path_, std::ios::binary);
  trace::TraceStreamReader reader(in);
  trace::TraceRecord rec;
  std::uint64_t n = 0;
  while (reader.next(&rec)) ++n;
  span.set_items(n);
  return n;
}

PassResult Distill::run(SpanRecorder* spans, Yardstick& yard) {
  PassResult r;
  const InMemory in4 =
      distill_in_memory(spans, "core.distill", probe_, yard, &r);
  distill_in_memory(spans, "core.distill_1h", probe_1h_, yard, &r);
  const core::StreamDistillResult probe_stream =
      stream(spans, probe_path_, kProbeUnit, yard, &r);
  const core::StreamDistillResult padded_stream =
      stream(spans, padded_path_, kPaddedUnit, yard, &r);

  const std::string in_text = serialized(in4.replay);
  const std::string padded_text = serialized(padded_stream.replay);
  auto check = [&](bool ok, const std::string& what) {
    ++r.attempted;
    if (!ok) r.failures.push_back(what);
  };
  check(serialized(probe_stream.replay) == in_text,
        "stream and in-memory replays of the probe trace differ");
  const std::int64_t step_ns = core::DistillConfig{}.step.count();
  const std::int64_t span_ns = probe_.duration().count();
  check(static_cast<std::int64_t>(in4.replay.size()) ==
            (span_ns + step_ns - 1) / step_ns,
        "in-memory tuple count differs from the probe's step count");
  check(padded_stream.replay.size() == padded_stream.stats.steps,
        "padded corpus tuple count differs from its step count");
  check(padded_stream.status == core::DistillStatus::kOk &&
            probe_stream.status == core::DistillStatus::kOk,
        "streaming distillation did not finish clean");
  const double expected_loss = 1.0 - std::sqrt(1.0 - kReplyLoss);
  for (const core::ReplayTrace* rt : {&in4.replay, &padded_stream.replay}) {
    const double loss = rt->mean_loss();
    check(loss > 0.5 * expected_loss && loss < 1.5 * expected_loss,
          "mean distilled loss " + std::to_string(loss) +
              " is far from 1 - sqrt(1 - reply_loss) = " +
              std::to_string(expected_loss));
  }
  if (spans != nullptr) {
    check(staged(spans) == in_text,
          "stage-by-stage distillation differs from Distiller::distill");
    check(scan(spans) == padded_stream.stats.records_streamed,
          "bare reader scan and stream distiller saw different record counts");
  }

  Fnv fnv;
  fnv.add(in_text.data(), in_text.size());
  fnv.add(padded_text.data(), padded_text.size());
  r.digest = fnv.h;

  const double records_in = static_cast<double>(probe_.records.size());
  const double records_streamed =
      static_cast<double>(probe_stream.stats.records_streamed +
                          padded_stream.stats.records_streamed);
  records_ = records_in + records_streamed;
  covered_s_ = 2.0 * sim::to_seconds(probe_.duration()) +
               sim::to_seconds(padded_stream.replay.total_duration());
  r.layer["core.groups_corrected_share"] =
      ratio(static_cast<double>(in4.stats.groups_corrected),
            static_cast<double>(in4.stats.groups_total));
  r.layer["core.inmem_records_per_sec"] = records_in / r.unit_wall_s[0];
  r.layer["core.stream_records_per_sec"] =
      records_streamed / (r.unit_wall_s[2] + r.unit_wall_s[3]);
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(opts);
  if (name == "campus") return std::make_unique<Campus>(opts);
  if (name == "distill") return std::make_unique<Distill>(opts);
  return nullptr;
}

}  // namespace perfbench
