#include "scenarios/supervisor.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "scenarios/experiment.hpp"
#include "scenarios/parallel_runner.hpp"
#include "sim/crc32c.hpp"
#include "sim/io/codec.hpp"
#include "sim/json.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "version.hpp"

namespace tracemod::scenarios {

const char* to_string(TrialErrorKind kind) {
  switch (kind) {
    case TrialErrorKind::kException: return "exception";
    case TrialErrorKind::kTimedOut: return "timed-out";
    case TrialErrorKind::kStuck: return "stuck";
  }
  return "?";
}

std::string describe(const TrialError& e) {
  std::string where = e.scenario.empty() ? std::string() : e.scenario;
  if (!e.benchmark.empty() && e.benchmark != "-") {
    where += (where.empty() ? "" : "/") + e.benchmark;
  }
  std::string out = "[";
  out += to_string(e.kind);
  out += "] ";
  out += e.phase;
  out += " trial " + std::to_string(e.trial);
  if (!where.empty()) out += " of " + where;
  out += " (seed " + std::to_string(e.seed) + ", attempts " +
         std::to_string(e.attempts) + "): " + e.message;
  return out;
}

void export_supervision_metrics(const SupervisionReport& report,
                                sim::MetricsRegistry& metrics) {
  metrics.counter(sim::metric::kSweepTrialsFailed) += report.trials_failed;
  metrics.counter(sim::metric::kSweepTrialsRetried) += report.trials_retried;
  metrics.counter(sim::metric::kSweepTrialsTimedOut) +=
      report.trials_timed_out;
  // Ride-along: the write plane's process-global health (io.write_errors,
  // io.degraded_planes, ...) lands on the same registry.
  sim::io::export_io_metrics(metrics);
}

// --- guard ------------------------------------------------------------------

namespace {

struct PhaseInfo {
  const char* name;
  std::uint64_t seed_offset;  ///< derived-seed offset (experiment.hpp)
};

constexpr PhaseInfo kPhaseLive{"live", 0};
constexpr PhaseInfo kPhaseCollect{"collect", 500};
constexpr PhaseInfo kPhaseModulated{"modulated", 900};
constexpr PhaseInfo kPhaseEthernet{"ethernet", 1300};
constexpr PhaseInfo kPhaseAudit{"audit", 1700};

bool iequals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool fault_matches(const InjectedTrialFault& f, const std::string& scenario,
                   const char* phase, const std::string& benchmark, int trial,
                   int attempt) {
  if (!f.scenario.empty() && !iequals(f.scenario, scenario)) return false;
  if (!f.benchmark.empty() && !iequals(f.benchmark, benchmark)) return false;
  if (!f.phase.empty() && f.phase != phase) return false;
  if (f.trial >= 0 && f.trial != trial) return false;
  return attempt < f.fail_attempts;
}

template <typename T>
bool outcome_timed_out(const T&) { return false; }
bool outcome_timed_out(const BenchmarkOutcome& o) { return o.timed_out; }
template <typename T>
bool outcome_wall_stuck(const T&) { return false; }
bool outcome_wall_stuck(const BenchmarkOutcome& o) { return o.wall_stuck; }

/// The shared guard path: runs one trial phase with crash isolation and the
/// bounded retry policy.  Serial and parallel engines both funnel through
/// here, which is what keeps their error records identical.
template <typename T, typename Fn>
Guarded<T> run_guarded_impl(const ExperimentConfig& cfg,
                            const PhaseInfo& phase,
                            const std::string& scenario,
                            const std::string& benchmark, int trial,
                            Fn&& run) {
  Guarded<T> g;
  const SupervisionConfig& sup = cfg.supervision;
  if (!sup.enabled) {
    // Transparent: one attempt, exceptions propagate to the task pool.
    g.value = run(cfg);
    return g;
  }
  const int max_attempts = 1 + std::max(0, sup.max_retries);
  std::optional<TrialError> last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ExperimentConfig acfg = cfg;
    if (sup.perturb_retry_seed && attempt > 0) {
      acfg.base_seed =
          cfg.base_seed + kRetrySeedStride * static_cast<std::uint64_t>(attempt);
    }
    const std::uint64_t seed =
        acfg.base_seed + phase.seed_offset + static_cast<std::uint64_t>(trial);
    auto record = [&](TrialErrorKind kind, std::string message) {
      last = TrialError{kind,  std::move(message), seed,  scenario,
                        benchmark, phase.name,     trial, attempt + 1};
    };
    try {
      for (const InjectedTrialFault& f : sup.inject) {
        if (fault_matches(f, scenario, phase.name, benchmark, trial,
                          attempt)) {
          throw std::runtime_error("injected trial fault");
        }
      }
      T value = run(acfg);
      if (outcome_wall_stuck(value)) {
        record(TrialErrorKind::kStuck,
               "wall-clock watchdog fired after " +
                   std::to_string(sup.wall_budget_s) + " s");
        g.retries = attempt;
        continue;  // a stuck wall clock is an environment flake: retry
      }
      if (outcome_timed_out(value)) {
        record(TrialErrorKind::kTimedOut,
               "virtual-time budget (" +
                   std::to_string(sim::to_seconds(sup.virtual_budget)) +
                   " s) expired");
        g.retries = attempt;
        if (!sup.perturb_retry_seed) {
          // Identical seed => identical timeout; keep the partial outcome.
          g.value = std::move(value);
          g.error = std::move(last);
          return g;
        }
        continue;
      }
      g.value = std::move(value);
      g.retries = attempt;
      g.error.reset();
      return g;
    } catch (const std::exception& e) {
      record(TrialErrorKind::kException, e.what());
    } catch (...) {
      record(TrialErrorKind::kException, "unknown exception");
    }
    g.retries = attempt;
  }
  g.retries = max_attempts - 1;
  g.error = std::move(last);
  return g;
}

/// run_guarded_impl plus status accounting.  Serial and parallel engines
/// both funnel through here, so the status board sees identical counter
/// streams from either; with status off this is one never-taken branch.
template <typename T, typename Fn>
Guarded<T> run_guarded(const ExperimentConfig& cfg, const PhaseInfo& phase,
                       const std::string& scenario,
                       const std::string& benchmark, int trial, Fn&& run) {
  Guarded<T> g = run_guarded_impl<T>(cfg, phase, scenario, benchmark, trial,
                                     std::forward<Fn>(run));
  if (sim::status::StatusBoard* board = cfg.status;
      board != nullptr && board->enabled()) {
    board->add_units_done(1);
    if (g.retries > 0) {
      board->add_retries(static_cast<std::uint64_t>(g.retries));
    }
    if (g.error) board->add_errors(1);
    board->maybe_publish();
  }
  return g;
}

}  // namespace

Guarded<BenchmarkOutcome> guarded_live_trial(const Scenario& scenario,
                                             BenchmarkKind kind,
                                             const ExperimentConfig& cfg,
                                             int trial) {
  return run_guarded<BenchmarkOutcome>(
      cfg, kPhaseLive, scenario.name, to_string(kind), trial,
      [&](const ExperimentConfig& c) {
        return run_live_trial(scenario, kind, c, trial);
      });
}

Guarded<core::ReplayTrace> guarded_replay_trace(const Scenario& scenario,
                                                const ExperimentConfig& cfg,
                                                int trial) {
  return run_guarded<core::ReplayTrace>(
      cfg, kPhaseCollect, scenario.name, "-", trial,
      [&](const ExperimentConfig& c) {
        return collect_replay_trace(scenario, c, trial);
      });
}

Guarded<BenchmarkOutcome> guarded_modulated_trial(
    const core::ReplayTrace& trace, BenchmarkKind kind,
    const ExperimentConfig& cfg, int trial) {
  return run_guarded<BenchmarkOutcome>(
      cfg, kPhaseModulated, "", to_string(kind), trial,
      [&](const ExperimentConfig& c) {
        return run_modulated_trial(trace, kind, c, trial);
      });
}

Guarded<BenchmarkOutcome> guarded_ethernet_trial(BenchmarkKind kind,
                                                 const ExperimentConfig& cfg,
                                                 int trial) {
  return run_guarded<BenchmarkOutcome>(
      cfg, kPhaseEthernet, "", to_string(kind), trial,
      [&](const ExperimentConfig& c) {
        return run_ethernet_trial(kind, c, trial);
      });
}

Guarded<audit::FidelityReport> guarded_trace_audit(
    const core::ReplayTrace& trace, const ExperimentConfig& cfg, int trial,
    const std::string& label) {
  return run_guarded<audit::FidelityReport>(
      cfg, kPhaseAudit, label, "-", trial, [&](const ExperimentConfig& c) {
        return run_trace_audit(trace, c, trial, label);
      });
}

void tally_timed_out_trials(SweepResult& result) {
  std::uint64_t n = 0;
  auto scan = [&n](const std::vector<BenchmarkOutcome>& outcomes) {
    for (const BenchmarkOutcome& o : outcomes) {
      if (o.timed_out || o.wall_stuck) ++n;
    }
  };
  for (const CellResult& c : result.cells) {
    scan(c.live);
    scan(c.modulated);
  }
  for (const auto& row : result.ethernet) scan(row);
  result.supervision.trials_timed_out = n;
}

// --- sweep journal ----------------------------------------------------------

using sim::io::put;
using sim::io::put_str;

namespace {

// Every frame that fails its CRC or does not decode makes the journal
// kCorrupt: a resumed sweep must never skip work on the strength of a
// damaged record, so it re-runs in full instead.
constexpr sim::io::JournalFormat kJournal{
    {'T', 'M', 'S', 'J'}, 1, 64u << 20, sim::io::BadFrame::kStop};

enum RecordType : std::uint8_t {
  kRecordCell = 1,
  kRecordEthernet = 2,
  kRecordCollect = 3,
};

// Smallest encodings of one outcome and one error, for ByteReader::fits.
constexpr std::size_t kOutcomeBytes = 1 + 7 * 8 + 2 * 8;
constexpr std::size_t kErrorBytes = 1 + 8 + 4 + 4 + 4 * 4;
constexpr std::uint32_t kMaxItems = 1u << 20;

void put_outcome(std::string& out, const BenchmarkOutcome& o) {
  std::uint8_t flags = 0;
  if (o.ok) flags |= 1u << 0;
  if (o.completed) flags |= 1u << 1;
  if (o.timed_out) flags |= 1u << 2;
  if (o.wall_stuck) flags |= 1u << 3;
  if (o.andrew.ok) flags |= 1u << 4;
  put<std::uint8_t>(out, flags);
  for (const double v : {o.elapsed_s, o.andrew.makedir_s, o.andrew.copy_s,
                         o.andrew.scandir_s, o.andrew.readall_s,
                         o.andrew.make_s, o.andrew.total_s}) {
    put<double>(out, v);
  }
  put<std::uint64_t>(out, o.andrew.rpc_calls);
  put<std::uint64_t>(out, o.andrew.rpc_retransmissions);
}

BenchmarkOutcome get_outcome(sim::io::ByteReader& c) {
  BenchmarkOutcome o;
  const auto flags = c.get<std::uint8_t>();
  o.ok = flags & (1u << 0);
  o.completed = flags & (1u << 1);
  o.timed_out = flags & (1u << 2);
  o.wall_stuck = flags & (1u << 3);
  o.andrew.ok = flags & (1u << 4);
  for (double* v : {&o.elapsed_s, &o.andrew.makedir_s, &o.andrew.copy_s,
                    &o.andrew.scandir_s, &o.andrew.readall_s,
                    &o.andrew.make_s, &o.andrew.total_s}) {
    *v = c.get<double>();
  }
  o.andrew.rpc_calls = c.get<std::uint64_t>();
  o.andrew.rpc_retransmissions = c.get<std::uint64_t>();
  return o;
}

void put_error(std::string& out, const TrialError& e) {
  put<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  put<std::uint64_t>(out, e.seed);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(e.trial));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(e.attempts));
  for (const std::string* s : {&e.scenario, &e.benchmark, &e.phase,
                               &e.message}) {
    put_str(out, *s);
  }
}

TrialError get_error(sim::io::ByteReader& c) {
  TrialError e;
  const auto kind = c.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(TrialErrorKind::kStuck)) c.fail();
  e.kind = static_cast<TrialErrorKind>(kind);
  e.seed = c.get<std::uint64_t>();
  e.trial = static_cast<int>(c.get<std::uint32_t>());
  e.attempts = static_cast<int>(c.get<std::uint32_t>());
  for (std::string* s : {&e.scenario, &e.benchmark, &e.phase, &e.message}) {
    *s = c.str();
  }
  return e;
}

template <typename T, typename Put>
void put_list(std::string& out, const std::vector<T>& v, Put put_item) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(v.size()));
  for (const T& item : v) put_item(out, item);
}

template <typename T>
std::vector<T> get_list(sim::io::ByteReader& c, std::size_t item_bytes,
                        T (*get_item)(sim::io::ByteReader&)) {
  const auto n = c.get<std::uint32_t>();
  std::vector<T> v;
  if (n > kMaxItems || !c.fits(n, item_bytes)) {
    c.fail();
    return v;
  }
  v.reserve(n);
  for (std::uint32_t i = 0; i < n && c.ok(); ++i) v.push_back(get_item(c));
  return v;
}

std::uint8_t record_type(const JournalCellRecord& r) {
  if (r.collect) return kRecordCollect;
  if (r.ethernet) return kRecordEthernet;
  return kRecordCell;
}

/// Decodes one frame; false when the payload is damaged or the type is
/// unknown.
bool decode_journal_record(std::uint8_t type, std::string_view payload,
                           JournalCellRecord* r) {
  if (type != kRecordCell && type != kRecordEthernet &&
      type != kRecordCollect) {
    return false;
  }
  sim::io::ByteReader c(payload.data(), payload.size());
  r->collect = type == kRecordCollect;
  r->ethernet = type == kRecordEthernet;
  r->scenario = c.str();
  const auto kind = c.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(BenchmarkKind::kAndrew)) c.fail();
  r->kind = static_cast<BenchmarkKind>(kind);
  r->live = get_list(c, kOutcomeBytes, get_outcome);
  r->modulated = get_list(c, kOutcomeBytes, get_outcome);
  r->errors = get_list(c, kErrorBytes, get_error);
  r->trials_retried = c.get<std::uint64_t>();
  return c.done();
}

}  // namespace

std::string encode_journal_record(const JournalCellRecord& r) {
  std::string out;
  put_str(out, r.scenario);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(r.kind));
  put_list(out, r.live, put_outcome);
  put_list(out, r.modulated, put_outcome);
  put_list(out, r.errors, put_error);
  put<std::uint64_t>(out, r.trials_retried);
  return out;
}

std::uint32_t sweep_fingerprint(const ExperimentConfig& cfg) {
  std::string bytes;
  put<std::uint64_t>(bytes, cfg.base_seed);
  put<std::uint32_t>(bytes, static_cast<std::uint32_t>(cfg.trials));
  put<std::uint64_t>(bytes, static_cast<std::uint64_t>(cfg.tick.count()));
  put<std::uint8_t>(bytes, cfg.compensate ? 1 : 0);
  put<double>(bytes, cfg.compensation_vb);
  put<std::uint8_t>(bytes, cfg.supervision.enabled ? 1 : 0);
  put<std::uint32_t>(bytes,
                     static_cast<std::uint32_t>(cfg.supervision.max_retries));
  put<std::uint8_t>(bytes, cfg.supervision.perturb_retry_seed ? 1 : 0);
  put<std::uint64_t>(bytes, static_cast<std::uint64_t>(
                                cfg.supervision.virtual_budget.count()));
  put<double>(bytes, cfg.supervision.wall_budget_s);
  for (const InjectedTrialFault& f : cfg.supervision.inject) {
    put_str(bytes, f.scenario);
    put_str(bytes, f.benchmark);
    put_str(bytes, f.phase);
    put<std::uint32_t>(bytes, static_cast<std::uint32_t>(f.trial));
    put<std::uint32_t>(bytes, static_cast<std::uint32_t>(f.fail_attempts));
  }
  return sim::crc32c(bytes.data(), bytes.size());
}

const char* to_string(JournalStatus status) {
  switch (status) {
    case JournalStatus::kMissing: return "missing";
    case JournalStatus::kClean: return "clean";
    case JournalStatus::kDroppedTail: return "dropped-tail";
    case JournalStatus::kCorrupt: return "corrupt";
    case JournalStatus::kMismatch: return "mismatch";
  }
  return "?";
}

JournalReadResult decode_sweep_journal(std::string_view bytes,
                                       std::uint32_t fingerprint) {
  JournalReadResult result;
  const sim::io::JournalScan scan = sim::io::scan_journal(
      bytes, kJournal, &fingerprint,
      [&](std::uint8_t type, std::string_view payload) {
        JournalCellRecord r;
        if (!decode_journal_record(type, payload, &r)) return false;
        result.records.push_back(std::move(r));
        return true;
      });
  result.status = scan.status;
  result.message = scan.message;
  if (scan.status == JournalStatus::kCorrupt) result.records.clear();
  return result;
}

JournalReadResult read_sweep_journal(const std::string& path,
                                     std::uint32_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return JournalReadResult{};  // kMissing
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return decode_sweep_journal(bytes, fingerprint);
}

bool SweepJournalWriter::open(const std::string& path,
                              std::uint32_t fingerprint, bool fresh,
                              sim::io::FaultPlan* plan) {
  // Cells complete at minutes-apart cadence, so every frame is synced
  // (sync_every_frames = 1): a resumed sweep trusts everything the writer
  // acknowledged, even across power loss.
  sim::io::AppendJournalWriter::Options options;
  options.sync_every_frames = 1;
  options.plan = plan;
  sim::io::IoResult r = sim::io::IoResult::success();
  if (fresh) {
    r = writer_.open_fresh(path, sim::io::journal_header(kJournal, fingerprint),
                           options);
  } else {
    r = writer_.open_existing(path, options);
  }
  return r.ok;
}

std::string SweepJournalWriter::degraded_reason() const {
  if (!writer_.degraded()) return {};
  return writer_.last_error().describe();
}

void SweepJournalWriter::append(const JournalCellRecord& record) {
  if (!writer_.is_open()) return;
  std::string frame;
  sim::io::append_frame(frame, record_type(record),
                        encode_journal_record(record));
  // A failed append is truncated back to the previous frame boundary and
  // the writer degrades: journaling stops, the sweep keeps computing, and
  // no partially-written record can masquerade as a committed cell.
  const sim::io::IoResult r = writer_.append(frame);
  if (!r.ok) {
    sim::io::note_degraded_plane("sweep-journal", writer_.last_error());
  }
}

void SweepJournalWriter::close() {
  if (writer_.is_open()) (void)writer_.close();
}

// --- supervised sweep driver ------------------------------------------------

namespace {

void run_tasks(TaskPool* pool, std::vector<std::function<void()>> tasks) {
  if (pool != nullptr) {
    pool->run_all(std::move(tasks));
  } else {
    for (auto& t : tasks) t();
  }
}

const JournalCellRecord* find_record(
    const std::vector<JournalCellRecord>* resume, bool ethernet, bool collect,
    const std::string& scenario, BenchmarkKind kind) {
  if (resume == nullptr) return nullptr;
  for (const JournalCellRecord& r : *resume) {
    if (r.ethernet != ethernet || r.collect != collect) continue;
    if (!ethernet && !iequals(r.scenario, scenario)) continue;
    if (!collect && r.kind != kind) continue;
    if (collect && !iequals(r.scenario, scenario)) continue;
    return &r;
  }
  return nullptr;
}

struct RowTraces {
  std::vector<Guarded<core::ReplayTrace>> traces;
  std::vector<TrialError> errors;
  std::uint64_t retried = 0;
  bool collected = false;  ///< ran this session (vs. resumed/skipped)
};

/// Collects one scenario's replay traces under the guard (n parallel
/// traversals), accumulating the row's collect errors in trial order.
RowTraces collect_row(TaskPool* pool, const Scenario& scenario,
                      const ExperimentConfig& cfg) {
  const auto n = static_cast<std::size_t>(cfg.trials);
  RowTraces row;
  row.traces.resize(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    tasks.push_back([&, t] {
      row.traces[t] = guarded_replay_trace(scenario, cfg, static_cast<int>(t));
    });
  }
  run_tasks(pool, std::move(tasks));
  for (const auto& g : row.traces) {
    if (g.error) row.errors.push_back(*g.error);
    row.retried += static_cast<std::uint64_t>(g.retries);
  }
  row.collected = true;
  return row;
}

/// Runs one cell's live + modulated trials (2n tasks, all independent
/// worlds) against already-collected traces.  A trial whose trace failed to
/// collect is skipped: its outcome stays default (completed == false) and
/// the collect error already records the root cause.
void run_cell_trials(TaskPool* pool, const Scenario& scenario,
                     BenchmarkKind kind, const ExperimentConfig& cfg,
                     const RowTraces& row, CellResult& cell) {
  const auto n = static_cast<std::size_t>(cfg.trials);
  cell.live.resize(n);
  cell.modulated.resize(n);
  std::vector<Guarded<BenchmarkOutcome>> live_g(n), mod_g(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(2 * n);
  for (std::size_t t = 0; t < n; ++t) {
    tasks.push_back([&, t] {
      live_g[t] = guarded_live_trial(scenario, kind, cfg, static_cast<int>(t));
    });
    if (!row.traces[t].error) {
      tasks.push_back([&, t] {
        mod_g[t] = guarded_modulated_trial(row.traces[t].value, kind, cfg,
                                           static_cast<int>(t));
      });
    }
  }
  run_tasks(pool, std::move(tasks));
  cell.traces.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    cell.live[t] = std::move(live_g[t].value);
    cell.modulated[t] = std::move(mod_g[t].value);
    cell.traces[t] = row.traces[t].value;
    cell.trials_retried += static_cast<std::uint64_t>(live_g[t].retries) +
                           static_cast<std::uint64_t>(mod_g[t].retries);
  }
  for (const auto& g : live_g) {
    if (g.error) cell.errors.push_back(*g.error);
  }
  for (const auto& g : mod_g) {
    if (g.error) cell.errors.push_back(*g.error);
  }
}

void restore_cell(const JournalCellRecord& rec, CellResult& cell) {
  cell.live = rec.live;
  cell.modulated = rec.modulated;
  cell.errors = rec.errors;
  cell.trials_retried = rec.trials_retried;
  cell.resumed = true;
}

}  // namespace

SweepResult run_supervised_sweep(TaskPool* pool,
                                 const std::vector<Scenario>& scenarios,
                                 const std::vector<BenchmarkKind>& kinds,
                                 const ExperimentConfig& cfg,
                                 const SupervisedSweepOptions& opts) {
  SweepResult result;
  const auto n = static_cast<std::size_t>(cfg.trials);
  const std::size_t ns = scenarios.size();
  const std::size_t nk = kinds.size();
  result.cells.resize(ns * nk);
  result.ethernet.assign(nk, {});
  if (cfg.audit.enabled) result.audits.assign(ns, {});
  SupervisionReport& report = result.supervision;

  // Status totals mirror the resume logic below exactly, so a resumed
  // sweep's board counts only the work it will actually redo.
  sim::status::StatusBoard* board =
      cfg.status != nullptr && cfg.status->enabled() ? cfg.status : nullptr;
  if (board != nullptr) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      bool missing = cfg.audit.enabled;
      for (std::size_t k = 0; k < nk; ++k) {
        if (find_record(opts.resume, false, false, scenarios[s].name,
                        kinds[k]) == nullptr) {
          missing = true;
          total += 2 * n;  // live + modulated trials of the cell
        }
      }
      if (missing) total += n;                 // collection traversals
      if (cfg.audit.enabled) total += n;       // per-trace audits
    }
    for (std::size_t k = 0; k < nk; ++k) {
      if (find_record(opts.resume, true, false, "", kinds[k]) == nullptr) {
        total += n;                            // ethernet baseline trials
      }
    }
    board->set_units("trials", static_cast<double>(total));
    board->publish_now();
  }

  for (std::size_t s = 0; s < ns; ++s) {
    const Scenario& scenario = scenarios[s];
    bool row_missing = false;
    for (std::size_t k = 0; k < nk; ++k) {
      if (find_record(opts.resume, false, false, scenario.name, kinds[k]) ==
          nullptr) {
        row_missing = true;
      }
    }
    // Audits ride on freshly collected traces, so auditing forces a
    // collection even for fully resumed rows (the sweep tool rejects
    // resume + audit; this keeps the library deterministic regardless).
    if (cfg.audit.enabled) row_missing = true;

    RowTraces row;
    row.traces.resize(n);
    if (row_missing) {
      if (board != nullptr) board->set_phase("collect:" + scenario.name);
      row = collect_row(pool, scenario, cfg);
      if (opts.journal != nullptr) {
        JournalCellRecord rec;
        rec.collect = true;
        rec.scenario = scenario.name;
        rec.errors = row.errors;
        rec.trials_retried = row.retried;
        opts.journal->append(rec);
      }
    } else if (const JournalCellRecord* rec = find_record(
                   opts.resume, false, true, scenario.name, kinds.front())) {
      // Fully resumed row: reuse the journaled collection accounting so
      // the supervision summary matches the uninterrupted run.
      row.errors = rec->errors;
      row.retried = rec->trials_retried;
    }
    report.errors.insert(report.errors.end(), row.errors.begin(),
                         row.errors.end());
    report.trials_retried += row.retried;

    for (std::size_t k = 0; k < nk; ++k) {
      CellResult& cell = result.cells[s * nk + k];
      cell.scenario = scenario.name;
      cell.kind = kinds[k];
      if (const JournalCellRecord* rec = find_record(
              opts.resume, false, false, scenario.name, kinds[k])) {
        restore_cell(*rec, cell);
      } else {
        if (board != nullptr) {
          board->set_phase("bench:" + scenario.name + "/" +
                           to_string(kinds[k]));
        }
        run_cell_trials(pool, scenario, kinds[k], cfg, row, cell);
        if (opts.journal != nullptr) {
          JournalCellRecord rec;
          rec.scenario = cell.scenario;
          rec.kind = cell.kind;
          rec.live = cell.live;
          rec.modulated = cell.modulated;
          rec.errors = cell.errors;
          rec.trials_retried = cell.trials_retried;
          opts.journal->append(rec);
        }
      }
      report.errors.insert(report.errors.end(), cell.errors.begin(),
                           cell.errors.end());
      report.trials_retried += cell.trials_retried;
    }

    if (cfg.audit.enabled) {
      if (board != nullptr) board->set_phase("audit:" + scenario.name);
      result.audits[s].resize(n);
      std::vector<Guarded<audit::FidelityReport>> audit_g(n);
      std::vector<std::function<void()>> tasks;
      for (std::size_t t = 0; t < n; ++t) {
        // A skipped audit (errored trace) is still accounted so a finished
        // sweep reports units_done == units_total.
        if (row.traces[t].error) {
          if (board != nullptr) board->add_units_done(1);
          continue;
        }
        tasks.push_back([&, t] {
          audit_g[t] = guarded_trace_audit(
              row.traces[t].value, cfg, static_cast<int>(t),
              scenario.name + "/trial" + std::to_string(t));
        });
      }
      run_tasks(pool, std::move(tasks));
      for (std::size_t t = 0; t < n; ++t) {
        result.audits[s][t] = std::move(audit_g[t].value);
        report.trials_retried += static_cast<std::uint64_t>(audit_g[t].retries);
        if (audit_g[t].error) report.errors.push_back(*audit_g[t].error);
      }
    }
  }

  if (board != nullptr) board->set_phase("ethernet");
  for (std::size_t k = 0; k < nk; ++k) {
    if (const JournalCellRecord* rec =
            find_record(opts.resume, true, false, "", kinds[k])) {
      result.ethernet[k] = rec->live;
      report.errors.insert(report.errors.end(), rec->errors.begin(),
                           rec->errors.end());
      report.trials_retried += rec->trials_retried;
      continue;
    }
    std::vector<Guarded<BenchmarkOutcome>> eth_g(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      tasks.push_back([&, t] {
        eth_g[t] = guarded_ethernet_trial(kinds[k], cfg, static_cast<int>(t));
      });
    }
    run_tasks(pool, std::move(tasks));
    JournalCellRecord rec;
    rec.ethernet = true;
    rec.kind = kinds[k];
    result.ethernet[k].resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      result.ethernet[k][t] = std::move(eth_g[t].value);
      rec.trials_retried += static_cast<std::uint64_t>(eth_g[t].retries);
      if (eth_g[t].error) rec.errors.push_back(*eth_g[t].error);
    }
    rec.live = result.ethernet[k];
    report.errors.insert(report.errors.end(), rec.errors.begin(),
                         rec.errors.end());
    report.trials_retried += rec.trials_retried;
    if (opts.journal != nullptr) opts.journal->append(rec);
  }

  report.trials_failed = report.errors.size();
  tally_timed_out_trials(result);
  if (board != nullptr) board->publish_now();
  return result;
}

CellResult run_supervised_experiment(TaskPool* pool, const Scenario& scenario,
                                     BenchmarkKind kind,
                                     const ExperimentConfig& cfg) {
  RowTraces row = collect_row(pool, scenario, cfg);
  CellResult cell;
  cell.scenario = scenario.name;
  cell.kind = kind;
  // Collection failures lead the cell's error list (root causes first).
  cell.errors = row.errors;
  cell.trials_retried = row.retried;
  run_cell_trials(pool, scenario, kind, cfg, row, cell);
  if (cfg.audit.enabled) {
    const auto n = static_cast<std::size_t>(cfg.trials);
    cell.audits.resize(n);
    std::vector<Guarded<audit::FidelityReport>> audit_g(n);
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < n; ++t) {
      if (row.traces[t].error) continue;
      tasks.push_back([&, t] {
        audit_g[t] =
            guarded_trace_audit(row.traces[t].value, cfg, static_cast<int>(t),
                                "trial" + std::to_string(t));
      });
    }
    run_tasks(pool, std::move(tasks));
    for (std::size_t t = 0; t < n; ++t) {
      cell.audits[t] = std::move(audit_g[t].value);
      cell.trials_retried += static_cast<std::uint64_t>(audit_g[t].retries);
      if (audit_g[t].error) cell.errors.push_back(*audit_g[t].error);
    }
  }
  return cell;
}

// --- sweep JSON -------------------------------------------------------------

namespace {

using sim::json_double;
using sim::json_escape;

void write_json_outcomes(std::ostream& out,
                         const std::vector<BenchmarkOutcome>& outcomes) {
  out << "[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const BenchmarkOutcome& o = outcomes[i];
    out << (i == 0 ? "" : ", ") << "{\"elapsed_s\": " << json_double(o.elapsed_s)
        << ", \"ok\": " << (o.ok ? "true" : "false")
        << ", \"completed\": " << (o.completed ? "true" : "false")
        << ", \"timed_out\": " << (o.timed_out ? "true" : "false")
        << ", \"wall_stuck\": " << (o.wall_stuck ? "true" : "false") << "}";
  }
  out << "]";
}

void write_json_errors(std::ostream& out,
                       const std::vector<TrialError>& errors) {
  out << "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const TrialError& e = errors[i];
    out << (i == 0 ? "" : ", ") << "{\"kind\": \"" << to_string(e.kind)
        << "\", \"phase\": \"" << json_escape(e.phase) << "\", \"scenario\": \""
        << json_escape(e.scenario) << "\", \"benchmark\": \""
        << json_escape(e.benchmark) << "\", \"trial\": " << e.trial
        << ", \"seed\": " << e.seed << ", \"attempts\": " << e.attempts
        << ", \"message\": \"" << json_escape(e.message) << "\"}";
  }
  out << "]";
}

}  // namespace

void write_sweep_json(std::ostream& out, const SweepResult& result,
                      const ExperimentConfig& cfg,
                      const std::vector<BenchmarkKind>& kinds) {
  out << "{\n\"schema\": \"tracemod-sweep-v1\",\n";
  out << "\"tool_version\": \"" << kToolVersion << "\",\n";
  out << "\"config\": {\"base_seed\": " << cfg.base_seed
      << ", \"trials\": " << cfg.trials
      << ", \"tick_ms\": " << json_double(sim::to_milliseconds(cfg.tick))
      << ", \"compensate\": " << (cfg.compensate ? "true" : "false")
      << ", \"supervised\": " << (cfg.supervision.enabled ? "true" : "false")
      << ", \"max_retries\": " << cfg.supervision.max_retries
      << ", \"perturb_retry_seed\": "
      << (cfg.supervision.perturb_retry_seed ? "true" : "false") << "},\n";
  out << "\"cells\": [";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& c = result.cells[i];
    const Summary live = summarize_elapsed(c.live);
    const Summary mod = summarize_elapsed(c.modulated);
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"scenario\": \"" << json_escape(c.scenario)
        << "\", \"benchmark\": \"" << to_string(c.kind)
        << "\", \"resumed\": " << (c.resumed ? "true" : "false")
        << ", \"degraded\": " << (c.errors.empty() ? "false" : "true")
        << ",\n \"live\": {\"mean_s\": " << json_double(live.mean)
        << ", \"stddev_s\": " << json_double(live.stddev) << ", \"trials\": ";
    write_json_outcomes(out, c.live);
    out << "},\n \"modulated\": {\"mean_s\": " << json_double(mod.mean)
        << ", \"stddev_s\": " << json_double(mod.stddev) << ", \"trials\": ";
    write_json_outcomes(out, c.modulated);
    out << "},\n \"trials_retried\": " << c.trials_retried
        << ", \"errors\": ";
    write_json_errors(out, c.errors);
    out << "}";
  }
  out << "\n],\n\"ethernet\": [";
  for (std::size_t k = 0; k < result.ethernet.size(); ++k) {
    const Summary eth = summarize_elapsed(result.ethernet[k]);
    out << (k == 0 ? "\n" : ",\n");
    out << "{\"benchmark\": \""
        << to_string(k < kinds.size() ? kinds[k] : BenchmarkKind::kWeb)
        << "\", \"mean_s\": " << json_double(eth.mean)
        << ", \"stddev_s\": " << json_double(eth.stddev) << ", \"trials\": ";
    write_json_outcomes(out, result.ethernet[k]);
    out << "}";
  }
  out << "\n],\n\"supervision\": {\"trials_failed\": "
      << result.supervision.trials_failed
      << ", \"trials_retried\": " << result.supervision.trials_retried
      << ", \"trials_timed_out\": " << result.supervision.trials_timed_out
      << ", \"errors\": ";
  write_json_errors(out, result.supervision.errors);
  out << "}\n}\n";
}

}  // namespace tracemod::scenarios
