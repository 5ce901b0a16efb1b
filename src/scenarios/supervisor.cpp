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
#include "sim/crc32c.hpp"
#include "sim/io/codec.hpp"
#include "sim/json.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "sim/task_pool.hpp"
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
/// bounded retry policy.  Serial and parallel sweeps both funnel through
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

/// run_guarded_impl plus status accounting.  Serial and parallel sweeps
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

// --- the sweep engine -------------------------------------------------------

namespace {

using Tasks = std::vector<std::function<void()>>;

void run_tasks(sim::TaskPool* pool, Tasks tasks) {
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

void restore_cell(const JournalCellRecord& rec, CellResult& cell) {
  cell.live = rec.live;
  cell.modulated = rec.modulated;
  cell.errors = rec.errors;
  cell.trials_retried = rec.trials_retried;
  cell.resumed = true;
}

/// Moves guarded values into `out` in trial order, appending their errors
/// and retry attempts.
template <typename T>
void fold(std::vector<Guarded<T>>& guarded, std::vector<T>& out,
          std::vector<TrialError>& errors, std::uint64_t& retried) {
  out.resize(guarded.size());
  for (std::size_t t = 0; t < guarded.size(); ++t) {
    out[t] = std::move(guarded[t].value);
    retried += static_cast<std::uint64_t>(guarded[t].retries);
    if (guarded[t].error) errors.push_back(*guarded[t].error);
  }
}

/// One run of the trial matrix.  Every task writes only its own guarded
/// slot, and the finish_* steps fold the slots into the result in matrix
/// order, so neither the pool nor the batch plan can reorder a result, an
/// error record or a journal record.
class Sweep {
 public:
  Sweep(const std::vector<Scenario>& scenarios,
        const std::vector<BenchmarkKind>& kinds, const ExperimentConfig& cfg,
        const SweepOptions& opts);
  // Pool tasks hold `this`.
  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  SweepResult run(sim::TaskPool* pool);

 private:
  std::size_t cell(std::size_t s, std::size_t k) const { return s * nk_ + k; }
  void count_units() const;
  std::string rows(const char* half, std::size_t lo, std::size_t hi) const;
  void phase_one(std::size_t s, Tasks& tasks);
  void phase_two(std::size_t s, Tasks& tasks);
  void ethernet(Tasks& tasks);
  void finish_collect(std::size_t s);
  void finish_row(std::size_t s);
  void finish_ethernet();
  void skip_unit() const {
    if (board_ != nullptr) board_->add_units_done(1);
  }
  void journal(const JournalCellRecord& rec) const {
    if (opts_.journal != nullptr) opts_.journal->append(rec);
  }
  void tally(const std::vector<TrialError>& errors, std::uint64_t retried) {
    SupervisionReport& report = result_.supervision;
    report.errors.insert(report.errors.end(), errors.begin(), errors.end());
    report.trials_retried += retried;
  }

  const std::vector<Scenario>& scenarios_;
  const std::vector<BenchmarkKind>& kinds_;
  const ExperimentConfig& cfg_;
  const SweepOptions& opts_;
  const std::size_t n_;
  const std::size_t nk_;
  sim::status::StatusBoard* const board_;
  /// Journal records that stand in for a cell / an Ethernet row.
  std::vector<const JournalCellRecord*> cell_rec_;
  std::vector<const JournalCellRecord*> eth_rec_;
  /// Rows whose traversals this run performs: every row with a cell to run.
  /// Audits ride on freshly collected traces, so auditing forces a
  /// collection even for fully resumed rows (the sweep tool rejects resume
  /// + audit; this keeps the library deterministic regardless).
  std::vector<bool> collect_;
  /// Per row: the collection's errors and retries as journaled.
  std::vector<JournalCellRecord> collected_;
  /// Guarded slots: traces_ and audits_ per [row][trial], live_ and mod_
  /// per [cell][trial], eth_ per [kind][trial].
  std::vector<std::vector<Guarded<core::ReplayTrace>>> traces_;
  std::vector<std::vector<Guarded<audit::FidelityReport>>> audits_;
  std::vector<std::vector<Guarded<BenchmarkOutcome>>> live_, mod_, eth_;
  SweepResult result_;
};

Sweep::Sweep(const std::vector<Scenario>& scenarios,
             const std::vector<BenchmarkKind>& kinds,
             const ExperimentConfig& cfg, const SweepOptions& opts)
    : scenarios_(scenarios),
      kinds_(kinds),
      cfg_(cfg),
      opts_(opts),
      n_(static_cast<std::size_t>(cfg.trials)),
      nk_(kinds.size()),
      board_(cfg.status != nullptr && cfg.status->enabled() ? cfg.status
                                                            : nullptr),
      cell_rec_(scenarios.size() * kinds.size()),
      eth_rec_(kinds.size()),
      collect_(scenarios.size(), cfg.audit.enabled),
      collected_(scenarios.size()),
      traces_(scenarios.size()),
      audits_(scenarios.size()),
      live_(scenarios.size() * kinds.size()),
      mod_(scenarios.size() * kinds.size()),
      eth_(kinds.size()) {
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    for (std::size_t k = 0; k < nk_; ++k) {
      cell_rec_[cell(s, k)] = find_record(opts_.resume, false, false,
                                          scenarios_[s].name, kinds_[k]);
      if (cell_rec_[cell(s, k)] == nullptr) collect_[s] = true;
    }
  }
  for (std::size_t k = 0; k < nk_; ++k) {
    eth_rec_[k] = find_record(opts_.resume, true, false, "", kinds_[k]);
  }
  result_.cells.resize(scenarios_.size() * nk_);
  result_.ethernet.assign(nk_, {});
  if (cfg_.audit.enabled) result_.audits.assign(scenarios_.size(), {});
}

// Status totals mirror the resume logic exactly, so a resumed sweep's board
// counts only the work it will actually redo.
void Sweep::count_units() const {
  if (board_ == nullptr) return;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    if (collect_[s]) total += n_;         // collection traversals
    if (cfg_.audit.enabled) total += n_;  // per-trace audits
    for (std::size_t k = 0; k < nk_; ++k) {
      if (cell_rec_[cell(s, k)] == nullptr) total += 2 * n_;  // live + mod
    }
  }
  for (std::size_t k = 0; k < nk_; ++k) {
    if (eth_rec_[k] == nullptr) total += n_;  // ethernet baseline trials
  }
  board_->set_units("trials", static_cast<double>(total));
  board_->publish_now();
}

/// "live:Wean" or "live:Wean..Chatterbox": one half of a batch's rows.
std::string Sweep::rows(const char* half, std::size_t lo,
                        std::size_t hi) const {
  std::string label = std::string(half) + ":" + scenarios_[lo].name;
  if (hi - lo > 1) label += ".." + scenarios_[hi - 1].name;
  return label;
}

void Sweep::phase_one(std::size_t s, Tasks& tasks) {
  const Scenario& scenario = scenarios_[s];
  if (collect_[s]) {
    traces_[s].resize(n_);
    for (std::size_t t = 0; t < n_; ++t) {
      tasks.push_back([this, &scenario, s, t] {
        traces_[s][t] =
            guarded_replay_trace(scenario, cfg_, static_cast<int>(t));
      });
    }
  }
  for (std::size_t k = 0; k < nk_; ++k) {
    const std::size_t c = cell(s, k);
    if (cell_rec_[c] != nullptr) continue;
    live_[c].resize(n_);
    for (std::size_t t = 0; t < n_; ++t) {
      tasks.push_back([this, &scenario, c, k, t] {
        live_[c][t] = guarded_live_trial(scenario, kinds_[k], cfg_,
                                         static_cast<int>(t));
      });
    }
  }
}

// A trial whose trace failed to collect is skipped: its outcome stays
// default (completed == false) and the collect error already records the
// root cause.  Skipped trials still count as done units, so a finished
// sweep reports units_done == units_total.
void Sweep::phase_two(std::size_t s, Tasks& tasks) {
  for (std::size_t k = 0; k < nk_; ++k) {
    const std::size_t c = cell(s, k);
    if (cell_rec_[c] != nullptr) continue;
    mod_[c].resize(n_);
    for (std::size_t t = 0; t < n_; ++t) {
      if (traces_[s][t].error) {
        skip_unit();
        continue;
      }
      tasks.push_back([this, s, c, k, t] {
        mod_[c][t] = guarded_modulated_trial(traces_[s][t].value, kinds_[k],
                                             cfg_, static_cast<int>(t));
      });
    }
  }
  if (!cfg_.audit.enabled) return;
  audits_[s].resize(n_);
  for (std::size_t t = 0; t < n_; ++t) {
    if (traces_[s][t].error) {
      skip_unit();
      continue;
    }
    tasks.push_back([this, s, t] {
      audits_[s][t] = guarded_trace_audit(
          traces_[s][t].value, cfg_, static_cast<int>(t),
          scenarios_[s].name + "/trial" + std::to_string(t));
    });
  }
}

void Sweep::ethernet(Tasks& tasks) {
  for (std::size_t k = 0; k < nk_; ++k) {
    if (eth_rec_[k] != nullptr) continue;
    eth_[k].resize(n_);
    for (std::size_t t = 0; t < n_; ++t) {
      tasks.push_back([this, k, t] {
        eth_[k][t] =
            guarded_ethernet_trial(kinds_[k], cfg_, static_cast<int>(t));
      });
    }
  }
}

void Sweep::finish_collect(std::size_t s) {
  if (!collect_[s]) return;
  JournalCellRecord& rec = collected_[s];
  rec.collect = true;
  rec.scenario = scenarios_[s].name;
  for (const auto& g : traces_[s]) {
    if (g.error) rec.errors.push_back(*g.error);
    rec.trials_retried += static_cast<std::uint64_t>(g.retries);
  }
  journal(rec);
}

// Folds one row in the order SupervisionReport::errors promises: the
// collection, then each cell's live and modulated trials, then the audits.
void Sweep::finish_row(std::size_t s) {
  const Scenario& scenario = scenarios_[s];
  // A fully resumed row reuses its journaled collection accounting, so the
  // supervision summary matches the uninterrupted run.
  if (const JournalCellRecord* rec =
          collect_[s] ? &collected_[s]
                      : find_record(opts_.resume, false, true, scenario.name,
                                    BenchmarkKind{})) {
    tally(rec->errors, rec->trials_retried);
  }

  for (std::size_t k = 0; k < nk_; ++k) {
    const std::size_t c = cell(s, k);
    CellResult& cell = result_.cells[c];
    cell.scenario = scenario.name;
    cell.kind = kinds_[k];
    if (cell_rec_[c] != nullptr) {
      restore_cell(*cell_rec_[c], cell);
    } else {
      fold(live_[c], cell.live, cell.errors, cell.trials_retried);
      fold(mod_[c], cell.modulated, cell.errors, cell.trials_retried);
      cell.traces.resize(n_);
      for (std::size_t t = 0; t < n_; ++t) {
        cell.traces[t] = traces_[s][t].value;
      }
      JournalCellRecord rec;
      rec.scenario = cell.scenario;
      rec.kind = cell.kind;
      rec.live = cell.live;
      rec.modulated = cell.modulated;
      rec.errors = cell.errors;
      rec.trials_retried = cell.trials_retried;
      journal(rec);
    }
    tally(cell.errors, cell.trials_retried);
  }

  if (cfg_.audit.enabled) {
    fold(audits_[s], result_.audits[s], result_.supervision.errors,
         result_.supervision.trials_retried);
  }
}

void Sweep::finish_ethernet() {
  for (std::size_t k = 0; k < nk_; ++k) {
    JournalCellRecord rec;
    if (eth_rec_[k] != nullptr) {
      rec = *eth_rec_[k];
    } else {
      rec.ethernet = true;
      rec.kind = kinds_[k];
      fold(eth_[k], rec.live, rec.errors, rec.trials_retried);
      journal(rec);
    }
    result_.ethernet[k] = rec.live;
    tally(rec.errors, rec.trials_retried);
  }
}

SweepResult Sweep::run(sim::TaskPool* pool) {
  count_units();
  // The batch plan (supervisor.hpp).  A journal makes every row a group, so
  // each finished row is journaled before the next batch starts; without
  // one the whole matrix is a single group, which keeps the pool full.
  const std::size_t ns = scenarios_.size();
  const std::size_t group =
      opts_.journal != nullptr ? 1 : std::max<std::size_t>(ns, 1);
  const std::size_t groups = (ns + group - 1) / group;
  auto lo = [&](std::size_t g) { return g * group; };
  auto hi = [&](std::size_t g) { return std::min(ns, (g + 1) * group); };
  for (std::size_t b = 0; b <= groups; ++b) {
    Tasks tasks;
    std::string phase;
    if (b > 0) {
      for (std::size_t s = lo(b - 1); s < hi(b - 1); ++s) phase_two(s, tasks);
      phase = rows("modulated", lo(b - 1), hi(b - 1));
    }
    if (b < groups) {
      for (std::size_t s = lo(b); s < hi(b); ++s) phase_one(s, tasks);
      phase += (phase.empty() ? "" : " ") + rows("live", lo(b), hi(b));
    }
    if (b == 0) ethernet(tasks);
    if (board_ != nullptr) board_->set_phase(phase);
    run_tasks(pool, std::move(tasks));
    if (b > 0) {
      for (std::size_t s = lo(b - 1); s < hi(b - 1); ++s) finish_row(s);
    }
    if (b < groups) {
      for (std::size_t s = lo(b); s < hi(b); ++s) finish_collect(s);
    }
  }
  // Ethernet rows ran in the first batch but fold (and journal) last, where
  // the error order and the journal's record order put them.
  finish_ethernet();
  result_.supervision.trials_failed = result_.supervision.errors.size();
  tally_timed_out_trials(result_);
  if (board_ != nullptr) board_->publish_now();
  return std::move(result_);
}

}  // namespace

SweepResult run_sweep(sim::TaskPool* pool,
                      const std::vector<Scenario>& scenarios,
                      const std::vector<BenchmarkKind>& kinds,
                      const ExperimentConfig& cfg, const SweepOptions& opts) {
  return Sweep(scenarios, kinds, cfg, opts).run(pool);
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
