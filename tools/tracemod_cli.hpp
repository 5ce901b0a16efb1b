// The tracemod command line as a library, so the exit-code contract and
// flag handling are testable without spawning the binary.
//
// Contract (pinned by tests/tools/tracemod_cli_test.cpp):
//   - unknown subcommands and malformed flags print usage to stderr and
//     return kExitUsage;
//   - I/O and trace-format failures return kExitIo;
//   - `verify` returns kExitSalvage for damaged-but-salvageable traces;
//   - `audit` returns kExitAudit when the fidelity verdict is breach or
//     unauditable; `sweep --audit` (and the fig benches' --audit) only
//     when an audit breached;
//   - kExitDegraded is returned by supervised sweeps that completed with
//     degraded cells (`tracemod sweep`: every cell ran, but at least one
//     trial exhausted its retries and carries a TrialError record), by
//     runs whose journal/checkpoint plane degraded after a write failure
//     (the results are complete but no longer resumable; DESIGN.md
//     section 15), and by `campus` runs that did not reach their virtual
//     horizon (watchdog or drained queue);
//   - exit code 6 is reserved by the benchmark build guard
//     (bench/build_guard.hpp: refused to benchmark a non-Release build)
//     and is never returned by tracemod itself.
// README.md carries the full 0-6 table.
#pragma once

#include <string>
#include <vector>

namespace tracemod::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitIo = 2;
inline constexpr int kExitSalvage = 3;
inline constexpr int kExitAudit = 4;
inline constexpr int kExitDegraded = 5;
/// Bench-only (bench/build_guard.hpp defines the authoritative constant);
/// mirrored here so the CLI test can pin the whole 0-6 contract disjoint.
inline constexpr int kExitNonReleaseBuild = 6;

/// Runs one tracemod invocation.  `args` excludes argv[0]; the first
/// element is the subcommand.  Never throws: failures map to the exit
/// codes above with diagnostics on stderr.
int run(const std::vector<std::string>& args);

}  // namespace tracemod::cli
