// The one command-line flag parser, shared by `tracemod` (and its `sweep`
// alias) and the bench binaries.
//
// Every value flag accepts both `--flag VALUE` and `--flag=VALUE`; a flag
// declared with an optional value (only `--audit[=FILE]`) takes one in the
// `=` spelling only.  Unknown flags, missing values, stray positionals and
// malformed numbers are diagnosed on stderr ("<prog>: ..."), so a command
// can exit kExitUsage before any work runs instead of quietly running a
// different experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tracemod::cli {

struct FlagSpec {
  const char* name;
  bool takes_value;
  /// Bare `--flag` is allowed and records an empty value.
  bool optional_value = false;
};

/// Parsed, validated arguments: positionals in order, flags by name.
/// `failed` is sticky: parse() and the checked_* readers set it after a
/// diagnostic.
struct Parsed {
  std::string prog;  ///< diagnostic prefix, e.g. "tracemod sweep"
  std::vector<std::string> pos;
  /// Every value each given flag received, in order; a flag without a
  /// value records one empty string.
  std::map<std::string, std::vector<std::string>> flags;
  bool failed = false;

  bool has(const std::string& name) const { return flags.count(name) > 0; }

  /// The flag's last value; false when the flag was not given.
  bool str(const std::string& name, std::string* out) const;
};

/// Strict parse: every --flag must be declared, value-taking flags must
/// have a non-empty value, and the positional count must be in
/// [min_pos, max_pos].
Parsed parse(const std::string& prog, const std::vector<std::string>& args,
             const std::vector<FlagSpec>& spec, std::size_t min_pos,
             std::size_t max_pos);

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(const std::string& s, char sep);

/// Strict unsigned integer: decimal digits only -- no sign, fraction,
/// exponent or whitespace -- and no larger than `max`.
bool parse_uint(const std::string& text, std::uint64_t max,
                std::uint64_t* out);

/// Diagnoses a malformed value of flag `name` ("needs <expected>") and
/// sets p.failed, so one check after all flags are read covers them all.
void reject_value(Parsed& p, const std::string& name,
                  const std::string& expected, const std::string& value);

/// A numeric flag whose value must parse fully as a number.  Returns true
/// when the flag was given and valid.
bool checked_number(Parsed& p, const std::string& name, double* out);

/// An exact unsigned-integer flag (seeds, thread and trial counts) that
/// must fit in T: `--seed -1` or `--trials 1.5` is malformed, and a
/// 64-bit seed is never rounded through a double.
template <typename T>
bool checked_uint(Parsed& p, const std::string& name, T* out) {
  std::string text;
  std::uint64_t v = 0;
  if (!p.str(name, &text)) return false;
  if (!parse_uint(text, std::numeric_limits<T>::max(), &v)) {
    reject_value(p, name,
                 "a whole number <= " +
                     std::to_string(std::numeric_limits<T>::max()),
                 text);
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace tracemod::cli
