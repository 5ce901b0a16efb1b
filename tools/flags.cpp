#include "flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tracemod::cli {

bool Parsed::str(const std::string& name, std::string* out) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return false;
  *out = it->second.back();
  return true;
}

Parsed parse(const std::string& prog, const std::vector<std::string>& args,
             const std::vector<FlagSpec>& spec, std::size_t min_pos,
             std::size_t max_pos) {
  Parsed p;
  p.prog = prog;
  const char* cmd = prog.c_str();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      p.pos.push_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const FlagSpec* match = nullptr;
    for (const FlagSpec& f : spec) {
      if (name == f.name) match = &f;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", cmd, a.c_str());
      p.failed = true;
      return p;
    }
    const bool inline_value = eq != std::string::npos;
    std::string value = inline_value ? a.substr(eq + 1) : std::string();
    const char* problem = nullptr;
    if (!match->takes_value) {
      if (inline_value) problem = "takes no value";
    } else if (inline_value || !match->optional_value) {
      if (!inline_value && i + 1 < args.size()) value = args[++i];
      if (value.empty()) problem = "requires a value";
    }
    if (problem != nullptr) {
      std::fprintf(stderr, "%s: flag '%s' %s\n", cmd, name.c_str(), problem);
      p.failed = true;
      return p;
    }
    p.flags[name].push_back(value);
  }
  if (p.pos.size() < min_pos || p.pos.size() > max_pos) {
    std::fprintf(stderr, "%s: expected %zu%s argument%s, got %zu\n", cmd,
                 min_pos, max_pos > min_pos ? "+" : "",
                 min_pos == 1 && max_pos == 1 ? "" : "s", p.pos.size());
    p.failed = true;
  }
  return p;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = s.find(sep, start);
    out.push_back(s.substr(start, at - start));
    if (at == std::string::npos) return out;
    start = at + 1;
  }
}

bool parse_uint(const std::string& text, std::uint64_t max,
                std::uint64_t* out) {
  // strtoull alone would accept "-1" (negated), " 1" and "+1".
  if (text.empty() || text.find_first_not_of("0123456789") !=
                          std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || v > max) return false;
  *out = v;
  return true;
}

void reject_value(Parsed& p, const std::string& name,
                  const std::string& expected, const std::string& value) {
  std::fprintf(stderr, "%s: flag '%s' needs %s, got '%s'\n", p.prog.c_str(),
               name.c_str(), expected.c_str(), value.c_str());
  p.failed = true;
}

bool checked_number(Parsed& p, const std::string& name, double* out) {
  std::string text;
  if (!p.str(name, &text)) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    reject_value(p, name, "a number", text);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace tracemod::cli
