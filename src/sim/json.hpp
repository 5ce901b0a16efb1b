// The JSON scalar formatting every emitted document shares: one string
// escaper and one lossless number format, so each tracemod-*-v1 writer
// escapes and rounds the same way.
#pragma once

#include <string>

namespace tracemod::sim {

/// Escapes a string for embedding in a JSON string literal: quote and
/// backslash, \n \r \t, and any other control character as \u00XX.
std::string json_escape(const std::string& s);

/// Formats a double with %.17g, which round-trips every finite value.
std::string json_double(double v);

}  // namespace tracemod::sim
