// JSON writing helpers for the observability layer: the escaping and
// number formatting the trace, report, metrics and service exporters
// share (none of them needs a DOM to *produce* JSON). Tests read the
// exported artifacts back with the parser in tests/support/json_parse.h.
#pragma once

#include <string>

namespace ditto::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(const std::string& s);

/// Formats a double the way JSON expects: no inf/nan (clamped to 0),
/// shortest round-trippable form is not required — %.17g trimmed.
std::string json_number(double v);

}  // namespace ditto::obs
