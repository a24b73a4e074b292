// The one text codec for doubles and counts. Every parameter signature, CSV
// cell, wire response, metrics value, instance file and scenario-cache value
// renders through format_param, and the scenario cache parses back through
// parse_double / parse_count.
//
// format_param writes what printf("%.17g") writes, byte for byte (C++17
// specifies std::to_chars with chars_format::general and precision 17 that
// way). Seventeen significant digits round-trip every IEEE-754 binary64, so
// parse_double(format_param(x)) is bit-identical to x, NaN payload aside.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ps::util {

/// Canonical %.17g rendering of `value` — the round-trippable format used by
/// parameter signatures, CSV cells and every file the program writes.
std::string format_param(double value);

/// Appends format_param(value) to `out` without a temporary string.
void append_param(std::string& out, double value);

/// Parses all of `token` as a double in the decimal forms format_param
/// writes (including inf and nan). Rejects an empty token, a leading '+' or
/// whitespace, hex floats, trailing characters, and decimals whose value
/// rounds to zero or infinity; exact subnormals load.
bool parse_double(std::string_view token, double& out);

/// Parses all of `token` as an unsigned decimal count. Rejects an empty
/// token, a sign, a hex prefix, trailing characters and values past 2^64-1.
bool parse_count(std::string_view token, std::uint64_t& out);

}  // namespace ps::util
