// Locale-independent JSON writing helpers, shared by every JSON contract
// in the repo (mublastp-stats-v1, mublastp-bench-v1, mublastp-trace-v1).
//
// printf-family float formatting honours LC_NUMERIC: under a comma-decimal
// locale "%.17g" prints "0,5", which silently corrupts the emitted JSON.
// The number helpers format through std::to_chars, which is
// locale-independent by specification, then normalize the exponent
// spelling to printf's ("1e-05", sign + at least two digits) so output is
// byte-identical to the historical C-locale "%.17g"/"%.*f" emission on
// every host.
#pragma once

#include <string>
#include <string_view>

namespace mublastp::jsonw {

/// Appends `v` with round-trip precision — byte-identical to C-locale
/// "%.17g" — regardless of the process locale.
void append_double(std::string& out, double v);

/// Appends `v` in fixed notation with `precision` fractional digits —
/// byte-identical to C-locale "%.*f" — regardless of the process locale.
void append_fixed(std::string& out, double v, int precision);

/// Appends `s` as a quoted JSON string. '"', '\\', newline and tab are
/// written as \", \\, \n and \t, other bytes below 0x20 as \u00XX; every
/// other byte (UTF-8 sequences included) passes through unchanged.
void append_string(std::string& out, std::string_view s);

/// Appends printf-formatted text of at most 255 bytes (longer output
/// throws). Only for integers, literal punctuation and strings that need
/// no escaping: "%.17g" would honour the locale (use append_double), and
/// string values go through append_string.
[[gnu::format(printf, 2, 3)]] void append_f(std::string& out,
                                            const char* fmt, ...);

}  // namespace mublastp::jsonw
