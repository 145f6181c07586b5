#include "common/json_writer.hpp"

#include <array>
#include <charconv>
#include <cstdarg>
#include <cstddef>
#include <cstdio>

#include "common/error.hpp"

namespace mublastp::jsonw {
namespace {

// printf spells exponents with a mandatory sign and at least two digits
// ("1e+20", "1e-05"); std::to_chars omits the '+' and leading zero
// ("1e20", "1e-5"). Rewrites the to_chars spelling in place so the output
// stays byte-identical to the historical C-locale printf emission.
void normalize_exponent(std::string& out, std::size_t start) {
  const std::size_t e = out.find('e', start);
  if (e == std::string::npos) return;
  std::size_t digits = e + 1;
  if (digits < out.size() && (out[digits] == '+' || out[digits] == '-')) {
    ++digits;
  } else {
    out.insert(digits, 1, '+');
    ++digits;
  }
  if (out.size() - digits < 2) out.insert(digits, 1, '0');
}

}  // namespace

void append_double(std::string& out, double v) {
  std::array<char, 64> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                 std::chars_format::general, 17);
  const std::size_t start = out.size();
  out.append(buf.data(), res.ptr);
  normalize_exponent(out, start);
}

void append_fixed(std::string& out, double v, int precision) {
  std::array<char, 512> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                 std::chars_format::fixed, precision);
  if (res.ec != std::errc{}) {
    // Magnitude too large for the stack buffer; fall back to round-trip form.
    append_double(out, v);
    return;
  }
  out.append(buf.data(), res.ptr);
}

void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_f(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  MUBLASTP_CHECK(n >= 0 && n < static_cast<int>(sizeof(buf)),
                 "append_f output does not fit 255 bytes");
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace mublastp::jsonw
