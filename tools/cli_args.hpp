// Command-line flags of the mublastp_* tools: --key=VALUE and bare --key.
// An unknown or repeated flag, or a bad value, is a usage error: the tool
// prints "error: ..." naming the flag and exits 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mublastp::cli {

/// A bad flag value: main prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Checks every argument against the forms a tool reads: "key" for a bare
/// --key, "key=" for --key=VALUE. Anything else (a typo, a retired flag, a
/// value on a bare flag) is printed as "error: unknown flag ...", and a key
/// given twice, in either form, as "error: flag ... given twice"; both
/// return false, and main then exits 2. Each tool's main calls it first.
inline bool known_flags(int argc, char** argv,
                        std::initializer_list<std::string_view> forms) {
  std::vector<std::string_view> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view form =
        arg.substr(0, eq == std::string_view::npos ? eq : eq + 1);
    if (!form.starts_with("--") ||
        std::find(forms.begin(), forms.end(), form.substr(2)) ==
            forms.end()) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
    const std::string_view key = arg.substr(0, eq);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      std::fprintf(stderr, "error: flag '%.*s' given twice\n",
                   static_cast<int>(key.size()), key.data());
      return false;
    }
    seen.push_back(key);
  }
  return true;
}

/// The value of --key=VALUE, or nullopt when the flag is absent.
inline std::optional<std::string> arg_value(int argc, char** argv,
                                            const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

inline std::string arg_str(int argc, char** argv, const std::string& key,
                           const std::string& fallback) {
  return arg_value(argc, argv, key).value_or(fallback);
}

/// Reads --key=VALUE as one decimal number (std::from_chars syntax, nothing
/// around it) within [lo, hi]; `fallback` when the flag is absent.
template <typename T>
T arg_number(int argc, char** argv, const std::string& key, T fallback, T lo,
             T hi) {
  const std::optional<std::string> v = arg_value(argc, argv, key);
  if (!v) return fallback;
  T x{};
  const char* end = v->data() + v->size();
  const auto [stop, ec] = std::from_chars(v->data(), end, x);
  // Written so that a NaN fails too.
  if (ec != std::errc{} || stop != end || !(x >= lo && x <= hi)) {
    std::ostringstream msg;
    msg << "--" << key << " must be a number from " << lo << " to " << hi
        << " (got '" << *v << "')";
    throw UsageError(msg.str());
  }
  return x;
}

/// Reads --key=VALUE (`fallback` when absent) through `parse`, which throws
/// on a value it does not take; the throw becomes a UsageError naming the
/// flag.
template <typename Parse>
auto arg_parsed(int argc, char** argv, const std::string& key,
                const std::string& fallback, Parse parse) {
  const std::string v = arg_str(argc, argv, key, fallback);
  try {
    return parse(v);
  } catch (const std::exception& e) {
    throw UsageError("--" + key + ": " + e.what());
  }
}

inline bool arg_flag(int argc, char** argv, const std::string& key) {
  const std::string bare = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) return true;
  }
  return false;
}

}  // namespace mublastp::cli
