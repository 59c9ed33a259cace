/// \file cli_flags.hpp
/// \brief Strict command-line scanning for the example programs.
///
/// Every argument must be a known `--name value` / `--name=value` flag.
/// `--help` (or `-h`) prints the usage text to stdout and exits 0
/// before anything is bound or connected; an unknown flag, a flag
/// without a value or an invalid value prints an error and the usage
/// text to stderr and exits 2.  Nothing falls back silently.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "exp/emulator_options.hpp"

namespace hdhash::examples {

class cli_flags {
 public:
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// Scans argv against the `known` flag names (each takes a value).
  cli_flags(int argc, char** argv, std::string_view usage,
            std::initializer_list<std::string_view> known)
      : program_(argc > 0 ? argv[0] : "example"), usage_(usage) {
    const std::size_t slash = program_.find_last_of('/');
    if (slash != std::string::npos) {
      program_.erase(0, slash + 1);
    }
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(usage_.c_str(), stdout);
        std::exit(0);
      }
      const std::size_t equals = arg.find('=');
      const std::string name(arg.substr(0, equals));
      bool is_known = false;
      for (const std::string_view flag : known) {
        is_known = is_known || name == flag;
      }
      if (!is_known) {
        fail("unknown flag '" + std::string(arg) + "'");
      }
      if (equals != std::string_view::npos) {
        values_[name] = std::string(arg.substr(equals + 1));
      } else if (i + 1 < argc) {
        values_[name] = argv[++i];
      } else {
        fail(name + " needs a value");
      }
    }
  }

  /// The flag's value as an integer in [1, max]; `fallback` when the
  /// flag is absent.  Exits 2 on anything else.
  std::size_t positive(const std::string& name, std::size_t fallback,
                       std::size_t max = kUnbounded) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    const std::size_t value = parse_positive_value(it->second.c_str());
    if (value == 0 || value > max) {
      const std::string range =
          max == kUnbounded ? "a positive integer"
                            : "an integer in [1, " + std::to_string(max) + "]";
      fail(name + " needs " + range + ", got '" + it->second + "'");
    }
    return value;
  }

  /// The flag's value; `fallback` when absent.  Exits 2 when empty.
  std::string text(const std::string& name, std::string fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    if (it->second.empty()) {
      fail(name + " needs a non-empty value");
    }
    return it->second;
  }

  /// Prints "<program>: <message>" and the usage text, exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
                 usage_.c_str());
    std::exit(2);
  }

 private:
  std::string program_;
  std::string usage_;
  std::map<std::string, std::string> values_;
};

}  // namespace hdhash::examples
