#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file cli.hpp
/// Minimal flag parsing for the experiment harnesses.
///
/// Supported forms: `--key=value` and bare `--flag` (boolean); everything
/// else is positional. Unknown flags are kept and can be listed, so
/// harnesses can warn rather than crash. Not intended as a general-purpose
/// CLI library — just enough for reproducible experiment invocation lines.

namespace crmd::util {

/// Parsed command line.
class Args {
 public:
  /// Parses argv (skipping argv[0]).
  Args(int argc, const char* const* argv);

  /// True if the flag appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// String value of `key`, or `fallback` when absent/valueless.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;

  /// Integer value of `key` (base 10), or `fallback` when absent.
  /// Throws std::invalid_argument naming the flag on malformed or
  /// out-of-range numbers.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;

  /// get_int, checked before any narrowing: throws std::invalid_argument
  /// ("--key must be in [lo, hi], got V") when the value lies outside
  /// [lo, hi].
  [[nodiscard]] std::int64_t get_int_in(const std::string& key,
                                        std::int64_t fallback, std::int64_t lo,
                                        std::int64_t hi) const;

  /// Double value of `key`, or `fallback` when absent.
  /// Throws std::invalid_argument naming the flag on malformed or
  /// out-of-range numbers.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Boolean flag: present without value or with value in
  /// {1, true, yes, on} (case-sensitive) -> true; absent -> fallback.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// All flag keys seen, for unknown-flag warnings.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace crmd::util
