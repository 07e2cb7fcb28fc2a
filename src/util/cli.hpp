#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

/// \file cli.hpp
/// Minimal flag parsing for the experiment harnesses and tools.
///
/// Supported forms: `--key=value` and bare `--flag` (boolean); everything
/// else is positional. Every read (`has`, `get`, `get_*`, `positional`) is
/// recorded, so a caller that has read all the flags it takes calls
/// reject_unread() once and refuses the rest: a misspelt or foreign flag
/// fails the command line instead of being ignored. Not intended as a
/// general-purpose CLI library — just enough for reproducible experiment
/// invocation lines.

namespace crmd::util {

/// Parsed command line. The read record is not synchronized: read an Args
/// from one thread.
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
    positional_read_ = true;
    return positional_;
  }

  /// Throws std::invalid_argument naming every flag that no read above
  /// has asked for, and every positional argument when positional() was
  /// never called ("unknown flag --bogus; unexpected argument x"). Call it
  /// once, after the last read and before any work.
  void reject_unread() const;

 private:
  /// The value stored for `key` (nullptr when absent); records the read.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
  mutable bool positional_read_ = false;
};

}  // namespace crmd::util
