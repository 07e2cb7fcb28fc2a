#include "util/cli.hpp"

#include <stdexcept>
#include <string>

namespace crmd::util {
namespace {

constexpr const char* kPresent = "\x01present";

// Parses all of `text` with `parse` (std::stoll / std::stod). Text that is
// not a number, has trailing junk or overflows the type throws
// std::invalid_argument naming the flag, so a harness can print one line.
template <typename Parse>
auto parse_number(const std::string& key, const std::string& text,
                  const char* type, Parse parse) {
  try {
    std::size_t used = 0;
    const auto value = parse(text, &used);
    if (used == text.size()) {
      return value;
    }
  } catch (const std::out_of_range&) {
    throw std::invalid_argument(std::string(type) + " out of range for --" +
                                key + ": " + text);
  } catch (const std::invalid_argument&) {
    // Not a number at all: reported below, like trailing junk.
  }
  throw std::invalid_argument("malformed " + std::string(type) + " for --" +
                              key + ": " + text);
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // Bare boolean flag. (A separate `--key value` form would be ambiguous
    // with positionals, so only `--key=value` carries values.)
    flags_[body] = kPresent;
  }
}

const std::string* Args::find(const std::string& key) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Args::has(const std::string& key) const { return find(key) != nullptr; }

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const std::string* value = find(key);
  if (value == nullptr || *value == kPresent) {
    return fallback;
  }
  return *value;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr || *value == kPresent) {
    return fallback;
  }
  return parse_number(
      key, *value, "integer",
      [](const std::string& text, std::size_t* used) {
        return std::stoll(text, used, 10);
      });
}

std::int64_t Args::get_int_in(const std::string& key, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const {
  const std::int64_t value = get_int(key, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + key + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr || *value == kPresent) {
    return fallback;
  }
  return parse_number(
      key, *value, "double",
      [](const std::string& text, std::size_t* used) {
        return std::stod(text, used);
      });
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    return fallback;
  }
  const std::string& v = *value;
  return v == kPresent || v == "1" || v == "true" || v == "yes" || v == "on";
}

void Args::reject_unread() const {
  std::vector<std::string> flags;
  for (const auto& [key, value] : flags_) {
    if (read_.count(key) == 0) {
      flags.push_back("--" + key);
    }
  }
  std::vector<std::string> extra;
  if (!positional_read_) {
    extra = positional_;
  }
  // "unknown flags --a, --b; unexpected argument x"
  std::string what;
  const auto list = [&what](const char* noun,
                            const std::vector<std::string>& items) {
    if (items.empty()) {
      return;
    }
    what += (what.empty() ? "" : "; ") + std::string(noun) +
            (items.size() > 1 ? "s " : " ");
    for (std::size_t i = 0; i < items.size(); ++i) {
      what += (i > 0 ? ", " : "") + items[i];
    }
  };
  list("unknown flag", flags);
  list("unexpected argument", extra);
  if (!what.empty()) {
    throw std::invalid_argument(what);
  }
}

}  // namespace crmd::util
