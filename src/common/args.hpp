#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace edsim {

/// Minimal `--key value` / `--flag` command-line parser for the example
/// and tool binaries. Positional arguments are collected in order.
class Args {
 public:
  /// `boolean_flags` lists options that take no value. A non-empty
  /// `known` lists every option the tool reads: any other throws
  /// ConfigError naming it where it appears, before a value is looked
  /// for, so a typo or a removed flag is an error rather than a silent
  /// no-op, and a trailing unknown option is not misread as one missing
  /// its value.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& boolean_flags = {},
       const std::vector<std::string>& known = {});

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The command line of a tool that reads only the options in `known` and
/// at most `max_positional` bare arguments, or nullopt after printing
/// "<program>: <why>" and `usage` to stderr; the caller then exits 2.
std::optional<Args> parse_command_line(
    int argc, const char* const* argv, const char* program,
    const char* usage, const std::vector<std::string>& known,
    const std::vector<std::string>& boolean_flags = {},
    std::size_t max_positional = 0);

}  // namespace edsim
