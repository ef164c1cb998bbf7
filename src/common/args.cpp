#include "common/args.hpp"

#include <algorithm>
#include <iostream>

#include "common/error.hpp"

namespace edsim {

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& boolean_flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    require(!key.empty(), "args: bare '--' is not a valid option");
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    const bool is_bool =
        std::find(boolean_flags.begin(), boolean_flags.end(), key) !=
        boolean_flags.end();
    if (is_bool) {
      values_[key] = "1";
    } else {
      require(i + 1 < argc, "args: option --" + key + " needs a value");
      values_[key] = argv[++i];
    }
  }
}

void Args::require_known(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    require(std::find(known.begin(), known.end(), key) != known.end(),
            "args: unknown option --" + key);
  }
}

std::optional<Args> parse_command_line(
    int argc, const char* const* argv, const char* program,
    const char* usage, const std::vector<std::string>& known,
    const std::vector<std::string>& boolean_flags,
    std::size_t max_positional) {
  try {
    Args args(argc, argv, boolean_flags);
    args.require_known(known);
    if (args.positional().size() > max_positional) {
      throw ConfigError("unexpected argument '" +
                        args.positional()[max_positional] + "'");
    }
    return args;
  } catch (const ConfigError& e) {
    std::cerr << program << ": " << e.what() << "\n" << usage;
    return std::nullopt;
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stoull(it->second, nullptr, 0);
  } catch (const std::exception&) {
    require(false, "args: --" + key + " expects a number, got '" +
                       it->second + "'");
  }
  return fallback;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    require(false, "args: --" + key + " expects a number, got '" +
                       it->second + "'");
  }
  return fallback;
}

}  // namespace edsim
