#include "common/args.hpp"

#include <algorithm>
#include <iostream>

#include "common/error.hpp"

namespace edsim {

namespace {
bool contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}
}  // namespace

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& boolean_flags,
           const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    require(!key.empty(), "args: bare '--' is not a valid option");
    const std::size_t eq = key.find('=');
    const std::string name = key.substr(0, eq);
    require(known.empty() || contains(known, name),
            "args: unknown option --" + name);
    if (eq != std::string::npos) {
      values_[name] = key.substr(eq + 1);
      continue;
    }
    if (contains(boolean_flags, key)) {
      values_[key] = "1";
    } else {
      require(i + 1 < argc, "args: option --" + key + " needs a value");
      values_[key] = argv[++i];
    }
  }
}

std::optional<Args> parse_command_line(
    int argc, const char* const* argv, const char* program,
    const char* usage, const std::vector<std::string>& known,
    const std::vector<std::string>& boolean_flags,
    std::size_t max_positional) {
  try {
    Args args(argc, argv, boolean_flags, known);
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
