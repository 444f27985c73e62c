#include "smilab/cli/options.h"

#include <cerrno>
#include <cstdlib>

namespace smilab {

std::optional<Options> Options::parse(int argc, const char* const* argv,
                                      std::string* error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      if (body.empty()) {
        if (error) *error = "empty flag '--'";
        return std::nullopt;
      }
      const auto eq = body.find('=');
      if (eq == 0) {
        if (error) *error = "flag with empty name: '" + arg + "'";
        return std::nullopt;
      }
      const std::string key = body.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "true" : body.substr(eq + 1);
      if (!options.values_.emplace(key, value).second) {
        if (error) *error = "flag --" + key + " given more than once";
        return std::nullopt;
      }
    } else if (options.command_.empty()) {
      options.command_ = arg;
    } else {
      if (error) *error = "unexpected positional argument '" + arg + "'";
      return std::nullopt;
    }
  }
  return options;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Options::get_int(const std::string& key, long long fallback,
                           long long lo, long long hi,
                           std::string* error) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    if (error) *error = "flag --" + key + " expects an integer, got '" +
                        it->second + "'";
    return fallback;
  }
  if (errno == ERANGE || value < lo || value > hi) {
    if (error) *error = "flag --" + key + " must be an integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "], got '" + it->second + "'";
    return fallback;
  }
  return value;
}

double Options::get_double(const std::string& key, double fallback,
                           std::string* error) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    if (error) *error = "flag --" + key + " expects a number, got '" +
                        it->second + "'";
    return fallback;
  }
  return value;
}

bool Options::get_bool(const std::string& key, bool fallback,
                       std::string* error) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  if (error) *error = "flag --" + key + " expects true, false, 1 or 0, got '" +
                      it->second + "'";
  return fallback;
}

std::vector<std::string> Options::unconsumed() const {
  std::vector<std::string> extra;
  for (const auto& [key, value] : values_) {
    if (!consumed_.contains(key)) extra.push_back(key);
  }
  return extra;
}

}  // namespace smilab
