// Tiny option parser for the smilab CLI: positional command + --key=value
// flags, with typed accessors and unknown-flag detection. Kept in the
// library so it is unit-testable.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace smilab {

class Options {
 public:
  /// Parse argv[1..): first non-flag token is the command, the rest must
  /// be --key or --key=value flags, each key at most once. Returns nullopt
  /// (with a message in *error) on malformed input or a repeated flag.
  static std::optional<Options> parse(int argc, const char* const* argv,
                                      std::string* error);

  [[nodiscard]] const std::string& command() const { return command_; }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// An integer flag in the inclusive range [lo, hi]. A malformed or
  /// out-of-range value sets *error (naming the flag and the range) and
  /// returns `fallback`.
  [[nodiscard]] long long get_int(const std::string& key, long long fallback,
                                  long long lo, long long hi,
                                  std::string* error) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback,
                                  std::string* error) const;
  /// A bare `--flag`, `--flag=true|false` or `--flag=1|0`. Any other value
  /// sets *error (naming the flag) and returns `fallback`.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback,
                              std::string* error) const;

  /// Keys the caller never consumed (typo detection).
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace smilab
