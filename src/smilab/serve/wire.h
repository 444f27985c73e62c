// Minimal JSON for the serve wire protocol (newline-delimited request and
// response lines, serve/request.h describes the schema).
//
// Deliberately tiny and dependency-free: the requests are flat objects of
// scalars, so the parser supports exactly RFC-8259 structure (objects,
// arrays, strings with every escape — \uXXXX decodes to UTF-8, surrogate
// pairs joined, lone surrogates rejected — numbers, booleans, null) and
// preserves object key order (canonicalization is done by
// serve/request.cpp against the *parsed* fields, so wire-level key order
// and whitespace never matter). Raw string bytes are taken as they come;
// the writer's json_escape is what keeps every emitted line UTF-8.
//
// Writing goes through JsonWriter, which emits keys in call order — the
// serve daemon's cached payloads are byte-exact strings, so the writer is
// the single place response formatting lives. Doubles are rendered with
// %.17g (round-trip exact for IEEE-754 binary64): a cache hit replays the
// stored bytes, and a recomputation of the same deterministic simulation
// reproduces them bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smilab::serve {

/// A parsed JSON value. Object members keep their wire order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> elements;                         // kArray

  /// Find a member of an object (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Integral-valued number accessor: nullopt unless the value is a number
  /// representing an exact integer in [lo, hi].
  [[nodiscard]] std::optional<std::int64_t> as_int(
      std::int64_t lo, std::int64_t hi) const;
};

/// Parse one JSON document (must consume the whole input apart from
/// whitespace). Returns nullopt with a position-stamped message in *error.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error);

/// Escape a string for embedding in a JSON document (adds no quotes). The
/// result is valid UTF-8 for any input: well-formed UTF-8 sequences pass
/// unchanged, and each byte of an ill-formed one becomes \ufffd.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Append-only JSON object/array writer with deterministic number
/// formatting (see file comment).
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(128); }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array(std::string_view key) {
    key_prefix(key);
    out_.push_back('[');
    first_ = true;
  }
  void end_array() { close(']'); }

  void field(std::string_view key, std::string_view value) {
    key_prefix(key);
    out_.push_back('"');
    out_ += json_escape(value);
    out_.push_back('"');
  }
  void field(std::string_view key, const char* value) {
    field(key, std::string_view{value});
  }
  void field(std::string_view key, bool value) {
    key_prefix(key);
    out_ += value ? "true" : "false";
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, std::int64_t value) {
    key_prefix(key);
    out_ += std::to_string(value);
  }
  void field(std::string_view key, int value) {
    field(key, static_cast<std::int64_t>(value));
  }
  /// A pre-rendered JSON value spliced in verbatim (response envelopes
  /// embed cached payload bytes untouched).
  void raw_field(std::string_view key, std::string_view json) {
    key_prefix(key);
    out_ += json;
  }
  /// Array element (between begin_array/end_array).
  void element(double value);

  [[nodiscard]] std::string take() { return std::move(out_); }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void open(char c) {
    comma();
    out_.push_back(c);
    first_ = true;
  }
  void close(char c) {
    out_.push_back(c);
    first_ = false;
  }
  void comma() {
    if (!first_) out_.push_back(',');
    first_ = false;
  }
  void key_prefix(std::string_view key) {
    comma();
    out_.push_back('"');
    out_ += json_escape(key);
    out_ += "\":";
  }

  std::string out_;
  bool first_ = true;
};

/// Render a 64-bit key as fixed-width lowercase hex (the wire form of a
/// canonical cache key).
[[nodiscard]] std::string key_hex(std::uint64_t key);

}  // namespace smilab::serve
