#include "smilab/serve/wire.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace smilab::serve {

namespace {

/// Recursive-descent parser over a string_view with a cursor. Depth is
/// bounded (requests are flat; a hostile client must not be able to
/// overflow the daemon's stack with `[[[[...`).
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      set_error("trailing characters after JSON document");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return set_error("nesting too deep");
    if (pos_ >= text_.size()) return set_error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        if (!consume("true")) return false;
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!consume("false")) return false;
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!consume("null")) return false;
        out.type = JsonValue::Type::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return set_error("expected object key string");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (peek() != ':') return set_error("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.elements.push_back(std::move(value));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            if (!parse_unicode_escape(out)) return false;
            break;
          default:
            return set_error("unsupported escape in string");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return set_error("unescaped control character in string");
      }
      out.push_back(c);
    }
    return set_error("unterminated string");
  }

  // After "\u": four hex digits, joined with a following escaped low
  // surrogate when they name a high one; appended to `out` as UTF-8.
  bool parse_unicode_escape(std::string& out) {
    std::uint32_t cp = 0;
    if (!parse_hex4(cp)) return set_error("invalid \\u escape in string");
    if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return set_error("unpaired surrogate in \\u escape");
    }
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      std::uint32_t low = 0;
      if (text_.substr(pos_, 2) != "\\u") {
        return set_error("unpaired surrogate in \\u escape");
      }
      pos_ += 2;
      if (!parse_hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return set_error("unpaired surrogate in \\u escape");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool parse_hex4(std::uint32_t& out) {
    if (text_.size() - pos_ < 4) return false;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      int digit = 0;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        return false;
      }
      out = out * 16 + static_cast<std::uint32_t>(digit);
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    const auto byte = [&out](std::uint32_t b) {
      out.push_back(static_cast<char>(b));
    };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xC0 | (cp >> 6));
      byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      byte(0xE0 | (cp >> 12));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    } else {
      byte(0xF0 | (cp >> 18));
      byte(0x80 | ((cp >> 12) & 0x3F));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return set_error("expected a JSON value");
    // strtod needs a terminated buffer; number tokens are short.
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      pos_ = start;
      return set_error("malformed number");
    }
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return set_error("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool set_error(const char* message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message;
      *error_ += " (at byte ";
      *error_ += std::to_string(pos_);
      *error_ += ")";
    }
    return false;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::int64_t> JsonValue::as_int(std::int64_t lo,
                                              std::int64_t hi) const {
  if (type != Type::kNumber) return std::nullopt;
  const double rounded = std::nearbyint(number);
  if (rounded != number) return std::nullopt;
  // Converting a double outside [-2^63, 2^63) to int64 is undefined, and
  // INT64_MAX as a double rounds up to 2^63: bound the double first, then
  // range-check the exact integer.
  if (number < -0x1p63 || number >= 0x1p63) return std::nullopt;
  const auto n = static_cast<std::int64_t>(number);
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  if (error != nullptr) error->clear();
  return Parser{text, error}.run();
}

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i] (Unicode
/// Table 3-7: no overlongs, no surrogates, nothing past U+10FFFF), or 0
/// when the bytes there do not start one. s[i] is at least 0x80.
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto at = [&s](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char lead = at(i);
  std::size_t n = 0;
  unsigned char second_lo = 0x80;
  unsigned char second_hi = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    n = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    n = 3;
    if (lead == 0xE0) second_lo = 0xA0;  // overlong below U+0800
    if (lead == 0xED) second_hi = 0x9F;  // surrogates U+D800..U+DFFF
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    n = 4;
    if (lead == 0xF0) second_lo = 0x90;  // overlong below U+10000
    if (lead == 0xF4) second_hi = 0x8F;  // past U+10FFFF
  } else {
    return 0;
  }
  if (s.size() - i < n) return 0;
  if (at(i + 1) < second_lo || at(i + 1) > second_hi) return 0;
  for (std::size_t k = 2; k < n; ++k) {
    if (at(i + k) < 0x80 || at(i + k) > 0xBF) return 0;
  }
  return n;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x80) {
      // Error lines echo client bytes: keep the output UTF-8, hence JSON,
      // whatever arrived.
      const std::size_t n = utf8_sequence_length(s, i);
      if (n == 0) {
        out += "\\ufffd";
      } else {
        out.append(s.substr(i, n));
        i += n - 1;
      }
      continue;
    }
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

/// %.17g round-trips IEEE-754 binary64 exactly, so cached payload bytes
/// equal freshly recomputed ones. Integral values render without a point
/// ("3" not "3.0000000000000000e+00" — %g trims), which also keeps small
/// counters readable.
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

void JsonWriter::field(std::string_view key, double value) {
  key_prefix(key);
  append_double(out_, value);
}

void JsonWriter::element(double value) {
  comma();
  append_double(out_, value);
}

std::string key_hex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace smilab::serve
